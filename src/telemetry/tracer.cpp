#include "telemetry/tracer.hpp"

#include <algorithm>

namespace optsync::telemetry {

Tracer::Tracer(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

SpanContext Tracer::begin_op(std::uint32_t node, std::string_view op,
                             std::uint32_t shard, sim::Time arrival,
                             sim::Time now) {
  const TraceId trace = next_trace_++;
  const SpanId root = next_span_++;
  Span s;
  s.trace = trace;
  s.id = root;
  s.parent = 0;
  s.kind = SpanKind::kRequest;
  s.node = node;
  s.start = arrival;
  open_.emplace(root, s);

  if (now > arrival) {
    record_span(trace, root, SpanKind::kBacklog, node, arrival, now);
  }

  if (node_ctx_.size() <= node) node_ctx_.resize(node + 1);
  node_ctx_[node] = SpanContext{trace, root};

  op_index_.emplace(trace, ops_.size());
  ops_.push_back(OpRecord{trace, root, node, shard, op, false});
  return node_ctx_[node];
}

void Tracer::end_op(std::uint32_t node, sim::Time now) {
  if (node >= node_ctx_.size() || !node_ctx_[node].valid()) return;
  const TraceId trace = node_ctx_[node].trace;
  const auto it = op_index_.find(trace);
  if (it != op_index_.end()) {
    OpRecord& rec = ops_[it->second];
    end_span(rec.root_span, now);
    rec.done = true;
  }
  node_ctx_[node] = SpanContext{};
}

SpanContext Tracer::node_ctx(std::uint32_t node) const {
  return node < node_ctx_.size() ? node_ctx_[node] : SpanContext{};
}

void Tracer::set_node_parent(std::uint32_t node, SpanId parent) {
  if (node >= node_ctx_.size()) node_ctx_.resize(node + 1);
  node_ctx_[node].span = parent;
}

SpanId Tracer::start_span(TraceId trace, SpanId parent, SpanKind kind,
                          std::uint32_t node, sim::Time start) {
  if (trace == 0) return 0;
  const SpanId id = next_span_++;
  Span s;
  s.trace = trace;
  s.id = id;
  s.parent = parent;
  s.kind = kind;
  s.node = node;
  s.start = start;
  open_.emplace(id, s);
  return id;
}

void Tracer::end_span(SpanId id, sim::Time end) {
  if (id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  Span s = it->second;
  open_.erase(it);
  s.end = end;
  store(s);
}

void Tracer::record_span(TraceId trace, SpanId parent, SpanKind kind,
                         std::uint32_t node, sim::Time start, sim::Time end) {
  if (trace == 0) return;
  Span s;
  s.trace = trace;
  s.id = next_span_++;
  s.parent = parent;
  s.kind = kind;
  s.node = node;
  s.start = start;
  s.end = end;
  store(s);
}

void Tracer::store(const Span& s) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

void Tracer::for_each_span(const std::function<void(const Span&)>& fn) const {
  for (const Span& s : spans_) fn(s);
}

std::string_view Tracer::op_of(TraceId trace) const {
  const auto it = op_index_.find(trace);
  return it == op_index_.end() ? std::string_view{} : ops_[it->second].op;
}

double Analysis::p99_path_named_fraction() const {
  std::vector<sim::Duration> latencies;
  latencies.reserve(ops.size());
  for (const OpBreakdown& op : ops) latencies.push_back(op.total());
  std::sort(latencies.begin(), latencies.end());
  const sim::Duration cut =
      latencies.empty()
          ? 0
          : latencies[latencies.size() - 1 -
                      std::min(latencies.size() - 1, latencies.size() / 100)];
  sim::Duration tail = 0;
  sim::Duration other = 0;
  for (const OpBreakdown& op : ops) {
    if (op.total() < cut) continue;
    tail += op.total();
    other += op.path_buckets[static_cast<std::size_t>(Bucket::kOther)];
  }
  return tail == 0 ? 1.0
                   : static_cast<double>(tail - other) /
                         static_cast<double>(tail);
}

Analysis Tracer::analyze() const {
  Analysis out;
  out.open_spans = open_.size();

  // Group completed spans by trace.
  std::unordered_map<TraceId, std::vector<const Span*>> by_trace;
  by_trace.reserve(ops_.size());
  for (const Span& s : spans_) by_trace[s.trace].push_back(&s);

  for (const OpRecord& rec : ops_) {
    if (!rec.done) {
      ++out.incomplete_ops;
      continue;
    }
    const auto it = by_trace.find(rec.trace);
    if (it == by_trace.end()) {
      ++out.incomplete_ops;  // request span fell to the capacity cap
      continue;
    }
    const std::vector<const Span*>& spans = it->second;

    // Tree completeness: every non-zero parent must name a span of this
    // trace (open request spans never get here — rec.done gates it).
    const Span* request = nullptr;
    for (const Span* s : spans) {
      if (s->kind == SpanKind::kRequest) request = s;
    }
    if (request == nullptr) {
      ++out.incomplete_ops;
      continue;
    }
    for (const Span* s : spans) {
      if (s->parent == 0) continue;
      const bool found =
          std::any_of(spans.begin(), spans.end(),
                      [&](const Span* p) { return p->id == s->parent; });
      if (!found) ++out.orphan_spans;
    }

    // Interval sweep over the request window. Leaves are clipped to the
    // window; each elementary interval goes to the best-priority covering
    // leaf; what nothing covers is kOther. Sums are exact by construction.
    OpBreakdown b;
    b.trace = rec.trace;
    b.node = rec.node;
    b.shard = rec.shard;
    b.op = rec.op;
    b.start = request->start;
    b.end = request->end;

    struct Leaf {
      sim::Time start, end;
      SpanKind kind;
    };
    std::vector<Leaf> leaves;
    std::vector<sim::Time> edges;
    edges.push_back(b.start);
    edges.push_back(b.end);
    for (const Span* s : spans) {
      if (!attributable(s->kind)) continue;
      const sim::Time lo = std::max(s->start, b.start);
      const sim::Time hi = std::min(s->end, b.end);
      if (lo >= hi) continue;
      leaves.push_back(Leaf{lo, hi, s->kind});
      edges.push_back(lo);
      edges.push_back(hi);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
      const sim::Time lo = edges[i];
      const sim::Time hi = edges[i + 1];
      int best_prio = 100;
      SpanKind best = SpanKind::kRequest;
      for (const Leaf& l : leaves) {
        if (l.start <= lo && l.end >= hi && sweep_priority(l.kind) < best_prio) {
          best_prio = sweep_priority(l.kind);
          best = l.kind;
        }
      }
      const Bucket bucket =
          best_prio == 100 ? Bucket::kOther : bucket_of(best);
      b.buckets[static_cast<std::size_t>(bucket)] += hi - lo;
    }

    // Critical path: backward walk from the request's completion. At each
    // point in time the path sits on the child whose (clipped) end is the
    // latest — the span whose completion gated progress; the gap between
    // consecutive children is the parent's own self time. Segments
    // partition [start, end], so path_buckets sum to total() exactly.
    std::unordered_map<SpanId, std::vector<const Span*>> children;
    for (const Span* s : spans) {
      if (s->id != request->id) children[s->parent].push_back(s);
    }
    for (auto& [pid, kids] : children) {
      std::sort(kids.begin(), kids.end(), [](const Span* x, const Span* y) {
        return x->end != y->end ? x->end > y->end : x->start > y->start;
      });
    }
    struct PathWalker {
      const std::unordered_map<SpanId, std::vector<const Span*>>& children;
      OpBreakdown& b;
      void attribute(SpanKind k, sim::Time lo, sim::Time hi) const {
        if (hi <= lo) return;
        const Bucket bucket = attributable(k) ? bucket_of(k) : Bucket::kOther;
        b.path_buckets[static_cast<std::size_t>(bucket)] += hi - lo;
      }
      void walk(const Span* s, sim::Time lo, sim::Time hi) const {
        sim::Time t = hi;
        const auto kids = children.find(s->id);
        if (kids != children.end()) {
          for (const Span* c : kids->second) {  // end-descending order
            if (t <= lo) break;
            const sim::Time ce = std::min(c->end, t);
            const sim::Time cs = std::max(c->start, lo);
            if (ce <= cs) continue;
            attribute(s->kind, ce, t);  // self time after this child
            walk(c, cs, ce);
            t = cs;
          }
        }
        attribute(s->kind, lo, t);  // leading self time (whole span if leaf)
      }
    };
    PathWalker{children, b}.walk(request, b.start, b.end);

    for (std::size_t i = 0; i < kBucketCount; ++i) {
      out.totals[i] += b.buckets[i];
      out.path_totals[i] += b.path_buckets[i];
    }
    out.total_latency += b.total();
    out.ops.push_back(std::move(b));
  }
  return out;
}

}  // namespace optsync::telemetry
