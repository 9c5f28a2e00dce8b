// Tracer: span collection + critical-path analysis for traced service ops.
//
// Ownership/propagation model (see span.hpp): a node runs one service op
// at a time, so the op's SpanContext lives in a per-node slot here. Lock
// clients temporarily repoint the slot's parent at their lock-wait span
// around the atomic_exchange that ships the request, so the wire/root
// spans of that request nest under the wait. Root-side code receives the
// context explicitly (SequencedWrite::ctx, the waiter queue) because the
// root serves many nodes interleaved.
//
// Spans are recorded with start/end timestamps (start_span/end_span for
// spans that bracket suspension points, record_span for retroactive ones).
// analyze() groups completed spans per trace, detects orphans (a parent id
// that never materialized — the "span tree is complete" test), and runs an
// interval sweep over each request window: every elementary interval is
// attributed to the highest-priority covering leaf span's bucket, so the
// buckets plus the uncovered remainder ("other") sum to the measured
// arrival->completion latency exactly.
//
// analyze() additionally extracts each op's CRITICAL PATH: a backward walk
// from the request span's completion that repeatedly descends into the
// child whose (clipped) end is latest before the current time — the span
// whose completion gated progress. Gaps between a span's children are the
// span's own self time. The resulting segments partition the request
// window (so path buckets also sum to latency exactly); unlike the
// coverage sweep, work that ran concurrently off the path contributes
// nothing, which is what makes the dominant-bucket verdict per op honest.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simkern/time.hpp"
#include "telemetry/span.hpp"

namespace optsync::telemetry {

/// One completed (or still-open: end == 0 while open) span.
struct Span {
  TraceId trace = 0;
  SpanId id = 0;
  SpanId parent = 0;
  SpanKind kind = SpanKind::kRequest;
  std::uint32_t node = 0;
  sim::Time start = 0;
  sim::Time end = 0;
};

/// Critical-path breakdown of one traced op.
struct OpBreakdown {
  TraceId trace = 0;
  std::uint32_t node = 0;
  std::uint32_t shard = 0;
  std::string_view op;  ///< "read" / "write" / "txn" (static storage)
  sim::Time start = 0;
  sim::Time end = 0;
  /// Indexed by Bucket; includes Bucket::kOther, so entries sum to total().
  std::array<sim::Duration, kBucketCount> buckets{};
  /// Critical-path attribution: the longest causal chain through the span
  /// tree, found by the backward walk in analyze(). Its segments partition
  /// the request window, so these also sum to total() exactly — but unlike
  /// `buckets` (a coverage sweep), concurrent spans off the path contribute
  /// nothing here.
  std::array<sim::Duration, kBucketCount> path_buckets{};

  [[nodiscard]] sim::Duration total() const { return end - start; }
  /// Time attributed to a named (non-kOther) bucket.
  [[nodiscard]] sim::Duration named() const {
    return total() - buckets[static_cast<std::size_t>(Bucket::kOther)];
  }
  /// Critical-path time on a named bucket.
  [[nodiscard]] sim::Duration path_named() const {
    return total() - path_buckets[static_cast<std::size_t>(Bucket::kOther)];
  }
  /// The op's verdict: which bucket owns the largest share of its critical
  /// path ("this op was slow because of X").
  [[nodiscard]] Bucket dominant_path_bucket() const {
    std::size_t best = static_cast<std::size_t>(Bucket::kOther);
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      if (path_buckets[i] > path_buckets[best]) best = i;
    }
    return static_cast<Bucket>(best);
  }
};

struct Analysis {
  std::vector<OpBreakdown> ops;
  std::uint64_t orphan_spans = 0;    ///< parent id absent from the trace
  std::uint64_t incomplete_ops = 0;  ///< request span never closed
  std::uint64_t open_spans = 0;      ///< non-request spans never closed
  std::array<sim::Duration, kBucketCount> totals{};
  /// Summed critical-path segments across all ops (partition the same
  /// total_latency — path segments of each op sum to its total()).
  std::array<sim::Duration, kBucketCount> path_totals{};
  sim::Duration total_latency = 0;

  /// Fraction of total latency landing in a named bucket (1.0 when no
  /// latency was measured — an empty analysis attributes nothing wrongly).
  [[nodiscard]] double named_fraction() const {
    if (total_latency == 0) return 1.0;
    const auto other = totals[static_cast<std::size_t>(Bucket::kOther)];
    return static_cast<double>(total_latency - other) /
           static_cast<double>(total_latency);
  }
  /// Fraction of total latency the critical-path walk lands in a named
  /// bucket, over every op.
  [[nodiscard]] double path_named_fraction() const {
    if (total_latency == 0) return 1.0;
    const auto other = path_totals[static_cast<std::size_t>(Bucket::kOther)];
    return static_cast<double>(total_latency - other) /
           static_cast<double>(total_latency);
  }
  /// The same fraction over the p99 tail only: the slowest 1% of ops by
  /// request latency (every op at or above the cut). A good overall
  /// fraction can hide a tail whose slow ops are unexplained; the p99 cut
  /// cannot. The dsm_inspect --min-p99-named gate reads this (1.0 when no
  /// latency was measured).
  [[nodiscard]] double p99_path_named_fraction() const;
};

class Tracer {
 public:
  /// `capacity` caps retained completed spans; beyond it new spans are
  /// counted in dropped_spans() and discarded (analysis then reports the
  /// affected traces as incomplete rather than silently lying).
  explicit Tracer(std::size_t capacity = 1 << 20);

  // --- op lifecycle (called by the load generator) ----------------------
  /// Opens a trace for the op that arrived at `arrival` and begins service
  /// now. Records the request umbrella span (left open) and a backlog span
  /// covering arrival -> now. Sets the node's context slot.
  SpanContext begin_op(std::uint32_t node, std::string_view op,
                       std::uint32_t shard, sim::Time arrival, sim::Time now);

  /// Closes the node's current op (ends its request span) and clears the
  /// node's context slot.
  void end_op(std::uint32_t node, sim::Time now);

  // --- context slots ----------------------------------------------------
  /// The context new spans on `node` should attach under. Invalid when no
  /// traced op is in flight on the node.
  [[nodiscard]] SpanContext node_ctx(std::uint32_t node) const;

  /// Repoints the node slot's parent (the trace id is unchanged). Lock
  /// clients bracket their request send with this so wire/root spans nest
  /// under the lock-wait span; restore the previous parent afterwards.
  void set_node_parent(std::uint32_t node, SpanId parent);

  // --- span recording ---------------------------------------------------
  /// Opens a span; returns its id (0 when `trace` is 0).
  SpanId start_span(TraceId trace, SpanId parent, SpanKind kind,
                    std::uint32_t node, sim::Time start);
  /// Closes an open span. Unknown/0 ids are ignored.
  void end_span(SpanId id, sim::Time end);
  /// Records an already-finished span in one call.
  void record_span(TraceId trace, SpanId parent, SpanKind kind,
                   std::uint32_t node, sim::Time start, sim::Time end);

  // --- introspection ----------------------------------------------------
  [[nodiscard]] std::uint64_t traces_started() const { return next_trace_ - 1; }
  [[nodiscard]] std::size_t completed_spans() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_; }
  void for_each_span(const std::function<void(const Span&)>& fn) const;
  /// Metadata of a trace's op ("read"/"write"/"txn", or "" if unknown).
  [[nodiscard]] std::string_view op_of(TraceId trace) const;

  /// Groups spans per trace, checks tree completeness, sweeps buckets.
  [[nodiscard]] Analysis analyze() const;

 private:
  struct OpRecord {
    TraceId trace = 0;
    SpanId root_span = 0;
    std::uint32_t node = 0;
    std::uint32_t shard = 0;
    std::string_view op;
    bool done = false;
  };

  void store(const Span& s);

  std::size_t capacity_;
  TraceId next_trace_ = 1;
  SpanId next_span_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;                    ///< completed
  std::unordered_map<SpanId, Span> open_;      ///< started, not yet ended
  std::vector<SpanContext> node_ctx_;          ///< per-node slots
  std::vector<OpRecord> ops_;
  std::unordered_map<TraceId, std::size_t> op_index_;
};

}  // namespace optsync::telemetry
