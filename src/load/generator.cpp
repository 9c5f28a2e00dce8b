#include "load/generator.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::load {

namespace {
// Distinct stream constants: one Rng per decision so changing, say, the
// read fraction cannot perturb the arrival times of an otherwise-equal
// schedule (the streams are independent functions of the seed).
constexpr std::uint64_t kArrivalStream = 0x5ca1ab1e00000001ull;
constexpr std::uint64_t kKeyStream = 0x5ca1ab1e00000002ull;
constexpr std::uint64_t kOpStream = 0x5ca1ab1e00000003ull;
constexpr std::uint64_t kNodeStream = 0x5ca1ab1e00000004ull;
constexpr std::uint64_t kValueStream = 0x5ca1ab1e00000005ull;
}  // namespace

Generator::Generator(GeneratorConfig cfg) : cfg_(cfg) {
  OPTSYNC_EXPECT(cfg_.requests >= 1);
  OPTSYNC_EXPECT(cfg_.read_fraction >= 0.0 && cfg_.read_fraction <= 1.0);
  OPTSYNC_EXPECT(cfg_.txn_fraction >= 0.0 && cfg_.rmw_fraction >= 0.0 &&
                 cfg_.read_fraction + cfg_.txn_fraction + cfg_.rmw_fraction <=
                     1.0);
  OPTSYNC_EXPECT(cfg_.txn_keys >= 1);
}

ArrivalConfig Generator::effective_arrival(const GeneratorConfig& cfg) {
  ArrivalConfig a = cfg.arrival;
  if (cfg.rate_rps > 0.0) a.mean_gap_ns = 1e9 / cfg.rate_rps;
  return a;
}

std::vector<Request> Generator::plan(const GeneratorConfig& cfg,
                                     std::uint32_t node_count) {
  OPTSYNC_EXPECT(node_count >= 1);
  sim::Rng arrival_rng(cfg.seed ^ kArrivalStream);
  sim::Rng key_rng(cfg.seed ^ kKeyStream);
  sim::Rng op_rng(cfg.seed ^ kOpStream);
  sim::Rng node_rng(cfg.seed ^ kNodeStream);
  sim::Rng value_rng(cfg.seed ^ kValueStream);

  ArrivalProcess arrivals(effective_arrival(cfg));
  const KeySampler keys(cfg.keys);
  const std::uint32_t span =
      cfg.node_span == 0 ? node_count : std::min(cfg.node_span, node_count);

  std::vector<Request> out;
  out.reserve(cfg.requests);
  sim::Time clock = 0;
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    // Hotspot shift: rotate post-shift draws within the key domain. The
    // rotation happens here, not in KeySampler, because it is a property
    // of the SCHEDULE (request index), not of the distribution.
    const auto draw = [&cfg, &keys, &key_rng, i] {
      shard::Key k = keys.sample(key_rng);
      if (cfg.keys.shift_offset != 0 && i >= cfg.keys.shift_at_request) {
        k = 1 + (k - 1 + cfg.keys.shift_offset) % cfg.keys.keys;
      }
      return k;
    };
    clock += arrivals.next_gap(arrival_rng);
    Request r;
    r.at = clock;
    r.node = static_cast<dsm::NodeId>(node_rng.below(span));
    const double u = op_rng.uniform01();
    if (u < cfg.read_fraction) {
      r.op = stats::ServiceOp::kRead;
    } else if (u < cfg.read_fraction + cfg.txn_fraction) {
      r.op = stats::ServiceOp::kTxn;
    } else if (u < cfg.read_fraction + cfg.txn_fraction + cfg.rmw_fraction) {
      // Carved out of the interval after txn so a zero rmw_fraction
      // leaves every pre-existing plan byte-identical.
      r.op = stats::ServiceOp::kRmw;
    } else {
      r.op = stats::ServiceOp::kWrite;
    }
    const std::uint32_t want = r.op == stats::ServiceOp::kTxn ||
                                       r.op == stats::ServiceOp::kRmw
                                   ? cfg.txn_keys
                                   : 1;
    r.keys.reserve(want);
    while (r.keys.size() < want) {
      const shard::Key k = draw();
      // Duplicate keys inside one transaction collapse to the last write
      // anyway; resample a few times for distinct keys, then give up (a
      // tiny key space may not have `want` distinct keys to offer).
      if (std::find(r.keys.begin(), r.keys.end(), k) != r.keys.end()) {
        bool inserted = false;
        for (int attempt = 0; attempt < 8 && !inserted; ++attempt) {
          const shard::Key k2 = draw();
          if (std::find(r.keys.begin(), r.keys.end(), k2) == r.keys.end()) {
            r.keys.push_back(k2);
            inserted = true;
          }
        }
        if (!inserted) break;
      } else {
        r.keys.push_back(k);
      }
    }
    r.value = static_cast<dsm::Word>(value_rng.next() >> 1);
    out.push_back(std::move(r));
  }
  return out;
}

shard::ShardId Generator::primary_shard(const shard::ShardedStore& store,
                                        const Request& r) {
  shard::ShardId best = store.shard_of(r.keys.front());
  for (const shard::Key k : r.keys) {
    best = std::min(best, store.shard_of(k));
  }
  return best;
}

sim::Process Generator::worker(shard::Client& client,
                               stats::ServiceReport& report, dsm::NodeId n) {
  shard::ShardedStore& store = client.store();
  auto& sched = store.system().scheduler();
  NodeQueue& q = *queues_[n];
  while (true) {
    while (q.fifo.empty() && !all_pushed_) co_await q.ready.wait();
    if (q.fifo.empty()) break;  // every arrival delivered and drained
    const Request& r = plan_[q.fifo.front()];
    q.fifo.pop_front();
    ++started_;
    // Open the causal trace for this request. The client-queue leg (arrival
    // to now) is recorded as a backlog span by begin_op itself.
    auto* trc = store.system().tracer();
    const shard::ShardId primary = primary_shard(store, r);
    telemetry::SpanContext octx{};
    if (trc != nullptr) {
      octx = trc->begin_op(n, stats::service_op_name(r.op), primary,
                           base_ + r.at, sched.now());
    }
    switch (r.op) {
      case stats::ServiceOp::kRead: {
        const sim::Time compute_began = sched.now();
        co_await sim::delay(sched, cfg_.read_compute_ns);
        std::optional<dsm::Word> out;
        co_await client.read(n, r.keys.front(), &out, {cfg_.read_level})
            .join();
        if (trc != nullptr && octx.valid()) {
          trc->record_span(octx.trace, octx.span, telemetry::SpanKind::kCs, n,
                           compute_began, sched.now());
        }
        break;
      }
      case stats::ServiceOp::kWrite:
        co_await client.write(n, r.keys.front(), r.value).join();
        break;
      case stats::ServiceOp::kTxn: {
        shard::TxnRequest req;
        req.puts.reserve(r.keys.size());
        for (std::size_t i = 0; i < r.keys.size(); ++i) {
          req.puts.emplace_back(r.keys[i],
                                r.value + static_cast<dsm::Word>(i));
        }
        co_await client.txn(n, std::move(req)).join();
        break;
      }
      case stats::ServiceOp::kRmw: {
        // YCSB-F: read every key, add the planned delta, write back — one
        // atomic multi-key increment.
        shard::TxnRequest req;
        req.adds = r.keys;
        req.delta = static_cast<dsm::Word>(r.value % 1024) + 1;
        co_await client.txn(n, std::move(req)).join();
        break;
      }
    }
    if (trc != nullptr && octx.valid()) trc->end_op(n, sched.now());
    auto& slot = report.shards[primary].op(r.op);
    ++slot.completed;
    // Arrival-to-completion: client queueing behind earlier requests on
    // this node is part of the figure (open-loop SLO accounting).
    slot.latency_ns.record(
        static_cast<std::int64_t>(sched.now() - (base_ + r.at)));
    ++finished_;
  }
}

void Generator::register_telemetry(telemetry::Sampler& sampler) {
  sampler.set_help("optsync_gen_queued",
                   "Open-loop arrivals pushed but not yet started");
  sampler.set_help("optsync_gen_inflight",
                   "Requests started but not yet completed");
  sampler.add_gauge("optsync_gen_queued", {}, [this] {
    return static_cast<double>(pushed_ - started_);
  });
  sampler.add_gauge("optsync_gen_inflight", {}, [this] {
    return static_cast<double>(started_ - finished_);
  });
}

sim::Process Generator::run(shard::Client& client,
                            stats::ServiceReport& report) {
  shard::ShardedStore& store = client.store();
  auto& sys = store.system();
  auto& sched = sys.scheduler();
  const auto node_count = static_cast<std::uint32_t>(sys.node_count());

  plan_ = plan(cfg_, node_count);
  base_ = sched.now();
  pushed_ = 0;
  started_ = 0;
  finished_ = 0;
  all_pushed_ = false;
  done_ = false;

  if (report.shards.size() < store.shards()) {
    report.shards.resize(store.shards());
  }
  const double gap_ns = effective_arrival(cfg_).mean_gap_ns;
  report.offered_rps = gap_ns > 0.0 ? 1e9 / gap_ns : 0.0;

  queues_.clear();
  for (std::uint32_t n = 0; n < node_count; ++n) {
    queues_.push_back(std::make_unique<NodeQueue>(sched));
  }

  // Deliver each arrival at its planned instant: count it as issued, file
  // it in the issuing node's FIFO, wake that node's worker. After the last
  // arrival, wake everyone so idle workers can observe all_pushed_ and
  // exit.
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const Request& r = plan_[i];
    sched.at(base_ + r.at, [this, &store, &report, i] {
      const Request& req = plan_[i];
      ++report.shards[primary_shard(store, req)].op(req.op).issued;
      NodeQueue& q = *queues_[req.node];
      q.fifo.push_back(i);
      q.ready.notify_all();
      if (++pushed_ == plan_.size()) {
        all_pushed_ = true;
        for (auto& nq : queues_) nq->ready.notify_all();
      }
    });
  }

  std::vector<sim::Process> workers;
  workers.reserve(node_count);
  for (std::uint32_t n = 0; n < node_count; ++n) {
    workers.push_back(worker(client, report, n));
  }
  for (auto& w : workers) co_await w.join();

  OPTSYNC_EXPECT(finished_ == plan_.size());
  report.elapsed_ns = sched.now() - base_;
  done_ = true;
}

}  // namespace optsync::load
