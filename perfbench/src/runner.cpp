#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>

#include "dsm/system.hpp"
#include "elastic/controller.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "metrics.hpp"
#include "net/topology.hpp"
#include "shard/client.hpp"
#include "shard/lease.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/coro.hpp"
#include "stats/service_report.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/tracer.hpp"

namespace perfbench {

namespace {

using namespace optsync;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fault-plan stream constant: the drop plan is seeded from the run seed
/// but must not share a stream with the traffic plan.
constexpr std::uint64_t kFaultStream = 0xfa017ull;

load::GeneratorConfig traffic_config(const RunSpec& spec) {
  const Workload& w = *spec.workload;
  load::GeneratorConfig g = w.traffic;
  g.seed = spec.seed;
  g.requests = planned_requests(spec);
  g.rate_rps = spec.rate == Rate::kNominal ? w.nominal_rps : w.overload_rps;
  if (g.keys.shift_offset != 0) g.keys.shift_at_request = g.requests / 2;
  return g;
}

dsm::DsmConfig dsm_config(const RunSpec& spec, telemetry::Tracer* tracer) {
  dsm::DsmConfig cfg;
  if (spec.workload->drop_p > 0.0) {
    cfg.faults.reseed(spec.seed ^ kFaultStream);
    cfg.faults.drop(spec.workload->drop_p);  // every message class
  }
  cfg.tracer = tracer;  // nullptr for the end-to-end runs
  return cfg;
}

/// Lowest involved shard: where the service report files a request (the
/// same rule load::Generator applies).
shard::ShardId primary_shard(const shard::ShardedStore& store,
                             const load::Request& r) {
  shard::ShardId best = store.shard_of(r.keys.front());
  for (const shard::Key k : r.keys) best = std::min(best, store.shard_of(k));
  return best;
}

/// Everything one run needs, built in dependency order. Construction is
/// the benchmark's set-up phase.
struct Rig {
  Rig(const RunSpec& spec, telemetry::Tracer* tracer, double* plan_s)
      : topo(net::MeshTorus2D::near_square(kNodes)),
        sys(sched, topo, dsm_config(spec, tracer)),
        store(sys, spec.workload->store),
        traffic(traffic_config(spec)),
        sampler(telemetry::SamplerConfig{20'000,
                                         telemetry::SamplerConfig{}.capacity}),
        client(store) {
    const auto t0 = Clock::now();
    plan = load::Generator::plan(traffic, kNodes);
    *plan_s = seconds_since(t0);
    report.shards.resize(store.shards());
    if (store.elastic()) {
      // The service_scaling hotspot settings: a control loop near the
      // 20 us sampler rate that promotes down to the Zipf head's ~8% ranks.
      elastic::ElasticControllerConfig ccfg;
      ccfg.interval_ns = 40'000;
      ccfg.cooldown_ticks = 1;
      ccfg.hot_key_share = 0.08;
      ccfg.max_pins_per_hot = 8;
      store.register_telemetry(sampler, report);
      ctrl.emplace(store, report, sampler.series(), ccfg);
      ctrl->register_telemetry(sampler);
    }
  }

  sim::Scheduler sched;
  net::MeshTorus2D topo;
  dsm::DsmSystem sys;
  shard::ShardedStore store;
  load::GeneratorConfig traffic;
  std::vector<load::Request> plan;
  stats::ServiceReport report;
  telemetry::Sampler sampler;
  std::optional<elastic::ElasticController> ctrl;
  shard::Client client;
};

/// Per-request span instants, sim ns.
struct Timing {
  sim::Time arrival = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  bool done = false;
};

/// Open-loop replay of a plan through shard::Client (see runner.hpp).
class Replay {
 public:
  explicit Replay(Rig& rig) : rig_(rig), timings_(rig.plan.size()) {
    for (std::size_t n = 0; n < rig.sys.node_count(); ++n) {
      queues_.push_back(std::make_unique<NodeQueue>(rig.sched));
    }
  }
  // Scheduled arrivals and the workers hold `this`.
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Schedules every arrival and starts one worker per node.
  void start() {
    base_ = rig_.sched.now();
    for (std::size_t i = 0; i < rig_.plan.size(); ++i) {
      rig_.sched.at(base_ + rig_.plan[i].at, [this, i] { arrive(i); });
    }
    for (dsm::NodeId n = 0; n < queues_.size(); ++n) {
      workers_.push_back(worker(n));
    }
  }

  [[nodiscard]] const std::vector<Timing>& timings() const { return timings_; }
  [[nodiscard]] sim::Time base() const { return base_; }
  [[nodiscard]] sim::Time last_end() const { return last_end_; }

 private:
  struct NodeQueue {
    explicit NodeQueue(sim::Scheduler& sched) : ready(sched) {}
    std::deque<std::size_t> fifo;
    sim::Signal ready;
  };

  void arrive(std::size_t i) {
    const load::Request& r = rig_.plan[i];
    timings_[i].arrival = rig_.sched.now();
    ++rig_.report.shards[primary_shard(rig_.store, r)].op(r.op).issued;
    NodeQueue& q = *queues_[r.node];
    q.fifo.push_back(i);
    q.ready.notify_all();
    if (++pushed_ == rig_.plan.size()) {
      all_pushed_ = true;
      for (auto& nq : queues_) nq->ready.notify_all();
    }
  }

  sim::Process worker(dsm::NodeId n) {
    auto& sched = rig_.sched;
    shard::Client& client = rig_.client;
    const sim::Duration read_compute = rig_.traffic.read_compute_ns;
    const shard::ConsistencyLevel level = rig_.traffic.read_level;
    NodeQueue& q = *queues_[n];
    while (true) {
      while (q.fifo.empty() && !all_pushed_) co_await q.ready.wait();
      if (q.fifo.empty()) break;
      const std::size_t idx = q.fifo.front();
      q.fifo.pop_front();
      const load::Request& r = rig_.plan[idx];
      Timing& t = timings_[idx];
      t.start = sched.now();
      auto* trc = rig_.sys.tracer();
      const shard::ShardId primary = primary_shard(rig_.store, r);
      telemetry::SpanContext octx{};
      if (trc != nullptr) {
        octx = trc->begin_op(n, stats::service_op_name(r.op), primary,
                             t.arrival, t.start);
      }
      try {
        switch (r.op) {
          case stats::ServiceOp::kRead: {
            co_await sim::delay(sched, read_compute);
            std::optional<dsm::Word> out;
            co_await client.read(n, r.keys.front(), &out, {level}).join();
            if (trc != nullptr && octx.valid()) {
              trc->record_span(octx.trace, octx.span,
                               telemetry::SpanKind::kCs, n, t.start,
                               sched.now());
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
            shard::TxnRequest req;
            req.adds = r.keys;
            req.delta = static_cast<dsm::Word>(r.value % 1024) + 1;
            co_await client.txn(n, std::move(req)).join();
            break;
          }
        }
        t.done = true;
      } catch (const std::exception&) {
        // Counted as a failed request; the node moves on to its next one.
      }
      if (trc != nullptr && octx.valid()) trc->end_op(n, sched.now());
      if (t.done) {
        t.end = sched.now();
        last_end_ = std::max(last_end_, t.end);
        ++rig_.report.shards[primary].op(r.op).completed;
      }
    }
  }

  Rig& rig_;
  std::vector<Timing> timings_;
  std::vector<std::unique_ptr<NodeQueue>> queues_;
  std::vector<sim::Process> workers_;
  sim::Time base_ = 0;
  sim::Time last_end_ = 0;
  std::size_t pushed_ = 0;
  bool all_pushed_ = false;
};

bool is_read(stats::ServiceOp op) { return op == stats::ServiceOp::kRead; }

void fill_samples(const Rig& rig, const Replay& replay, RunResult* out) {
  Samples& s = out->samples;
  const auto& timings = replay.timings();
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const Timing& t = timings[i];
    if (!t.done) continue;
    const bool read = is_read(rig.plan[i].op);
    const auto latency = static_cast<std::int64_t>(t.end - t.arrival);
    const auto service = static_cast<std::int64_t>(t.end - t.start);
    s.all.push_back(latency);
    (read ? s.read : s.update).push_back(latency);
    (read ? s.read_service : s.update_service).push_back(service);
    s.backlog.push_back(static_cast<std::int64_t>(t.start - t.arrival));
    ++(read ? out->counters.reads : out->counters.updates);
  }
  for (auto* v : {&s.all, &s.read, &s.update, &s.backlog, &s.read_service,
                  &s.update_service}) {
    std::sort(v->begin(), v->end());
  }
}

void fill_counters(Rig& rig, RunResult* out) {
  Counters& c = out->counters;
  shard::ShardedStore& store = rig.store;
  stats::LockStats locks;
  for (const auto& s : rig.report.shards) {
    c.forwarded += s.forwarded_ops;
    c.lease_hits += s.lease_hits;
    c.lease_grants += s.lease_grants;
    c.lease_remote_reads += s.remote_reads;
    c.lease_invalidations += s.lease_invalidations;
    c.txn_retries += s.txn_retries;
    c.txn_fallbacks += s.txn_fallbacks;
    c.shard_aborts += s.txn_aborts;
    c.aborts_clobber += s.aborts_read_clobber;
    c.aborts_validation += s.aborts_validation;
    c.sequenced += s.sequenced;
    c.frames += s.frames;
    locks.merge(s.lock);
  }
  c.client_redirects = rig.client.stats().redirects;
  c.txn_commits = store.txn_manager().commits();
  c.txn_aborts = store.txn_manager().aborts();
  c.lock_acquire_p50_ns = static_cast<double>(locks.acquire_ns.p50());
  c.lock_acquire_p99_ns = static_cast<double>(locks.acquire_ns.p99());
  c.lock_hold_p50_ns = static_cast<double>(locks.hold_ns.p50());
  c.spec_attempts = locks.speculative_attempts;
  c.spec_commits = locks.speculative_commits;
  c.rollbacks = locks.rollbacks;
  c.history_allows = locks.history_allows;
  c.history_vetoes = locks.history_vetoes;
  c.spec_drops = locks.root_speculative_drops;
  const auto& net = rig.sys.network().stats();
  const auto& rel = rig.sys.reliable().stats();
  c.messages = net.messages;
  c.bytes = net.bytes;
  c.hop_bytes = net.hop_bytes;
  c.retransmits = rel.retransmits;
  c.acks_sent = rel.acks_sent;
  c.acks_piggybacked = rel.acks_piggybacked;
  c.events = rig.sched.events_processed();
  if (rig.ctrl) {
    c.elastic_actions = rig.ctrl->actions();
    c.quiesce_ns = rig.ctrl->migrator().stats().total_quiesce_ns;
    for (std::uint32_t s = 0; s < store.shards(); ++s) {
      c.promotions += store.promotions(s);
      c.splits += store.splits(s);
      c.migrations += store.migrations(s);
    }
  }
}

void fill_gates(Rig& rig, RunResult* out) {
  Gates& g = out->gates;
  g.complete = out->completed == out->issued;
  g.ledger = rig.report.serializable();
  g.converged = rig.store.replicas_converged();
  for (const auto& s : rig.report.shards) {
    if (!s.abort_reasons_consistent()) g.abort_sums = false;
  }
  if (rig.store.partial()) {
    g.stale_reads = rig.store.leases()->auditor().violations();
  }
  g.expirations = rig.sys.reliable().stats().expirations;
}

void fill_trace(const telemetry::Tracer& tracer, RunResult* out) {
  const telemetry::Analysis a = tracer.analyze();
  out->gates.trace_complete = a.orphan_spans == 0 && a.incomplete_ops == 0 &&
                              tracer.dropped_spans() == 0 &&
                              a.ops.size() == out->completed;
  for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
    out->path_share[b] = ratio(static_cast<double>(a.path_totals[b]),
                               static_cast<double>(a.total_latency));
  }
}

std::uint64_t fingerprint(const Replay& replay, const Counters& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const Timing& t : replay.timings()) {
    mix(t.arrival);
    mix(t.start);
    mix(t.end);
  }
  for (const std::uint64_t v : {c.messages, c.bytes, c.hop_bytes, c.sequenced,
                                c.frames, c.txn_aborts, c.lease_hits}) {
    mix(v);
  }
  return h;
}

}  // namespace

std::string Gates::failures() const {
  std::string out;
  const auto add = [&out](bool failed, const char* name) {
    if (!failed) return;
    if (!out.empty()) out += ",";
    out += name;
  };
  add(!complete, "incomplete_schedule");
  add(!ledger, "ledger_mismatch");
  add(!converged, "replicas_diverged");
  add(!abort_sums, "abort_partition");
  add(stale_reads != 0, "stale_reads");
  add(expirations != 0, "retransmit_expirations");
  add(!trace_complete, "trace_incomplete");
  return out;
}

std::uint64_t planned_requests(const RunSpec& spec) {
  const Workload& w = *spec.workload;
  const std::uint64_t base =
      spec.rate == Rate::kNominal ? w.nominal_requests : w.overload_requests;
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(
             static_cast<double>(base) * spec.scale)));
}

double time_setup(const RunSpec& spec, double* plan_s) {
  const auto t0 = Clock::now();
  { Rig rig(spec, nullptr, plan_s); }
  return seconds_since(t0);
}

RunResult run_once(const RunSpec& spec) {
  RunResult out;
  std::unique_ptr<telemetry::Tracer> tracer;
  if (spec.traced) {
    // Room for every span of the run: a dropped span would turn its trace
    // incomplete and fail the trace gate.
    tracer = std::make_unique<telemetry::Tracer>(
        std::max<std::size_t>(1 << 20, 64 * planned_requests(spec)));
  }
  const auto t_setup = Clock::now();
  Rig rig(spec, tracer.get(), &out.host.plan_s);
  out.host.setup_s = seconds_since(t_setup);

  Replay replay(rig);
  const auto t_loop = Clock::now();
  replay.start();
  if (rig.ctrl) rig.ctrl->start();
  if (rig.store.elastic()) rig.sampler.start(rig.sched);
  rig.sched.run();
  rig.sampler.stop();
  if (rig.ctrl) rig.ctrl->stop();
  out.host.loop_s = seconds_since(t_loop);

  const auto t_report = Clock::now();
  rig.store.fill_report(rig.report);
  out.issued = rig.plan.size();
  for (const Timing& t : replay.timings()) out.completed += t.done ? 1 : 0;
  out.elapsed_ns = static_cast<std::int64_t>(replay.last_end() - replay.base());
  fill_samples(rig, replay, &out);
  fill_counters(rig, &out);
  fill_gates(rig, &out);
  if (tracer) fill_trace(*tracer, &out);
  out.fingerprint = fingerprint(replay, out.counters);
  out.host.report_s = seconds_since(t_report);
  return out;
}

Metrics sim_metrics(const Workload& w, const RunResult& r) {
  const Samples& s = r.samples;
  const TailCut p999 = tail_cut(s.all, 0.999);
  return {
      {"goodput_rps", ratio(static_cast<double>(r.completed) * 1e9,
                            static_cast<double>(r.elapsed_ns))},
      {"mean_us", mean(s.all) / 1e3},
      {"p50_us", percentile(s.all, 0.50) / 1e3},
      {"p99_us", tail_cut(s.all, 0.99).value / 1e3},
      {"p999_us", p999.value / 1e3},
      {"p999_quantile", p999.quantile},
      {"p999_beyond", static_cast<double>(p999.beyond)},
      {"read_p99_us", tail_cut(s.read, 0.99).value / 1e3},
      {"update_p99_us", tail_cut(s.update, 0.99).value / 1e3},
      {"slo_miss_frac", slo_miss_frac(s.all, r.issued, w.slo_limit_ns)},
      {"fail_frac", ratio(static_cast<double>(r.issued - r.completed),
                          static_cast<double>(r.issued))},
      {"samples", static_cast<double>(s.all.size())},
  };
}

Metrics layer_metrics(const RunResult& r) {
  const Counters& c = r.counters;
  const Samples& s = r.samples;
  const auto ops = static_cast<double>(r.completed);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  Metrics m = {
      {"shard.backlog_p99_us", tail_cut(s.backlog, 0.99).value / 1e3},
      {"shard.read_service_p99_us", tail_cut(s.read_service, 0.99).value / 1e3},
      {"shard.update_service_p99_us",
       tail_cut(s.update_service, 0.99).value / 1e3},
      {"shard.forwarded_per_op", ratio(d(c.forwarded), ops)},
      {"shard.client_redirects_per_kop",
       ratio(1e3 * d(c.client_redirects), ops)},
      {"shard.lease.hit_rate",
       ratio(d(c.lease_hits),
             d(c.lease_hits + c.lease_grants + c.lease_remote_reads))},
      {"shard.lease.grants_per_kread", ratio(1e3 * d(c.lease_grants),
                                             d(c.reads))},
      {"shard.lease.invalidations_per_write",
       ratio(d(c.lease_invalidations), d(c.updates))},
      {"txn.commit_ratio",
       ratio(d(c.txn_commits), d(c.txn_commits + c.txn_aborts))},
      {"txn.aborts_per_op", ratio(d(c.txn_aborts), ops)},
      {"txn.retries_per_op", ratio(d(c.txn_retries), ops)},
      {"txn.fallbacks_per_kop", ratio(1e3 * d(c.txn_fallbacks), ops)},
      {"txn.abort_clobber_share", ratio(d(c.aborts_clobber), d(c.shard_aborts))},
      {"txn.abort_validation_share",
       ratio(d(c.aborts_validation), d(c.shard_aborts))},
      {"core.lock_acquire_p50_us", c.lock_acquire_p50_ns / 1e3},
      {"core.lock_acquire_p99_us", c.lock_acquire_p99_ns / 1e3},
      {"core.lock_hold_p50_us", c.lock_hold_p50_ns / 1e3},
      {"core.spec_commit_ratio", ratio(d(c.spec_commits), d(c.spec_attempts))},
      {"core.rollbacks_per_kop", ratio(1e3 * d(c.rollbacks), ops)},
      {"core.history_veto_share",
       ratio(d(c.history_vetoes), d(c.history_vetoes + c.history_allows))},
      {"dsm.sequenced_per_op", ratio(d(c.sequenced), ops)},
      {"dsm.writes_per_frame", ratio(d(c.sequenced), d(c.frames))},
      {"dsm.spec_drops_per_kop", ratio(1e3 * d(c.spec_drops), ops)},
      {"net.msgs_per_op", ratio(d(c.messages), ops)},
      {"net.bytes_per_op", ratio(d(c.bytes), ops)},
      {"net.hop_bytes_per_op", ratio(d(c.hop_bytes), ops)},
      {"net.retransmits_per_kmsg", ratio(1e3 * d(c.retransmits), d(c.messages))},
      {"net.acks_per_msg", ratio(d(c.acks_sent), d(c.messages))},
      {"net.ack_piggyback_share",
       ratio(d(c.acks_piggybacked), d(c.acks_sent + c.acks_piggybacked))},
      {"simkern.events_per_op", ratio(d(c.events), ops)},
      {"elastic.actions", d(c.elastic_actions)},
      {"elastic.promotions", d(c.promotions)},
      {"elastic.splits", d(c.splits)},
      {"elastic.migrations", d(c.migrations)},
      {"elastic.quiesce_us", d(c.quiesce_ns) / 1e3},
  };
  for (std::size_t b = 0; b < telemetry::kBucketCount; ++b) {
    m.emplace_back("telemetry.path." +
                       std::string(telemetry::bucket_name(
                           static_cast<telemetry::Bucket>(b))) +
                       "_share",
                   r.path_share[b]);
  }
  return m;
}

}  // namespace perfbench
