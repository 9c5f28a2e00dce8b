// Determinism soak: one seed, one universe.
//
// The raw-speed kernel pass swapped the event queue's heap of std::function
// for a slot table of pooled SmallFn callbacks, put frame payloads behind a
// RecyclePool, and moved root queues / node inboxes onto ring buffers. None
// of that may perturb a run: event order is (time, insertion seq), never
// allocator addresses, so the SAME --seed must replay the SAME simulation
// byte for byte. These suites run the full service and txn workloads twice
// per seed and compare a complete JSON serialization of everything a bench
// would report — goodput, messages, per-shard ledgers, latency percentiles,
// lock stats, applied-write streams, pool/scheduler counters. Any hidden
// dependence on heap layout (e.g. iterating an unordered_map of pointers,
// or pool reuse changing a tiebreak) shows up as a byte diff here.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/system.hpp"
#include "elastic/controller.hpp"
#include "load/generator.hpp"
#include "net/topology.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "stats/json.hpp"
#include "stats/service_report.hpp"
#include "simkern/scheduler.hpp"
#include "telemetry/sampler.hpp"

namespace optsync {
namespace {

struct WorkloadParams {
  std::uint32_t nodes = 16;
  std::uint32_t shards = 4;
  std::uint64_t requests = 600;
  double rate_rps = 400'000;
  double read_fraction = 0.25;
  double txn_fraction = 0.05;
  /// Range fabric with hot groups and a telemetry Sampler armed; with
  /// `elastic_controller` the ElasticController acts on it too. Both are
  /// housekeeping loops that re-arm only while the simulation is busy.
  bool elastic_fabric = false;
  bool elastic_controller = false;
};

/// Event budget far past any workload here: a run that exhausts it has a
/// housekeeping loop keeping the scheduler alive.
constexpr std::uint64_t kEventBudget = 2'000'000;

void serialize_histogram(stats::JsonWriter& w, std::string_view key,
                         const stats::Histogram& h) {
  w.begin_object(key)
      .value("count", h.count())
      .value("min", static_cast<std::int64_t>(h.min()))
      .value("max", static_cast<std::int64_t>(h.max()))
      .value("p50", static_cast<std::int64_t>(h.p50()))
      .value("p95", static_cast<std::int64_t>(h.percentile(0.95)))
      .value("p99", static_cast<std::int64_t>(h.p99()))
      .value("p999", static_cast<std::int64_t>(h.p999()))
      .value("mean", h.mean())
      .end_object();
}

// Runs the workload to completion and serializes every observable a bench
// would export. The returned string is the run's fingerprint.
// `actions`, when given, receives the elastic controller's action count.
std::string run_fingerprint(std::uint64_t seed, const WorkloadParams& p,
                            std::uint64_t* actions = nullptr) {
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(p.nodes);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  for (dsm::NodeId n = 0; n < static_cast<dsm::NodeId>(topo.size()); ++n) {
    sys.node(n).enable_applied_log(true);
  }

  shard::ShardedStoreConfig scfg;
  scfg.shards = p.shards;
  if (p.elastic_fabric) {
    scfg.policy = shard::ShardMap::Policy::kRange;
    scfg.key_space = 512;
    scfg.elastic.enabled = true;
    scfg.elastic.hot_groups = 2;
  }
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = p.requests;
  gcfg.rate_rps = p.rate_rps;
  gcfg.keys.keys = 512;
  gcfg.read_fraction = p.read_fraction;
  gcfg.txn_fraction = p.txn_fraction;
  // Full replication reserves the last node for directory moves.
  if (p.elastic_fabric) gcfg.node_span = p.nodes - 1;
  load::Generator gen(gcfg);

  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);
  telemetry::Sampler sampler(telemetry::SamplerConfig{20'000, 1024});
  std::optional<elastic::ElasticController> ctrl;
  if (p.elastic_fabric) {
    store.register_telemetry(sampler, report);
    if (p.elastic_controller) {
      ctrl.emplace(store, report, sampler.series());
      ctrl->start();
    }
    sampler.start(sched);
  }
  // sched.run() with an event budget: if the housekeeping loops kept each
  // other alive, run() would never return; here the budget runs out and
  // the idle check fails instead of the test hanging.
  std::uint64_t events = 0;
  while (events < kEventBudget && sched.step()) ++events;
  EXPECT_TRUE(sched.idle()) << "housekeeping kept the scheduler alive";
  store.fill_report(report);
  EXPECT_TRUE(gen.done());
  EXPECT_TRUE(report.serializable());
  EXPECT_TRUE(store.replicas_converged());

  std::ostringstream out;
  stats::JsonWriter w(out);
  w.begin_object()
      .value("elapsed_ns", static_cast<std::uint64_t>(report.elapsed_ns))
      .value("messages", report.messages)
      .value("offered_rps", report.offered_rps)
      .value("goodput_rps", report.goodput_rps())
      .value("events_processed", sched.events_processed())
      .value("final_time", static_cast<std::uint64_t>(sched.now()))
      .value("pool_created", sys.pool_stats().created)
      .value("pool_acquires", sys.pool_stats().acquires);
  w.begin_array("shards");
  for (const auto& s : report.shards) {
    w.begin_object()
        .value("shard", s.shard)
        .value("sequenced", s.sequenced)
        .value("frames", s.frames)
        .value("max_frame_writes", s.max_frame_writes)
        .value("version", static_cast<std::int64_t>(s.version))
        .value("committed_writes", s.committed_writes)
        .value("txn_commits", s.txn_commits)
        .value("txn_aborts", s.txn_aborts)
        .value("txn_retries", s.txn_retries)
        .value("txn_fallbacks", s.txn_fallbacks)
        .value("txn_repairs", s.txn_repairs);
    for (std::size_t o = 0; o < stats::kServiceOpCount; ++o) {
      const auto& op = s.ops[o];
      w.begin_object("op" + std::to_string(o))
          .value("issued", op.issued)
          .value("completed", op.completed);
      serialize_histogram(w, "latency", op.latency_ns);
      w.end_object();
    }
    w.value("acquisitions", s.lock.acquisitions)
        .value("rollbacks", s.lock.rollbacks)
        .value("speculative_commits", s.lock.speculative_commits);
    serialize_histogram(w, "acquire_ns", s.lock.acquire_ns);
    w.end_object();
  }
  w.end_array();
  if (p.elastic_fabric) {
    w.value("sampler_ticks", sampler.ticks());
    if (ctrl) {
      w.value("controller_ticks", ctrl->ticks())
          .value("actions", ctrl->actions());
      if (actions != nullptr) *actions = ctrl->actions();
    }
    w.begin_array("elastic");
    for (std::uint32_t s = 0; s < store.shards(); ++s) {
      w.begin_object()
          .value("migrations", store.migrations(s))
          .value("splits", store.splits(s))
          .value("merges", store.merges(s))
          .value("promotions", store.promotions(s))
          .value("demotions", store.demotions(s))
          .value("redirects", store.redirects(s))
          .end_object();
    }
    w.end_array();
  }
  // The applied-write stream of every replica of every shard: the strongest
  // fingerprint — any reordering anywhere in the protocol lands here.
  w.begin_array("applied");
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    const auto g = store.group_of(s);
    std::uint64_t fnv = 1469598103934665603ull;
    auto mix = [&fnv](std::uint64_t v) {
      fnv ^= v;
      fnv *= 1099511628211ull;
    };
    for (const dsm::NodeId m : sys.group(g).members()) {
      for (const auto& u : sys.node(m).applied_log(g)) {
        mix(u.seq);
        mix(u.var);
        mix(static_cast<std::uint64_t>(u.value));
        mix(u.origin);
      }
    }
    w.value(std::to_string(fnv));
  }
  w.end_array();
  w.end_object();
  return out.str();
}

TEST(Determinism, ServiceWorkloadSameSeedIsByteIdentical) {
  WorkloadParams p;
  for (const std::uint64_t seed : {42ull, 7ull, 0xdeadbeefull}) {
    const std::string a = run_fingerprint(seed, p);
    const std::string b = run_fingerprint(seed, p);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "seed " << seed << " diverged between two runs";
  }
}

TEST(Determinism, TxnHeavyWorkloadSameSeedIsByteIdentical) {
  WorkloadParams p;
  p.txn_fraction = 0.40;  // exercise the OCC/abort/fallback machinery hard
  p.read_fraction = 0.10;
  for (const std::uint64_t seed : {42ull, 1234ull}) {
    const std::string a = run_fingerprint(seed, p);
    const std::string b = run_fingerprint(seed, p);
    EXPECT_EQ(a, b) << "seed " << seed << " diverged between two runs";
  }
}

TEST(Determinism, ElasticControllerAndSamplerAreDeterministic) {
  WorkloadParams p;
  p.elastic_fabric = true;
  p.elastic_controller = true;
  // Zipf traffic well past one range shard's capacity, so the controller
  // sees drowning shards and acts.
  p.requests = 3000;
  p.rate_rps = 4'000'000;
  std::uint64_t actions = 0;
  const std::string a = run_fingerprint(42, p, &actions);
  const std::string b = run_fingerprint(42, p);
  EXPECT_EQ(a, b) << "the housekeeping loops diverged between two runs";
  EXPECT_GT(actions, 0u) << "the elastic controller never acted";
  // Same fabric and sampler without the controller: its actions must show.
  WorkloadParams q = p;
  q.elastic_controller = false;
  const std::string c = run_fingerprint(42, q);
  EXPECT_NE(a, c) << "controller ran but changed nothing";
}

TEST(Determinism, DifferentSeedsAreDifferentUniverses) {
  WorkloadParams p;
  EXPECT_NE(run_fingerprint(1, p), run_fingerprint(2, p));
}

}  // namespace
}  // namespace optsync
