// Span assembly end-to-end: every traced service op must yield a COMPLETE
// span tree (no orphan parents, no unfinished request spans) whose latency
// buckets sum exactly to the measured arrival->completion latency — on a
// clean fiber, and across a battery of drop/duplicate/partition fault
// schedules where retransmission legs stretch the trees. Also the overload
// detector's acceptance pair: a deep-overload run must flag its saturated
// shard `drowning`, an at-capacity run must not. Seeds 1100+ keep the
// fault schedules disjoint from the other soak suites.
#include <gtest/gtest.h>

#include <iostream>
#include <unordered_map>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "soak_support.hpp"
#include "telemetry/overload.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/tracer.hpp"

namespace optsync {
namespace {

struct TracedRun {
  telemetry::Tracer tracer;
  stats::ServiceReport report;
  std::uint64_t requests = 0;
  bool converged = false;
};

void run_traced_service(TracedRun& run, std::uint64_t seed,
                        const faults::FaultPlan* faults, bool zipfian,
                        std::uint64_t requests, double rate_rps,
                        std::uint32_t nodes = 8, double read_fraction = 0.50,
                        double txn_fraction = 0.10) {
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(nodes);
  dsm::DsmConfig cfg;
  if (faults != nullptr) cfg.faults = *faults;
  cfg.tracer = &run.tracer;
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = requests;
  gcfg.rate_rps = rate_rps;
  gcfg.read_fraction = read_fraction;
  gcfg.txn_fraction = txn_fraction;
  if (zipfian) {
    gcfg.keys.dist = load::KeyDist::kZipfian;
    gcfg.keys.keys = 1024;
  }
  load::Generator gen(gcfg);
  run.requests = requests;

  shard::Client client(store);
  auto drive = gen.run(client, run.report);
  sched.run();
  drive.rethrow_if_failed();
  store.fill_report(run.report);
  run.converged = store.replicas_converged();
  ASSERT_TRUE(gen.done());
}

/// The assembly contract shared by the clean and faulted runs: one
/// complete tree per request, buckets exactly covering each request
/// window, and most latency attributed to a named cause.
void expect_complete_assembly(const TracedRun& run, std::uint64_t seed,
                              double min_named_fraction) {
  const telemetry::Analysis an = run.tracer.analyze();
  EXPECT_EQ(an.orphan_spans, 0u) << "seed " << seed;
  EXPECT_EQ(an.incomplete_ops, 0u) << "seed " << seed;
  EXPECT_EQ(an.open_spans, 0u) << "seed " << seed;
  EXPECT_EQ(an.ops.size(), run.requests) << "seed " << seed;
  EXPECT_EQ(run.tracer.dropped_spans(), 0u) << "seed " << seed;

  sim::Duration total = 0;
  for (const telemetry::OpBreakdown& op : an.ops) {
    sim::Duration sum = 0;
    for (const sim::Duration b : op.buckets) sum += b;
    // Exact by construction: the sweep covers the window with buckets
    // plus the kOther remainder. Any mismatch is a broken tree.
    ASSERT_EQ(sum, op.total()) << "trace " << op.trace << " seed " << seed;
    total += op.total();
  }
  EXPECT_EQ(total, an.total_latency);
  EXPECT_GE(an.named_fraction(), min_named_fraction)
      << "seed " << seed << ": named buckets cover only "
      << 100.0 * an.named_fraction() << "% of measured latency";
}

TEST(SpanAssembly, CleanZipfianRunYieldsCompleteTrees) {
  TracedRun run;
  run_traced_service(run, /*seed=*/41, /*faults=*/nullptr, /*zipfian=*/true,
                     /*requests=*/600, /*rate_rps=*/200'000.0);
  EXPECT_EQ(run.report.completed(), 600u);
  EXPECT_TRUE(run.report.serializable());
  // Acceptance: per-op buckets sum to measured latency (exact, asserted
  // inside) and >= 95% of the total is attributed to a named cause.
  expect_complete_assembly(run, 41, 0.95);
}

// Skewed traffic on sixteen nodes (seed 42 ^ 0xa77b0; 4 shards, 50k req/s
// per shard, 25% reads, 5% txns): hot keys pile onto a few shards, so the
// queue-wait and coalesce legs actually show up. Beyond complete trees, the
// critical path must name >= 95% of the p99 tail's latency.
TEST(SpanAssembly, SkewedServiceRunExplainsItsP99Tail) {
  TracedRun run;
  run_traced_service(run, /*seed=*/42 ^ 0xa77b0ull, /*faults=*/nullptr,
                     /*zipfian=*/true, /*requests=*/1600,
                     /*rate_rps=*/200'000.0, /*nodes=*/16,
                     /*read_fraction=*/0.25, /*txn_fraction=*/0.05);
  EXPECT_TRUE(run.report.serializable());
  EXPECT_TRUE(run.converged);
  expect_complete_assembly(run, 42, 0.95);
  const telemetry::Analysis an = run.tracer.analyze();
  std::cout << "named buckets cover " << 100.0 * an.named_fraction()
            << "% of measured latency; critical path names "
            << 100.0 * an.p99_path_named_fraction() << "% of the p99 tail\n";
  EXPECT_GE(an.p99_path_named_fraction(), 0.95);
}

class SpanAssemblyFaultSoak : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SpanAssemblyFaultSoak, TreesSurviveDropAndPartition) {
  const std::uint64_t seed = GetParam();
  const faults::FaultPlan plan = soak::drop_partition_attack(seed);
  TracedRun run;
  run_traced_service(run, seed, &plan, /*zipfian=*/false, /*requests=*/220,
                     /*rate_rps=*/60'000.0);
  EXPECT_EQ(run.report.completed(), 220u);
  EXPECT_GT(run.report.faults.drops_injected, 0u) << "seed " << seed;
  // Loss recovery stretches trees with retransmit legs but must never
  // tear them: every parent resolves, every window stays fully bucketed.
  expect_complete_assembly(run, seed, 0.90);
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, SpanAssemblyFaultSoak,
                         ::testing::Range<std::uint64_t>(1100, 1122));

// The service RPC legs (lease fetches, forwarded writes) carry the op's
// context too: under loss their retransmissions land on the op's critical
// path as their own bucket, nested under the lease fetch for reads and
// directly under the request for forwarded writes.
TEST(SpanAssembly, ServiceRpcLegsShowTheirLossRecovery) {
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  telemetry::Tracer tracer;
  dsm::DsmConfig cfg;
  faults::FaultPlan plan(1150);
  plan.drop(0.10, "lease").drop(0.10, "svc");
  cfg.faults = plan;
  cfg.tracer = &tracer;
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.lease.server_nodes = 4;
  scfg.lease.enabled = true;
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = 1150;
  gcfg.requests = 400;
  gcfg.rate_rps = 80'000.0;
  gcfg.read_fraction = 0.80;
  gcfg.txn_fraction = 0.0;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 256;
  gcfg.read_level = shard::ConsistencyLevel::kLeased;
  load::Generator gen(gcfg);
  TracedRun run;
  run.requests = gcfg.requests;
  shard::Client client(store);
  auto drive = gen.run(client, run.report);
  sched.run();
  drive.rethrow_if_failed();
  store.fill_report(run.report);
  ASSERT_TRUE(gen.done());
  EXPECT_GT(run.report.faults.drops_injected, 0u);

  const telemetry::Analysis an = tracer.analyze();
  EXPECT_EQ(an.orphan_spans, 0u);
  EXPECT_EQ(an.incomplete_ops, 0u);
  EXPECT_EQ(an.open_spans, 0u);
  EXPECT_EQ(an.ops.size(), run.requests);
  EXPECT_GT(an.path_totals[static_cast<std::size_t>(
                telemetry::Bucket::kRetransmit)],
            0u);

  std::unordered_map<telemetry::SpanId, telemetry::SpanKind> kind_of;
  tracer.for_each_span(
      [&kind_of](const telemetry::Span& sp) { kind_of[sp.id] = sp.kind; });
  std::size_t under_fetch = 0;
  std::size_t under_request = 0;
  tracer.for_each_span([&](const telemetry::Span& sp) {
    if (sp.kind != telemetry::SpanKind::kRetransmit) return;
    const auto it = kind_of.find(sp.parent);
    if (it == kind_of.end()) return;
    under_fetch += it->second == telemetry::SpanKind::kLeaseFetch;
    under_request += it->second == telemetry::SpanKind::kRequest;
  });
  EXPECT_GT(under_fetch, 0u);    // lease-req / lease-grant legs
  EXPECT_GT(under_request, 0u);  // svc-fwd / svc-fwd-ack legs
}

// --- overload detection acceptance pair ---------------------------------

struct OverloadRun {
  stats::ServiceReport report;
  bool drowning = false;
  double slope = 0.0;
};

OverloadRun run_overloaded_service(double rate_rps) {
  OverloadRun run;
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  dsm::DsmConfig cfg;
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = 1;
  shard::ShardedStore store(sys, scfg);

  load::GeneratorConfig gcfg;
  gcfg.seed = 7;
  gcfg.requests = 1'500;
  gcfg.rate_rps = rate_rps;
  gcfg.read_fraction = 0.10;
  gcfg.txn_fraction = 0.0;
  load::Generator gen(gcfg);

  telemetry::Sampler sampler;
  run.report.shards.resize(store.shards());
  store.register_telemetry(sampler, run.report);

  shard::Client client(store);
  auto drive = gen.run(client, run.report);
  sampler.start(sched);
  sched.run();
  drive.rethrow_if_failed();
  sampler.sample_now(sched.now());
  store.fill_report(run.report);
  telemetry::flag_overload(run.report, sampler.series());

  run.drowning = run.report.shards.at(0).drowning;
  run.slope = run.report.shards.at(0).backlog_slope_per_s;
  return run;
}

TEST(OverloadDetection, DeepOverloadFlagsTheShardDrowning) {
  // 2M req/s against a single shard whose goodput ceiling is ~600k: the
  // backlog grows for the whole offered-load window.
  const OverloadRun run = run_overloaded_service(2'000'000.0);
  EXPECT_EQ(run.report.completed(), 1'500u);
  EXPECT_TRUE(run.drowning)
      << "saturated shard not flagged (slope " << run.slope << " req/s)";
  EXPECT_GT(run.slope, 0.0);
  EXPECT_EQ(run.report.drowning_shards(), 1u);
  EXPECT_NE(run.report.format().find("DROWNING"), std::string::npos);
}

TEST(OverloadDetection, AtCapacityLoadIsNotFlagged) {
  // 25k req/s is well within one shard's capacity: latency is fine and
  // the backlog never grows structurally. High latency != drowning.
  const OverloadRun run = run_overloaded_service(25'000.0);
  EXPECT_EQ(run.report.completed(), 1'500u);
  EXPECT_FALSE(run.drowning)
      << "healthy shard flagged (slope " << run.slope << " req/s)";
  EXPECT_EQ(run.report.drowning_shards(), 0u);
  EXPECT_EQ(run.report.format().find("DROWNING"), std::string::npos);
}

}  // namespace
}  // namespace optsync
