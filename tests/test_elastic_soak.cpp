// Elastic-fabric fault soak: the full reconfiguration repertoire — hot-key
// promotion, stripe split, online root migration, merge-back, demotion —
// executes mid-stream while the open-loop generator hammers the service
// over a lossy, duplicating, partitioned fiber. Every invariant must hold
// on every seed: the applied write stream of every shard group (hot groups
// included) is a gapless total order across each cut (streaming
// trace::GwcChecker), every shard's version word matches its committed
// write count, replicas converge after quiesce, and — in the leased
// partial-replication variant — the StaleReadAuditor records zero
// superseded serves across the moves. Seeds 1200+ keep the fault schedules
// disjoint from the other soak suites.
#include <gtest/gtest.h>

#include <iostream>
#include <optional>

#include "dsm/system.hpp"
#include "elastic/controller.hpp"
#include "elastic/directory_manager.hpp"
#include "elastic/migrator.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "simkern/coro.hpp"
#include "soak_support.hpp"
#include "telemetry/sampler.hpp"

namespace optsync {
namespace {

using shard::Key;
using shard::ShardId;
using soak::GwcAudit;

faults::FaultPlan elastic_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.06, "lock").drop(0.06, "data").duplicate(0.03);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 200'000);
  return plan;
}

/// The scripted reconfiguration storm, serialized in one coroutine so at
/// most one directory mutation is in flight (the controller's own rule):
/// promote -> split -> migrate -> merge-back -> demote, spread across the
/// load window so each lands under different traffic and fault phases.
sim::Process reconfigure(shard::ShardedStore& store,
                         elastic::DirectoryManager& dir,
                         elastic::RootMigrator& mig, Key hot_key,
                         dsm::NodeId mig_to) {
  auto& sched = store.system().scheduler();
  const ShardId hot = store.base_shards();
  co_await sim::delay(sched, 120'000);
  co_await dir.promote(hot_key, hot).join();
  co_await sim::delay(sched, 250'000);
  co_await dir.split(0, 1).join();
  co_await sim::delay(sched, 250'000);
  co_await mig.migrate(0, mig_to).join();
  co_await sim::delay(sched, 250'000);
  co_await dir.merge_back(0).join();
  co_await sim::delay(sched, 250'000);
  co_await dir.demote(hot_key).join();
}

class ElasticFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElasticFaultSoak, ReconfigurationsSurviveDropsAndPartitions) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = elastic_attack(seed);
  cfg.recorder = &audit.recorder;
  dsm::DsmSystem sys(sched, topo, cfg);
  ASSERT_TRUE(sys.reliable_transport());

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.policy = shard::ShardMap::Policy::kRange;
  scfg.key_space = 256;
  scfg.slots_per_shard = 16;
  scfg.elastic.enabled = true;
  scfg.elastic.hot_groups = 2;
  shard::ShardedStore store(sys, scfg);
  elastic::DirectoryManager dir(store);
  elastic::RootMigrator mig(store);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 260;
  gcfg.rate_rps = 60'000.0;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 256;
  gcfg.txn_fraction = 0.10;
  gcfg.node_span = 7;  // full replication: keep the control node client-free
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);

  // Zipf rank 1 is key 1 — the head the promotion targets. The migration
  // target is any member that is neither the current root nor the control
  // node.
  const dsm::NodeId cur = store.root_of(0);
  const dsm::NodeId mig_to = cur == 1 ? 2 : 1;
  auto storm = reconfigure(store, dir, mig, 1, mig_to);
  sched.run();
  drive.rethrow_if_failed();
  storm.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(report.completed(), gcfg.requests);
  // The storm actually exercised every reconfiguration class.
  EXPECT_EQ(mig.stats().migrations, 1u) << "seed " << seed;
  EXPECT_EQ(dir.stats().promotions, 1u);
  EXPECT_EQ(dir.stats().demotions, 1u);
  EXPECT_EQ(dir.stats().splits, 1u);
  EXPECT_EQ(dir.stats().merges, 1u);
  EXPECT_EQ(store.root_of(0), mig_to);
  // Invariant 2 on every shard, hot groups included.
  for (ShardId s = 0; s < store.shards(); ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  // Invariant 1 across every cut: gapless, identical, no speculation.
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
  EXPECT_GT(report.faults.drops_injected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, ElasticFaultSoak,
                         ::testing::Range<std::uint64_t>(1200, 1222));

// Partial replication + leases: the directory moves route through proxy
// chains, lease epochs travel with their slots, and the StaleReadAuditor
// independently witnesses that no leased read ever served a superseded
// value across a promotion/demotion cycle.
/// Promotion/split/merge/demotion cycle without a migration (roots stay
/// on server nodes; the proxy-chain reassign path is what's under test).
sim::Process lease_storm(shard::ShardedStore& store,
                         elastic::DirectoryManager& dir) {
  auto& sched = store.system().scheduler();
  const ShardId hot = store.base_shards();
  co_await sim::delay(sched, 150'000);
  co_await dir.promote(1, hot).join();
  co_await sim::delay(sched, 400'000);
  co_await dir.split(0, 2).join();
  co_await sim::delay(sched, 400'000);
  co_await dir.merge_back(0).join();
  co_await sim::delay(sched, 400'000);
  co_await dir.demote(1).join();
}

class ElasticLeaseSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElasticLeaseSoak, LeasedReadsStayEpochCleanAcrossMoves) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = elastic_attack(seed);
  cfg.recorder = &audit.recorder;
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.policy = shard::ShardMap::Policy::kRange;
  scfg.key_space = 256;
  scfg.slots_per_shard = 16;
  scfg.elastic.enabled = true;
  scfg.elastic.hot_groups = 2;
  scfg.lease.enabled = true;
  scfg.lease.server_nodes = 4;
  scfg.lease.ttl_ns = 1'000'000;
  shard::ShardedStore store(sys, scfg);
  elastic::DirectoryManager dir(store);

  load::GeneratorConfig gcfg;
  gcfg.seed = seed ^ 0x1ea5e;
  gcfg.requests = 220;
  gcfg.rate_rps = 50'000.0;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 256;
  gcfg.read_fraction = 0.5;
  gcfg.read_level = shard::ConsistencyLevel::kLeased;
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);

  auto storm = lease_storm(store, dir);
  sched.run();
  drive.rethrow_if_failed();
  storm.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(dir.stats().promotions, 1u);
  EXPECT_EQ(dir.stats().demotions, 1u);
  EXPECT_EQ(dir.stats().splits, 1u);
  EXPECT_EQ(dir.stats().merges, 1u);
  for (ShardId s = 0; s < store.shards(); ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();
  ASSERT_NE(store.leases(), nullptr);
  EXPECT_TRUE(store.leases()->auditor().ok())
      << store.leases()->auditor().report();
}

INSTANTIATE_TEST_SUITE_P(LeasedMoveSeeds, ElasticLeaseSoak,
                         ::testing::Range<std::uint64_t>(1300, 1310));

// --- hotspot shift: controller-driven fabric vs a static one ---------------
// Range-partitioned Zipfian traffic on sixteen nodes whose popularity head
// JUMPS to the opposite half of the key space halfway through the
// schedule. Both runs replay the IDENTICAL plan (seed 42 ^ 0xe1a57, shift
// included); the static fabric funnels the post-shift head through one
// drowning shard root until the drain completes, while the elastic control
// plane re-pins, re-splits and re-roots around the new hotspot.

struct ShiftRun {
  stats::ServiceReport report;
  bool converged = false;
  std::uint64_t actions = 0;
};

/// Sized so the post-shift window (~1.4 ms of simulated time) leaves the
/// controller room to promote the new head.
load::GeneratorConfig shift_plan() {
  load::GeneratorConfig gcfg;
  gcfg.seed = 42 ^ 0xe1a57ull;
  gcfg.requests = 600 * 16;
  // Well past the hot shard's capacity: under Zipf 0.99 on the range
  // policy ~80% of the traffic lands in ONE quarter of the key space, so
  // the static fabric's post-shift drain is bound by one shard (~2.2M
  // req/s: ~32 keys share each of its stripe locks) while the elastic one
  // sheds the head onto hot groups.
  gcfg.rate_rps = 4'000'000.0;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 1024;
  gcfg.keys.shift_at_request = gcfg.requests / 2;
  gcfg.keys.shift_offset = 512;  // head jumps to the opposite half
  gcfg.node_span = 15;           // the elastic control node stays client-free
  gcfg.read_fraction = 0.25;
  gcfg.txn_fraction = 0.05;
  return gcfg;
}

ShiftRun run_shift(bool elastic_on, GwcAudit& audit) {
  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(16);
  dsm::DsmConfig cfg;
  cfg.recorder = &audit.recorder;
  dsm::DsmSystem sys(sched, topo, cfg);
  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.policy = shard::ShardMap::Policy::kRange;
  scfg.key_space = 1024;
  scfg.elastic.enabled = elastic_on;
  scfg.elastic.hot_groups = 3;
  shard::ShardedStore store(sys, scfg);
  load::Generator gen(shift_plan());
  ShiftRun run;
  shard::Client client(store);
  auto drive = gen.run(client, run.report);
  telemetry::SamplerConfig smpcfg;
  smpcfg.interval_ns = 20'000;
  telemetry::Sampler sampler(smpcfg);
  store.register_telemetry(sampler, run.report);
  std::optional<elastic::ElasticController> ctrl;
  if (elastic_on) {
    // Faster loop than the defaults: the post-shift window is a few
    // milliseconds, so the controller ticks near the sampler rate and
    // promotes down to the Zipf head's ~8% ranks.
    elastic::ElasticControllerConfig ccfg;
    ccfg.interval_ns = 40'000;
    ccfg.cooldown_ticks = 1;
    ccfg.hot_key_share = 0.08;
    ccfg.max_pins_per_hot = 8;
    ctrl.emplace(store, run.report, sampler.series(), ccfg);
    ctrl->register_telemetry(sampler);
    ctrl->start();
  }
  sampler.start(sched);
  sched.run();
  sampler.stop();
  if (ctrl) ctrl->stop();
  drive.rethrow_if_failed();
  store.fill_report(run.report);
  EXPECT_TRUE(gen.done());
  run.converged = store.replicas_converged();
  if (ctrl) run.actions = ctrl->actions();
  return run;
}

// Post-shift goodput — the second half of the schedule over the time it
// took to serve it (shift instant to last completion) — must be >= 1.5x
// static, with the GWC checker clean on both runs and every ledger and
// convergence check holding: reconfiguration may not cost a single
// sequenced write.
TEST(HotspotShift, ElasticFabricOutrunsStaticAfterTheShift) {
  const load::GeneratorConfig plan = shift_plan();
  const auto shift_at = plan.keys.shift_at_request;
  // The shift instant is a plan property: both runs share it exactly.
  const auto shift_time =
      static_cast<double>(load::Generator::plan(plan, 16)[shift_at].at);
  auto post_rps = [&](const ShiftRun& r) {
    const double win = static_cast<double>(r.report.elapsed_ns) - shift_time;
    return win > 0.0
               ? static_cast<double>(plan.requests - shift_at) / win * 1e9
               : 0.0;
  };
  GwcAudit static_audit;
  GwcAudit elastic_audit;
  const ShiftRun fixed = run_shift(false, static_audit);
  const ShiftRun elastic = run_shift(true, elastic_audit);
  for (const ShiftRun* r : {&fixed, &elastic}) {
    EXPECT_TRUE(r->report.serializable());
    EXPECT_TRUE(r->converged);
  }
  EXPECT_TRUE(static_audit.checker.ok()) << static_audit.checker.report();
  EXPECT_TRUE(elastic_audit.checker.ok()) << elastic_audit.checker.report();
  ASSERT_GT(post_rps(fixed), 0.0);
  const double ratio = post_rps(elastic) / post_rps(fixed);
  std::cout << "post-shift goodput: static "
            << static_cast<std::uint64_t>(post_rps(fixed)) << " req/s, elastic "
            << static_cast<std::uint64_t>(post_rps(elastic)) << " req/s ("
            << elastic.actions << " control actions, "
            << elastic_audit.checker.writes_checked()
            << " GWC-checked writes): speedup " << ratio << "x\n";
  EXPECT_GE(ratio, 1.5);
}

}  // namespace
}  // namespace optsync
