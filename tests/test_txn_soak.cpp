// OCC transaction fault soak (soak label): the optimistic commit protocol
// runs a contended multi-key mix — cross-shard multi_puts and rmw
// increments with zipf-skewed keys — over a lossy, partitioned fiber, for
// 20+ fault seeds. Every seed must prove:
//
//   * serializability: each shard's version word equals its committed
//     write count, with transactions counted once per involved shard;
//   * zero lost or duplicated writes across aborts: the rmw increments of
//     a tracked hot key sum exactly, however many speculative attempts
//     were rolled back or escalated to the irrevocable fallback;
//   * GWC (invariant 1): trace::GwcChecker audits every applied write of
//     every shard group into a gapless, identical total order;
//   * convergence: all replicas agree after quiesce;
//   * the optimism was real: the dedicated contended-rmw audit must
//     produce a nonzero repair count (otherwise it proves nothing about
//     re-executing conflicting increments under the commit locks) and no
//     aborts (every rmw conflict is on a stripe it writes, so it repairs).
//
// Seeds 1300+ keep these fault schedules disjoint from the other soaks.
#include <gtest/gtest.h>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "load/generator.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"
#include "trace/gwc_checker.hpp"
#include "trace/recorder.hpp"

namespace optsync {
namespace {

faults::FaultPlan txn_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.08, "lock").drop(0.08, "data").duplicate(0.04);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 220'000);
  return plan;
}

struct GwcAudit {
  trace::Recorder recorder{1 << 10};
  trace::GwcChecker checker;
  GwcAudit() { checker.install(recorder); }
};

class TxnFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnFaultSoak, OccStaysSerializableUnderDropAndPartition) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = txn_attack(seed);
  cfg.recorder = &audit.recorder;
  dsm::DsmSystem sys(sched, topo, cfg);
  ASSERT_TRUE(sys.reliable_transport());

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  shard::ShardedStore store(sys, scfg);

  // A transaction-heavy, zipf-skewed mix: most requests are multi-key,
  // and the hot keys force speculation windows to overlap.
  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 220;
  gcfg.rate_rps = 60'000.0;
  gcfg.read_fraction = 0.10;
  gcfg.txn_fraction = 0.35;
  gcfg.rmw_fraction = 0.35;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 24;
  gcfg.keys.zipf_s = 1.0;
  load::Generator gen(gcfg);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);
  sched.run();
  drive.rethrow_if_failed();
  store.fill_report(report);

  ASSERT_TRUE(gen.done());
  EXPECT_EQ(report.completed(), gcfg.requests);
  // Serializability ledger, per shard: version word == committed writes
  // (transactions bump once per involved shard, aborts bump nothing).
  for (shard::ShardId s = 0; s < scfg.shards; ++s) {
    EXPECT_EQ(store.version(s),
              static_cast<dsm::Word>(store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(store.replicas_converged()) << "seed " << seed;
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
  EXPECT_GT(report.faults.drops_injected, 0u) << "seed " << seed;
  // Commit accounting is closed: every planned txn/rmw either committed
  // optimistically or went through the fallback — nothing vanished.
  EXPECT_EQ(report.issued(), report.completed()) << "seed " << seed;
}

TEST(TxnFaultSoak, ContendedMixProducesRepairsAndLosesNoIncrements) {
  // Dedicated lost-update audit, with faults: every node hammers the same
  // two keys with rmw increments while the fiber drops and partitions.
  // The final sums must be exact to the increment, and the run must have
  // exercised the repair path (nonzero repairs) for the proof to bite.
  sim::Scheduler sched;
  const net::MeshTorus2D topo = net::MeshTorus2D::near_square(8);
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = txn_attack(1299);
  cfg.recorder = &audit.recorder;
  dsm::DsmSystem sys(sched, topo, cfg);

  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  shard::ShardedStore store(sys, scfg);

  shard::Client client(store);
  const std::vector<shard::Key> keys{5, 6};
  constexpr int kRounds = 8;
  auto worker = [&](dsm::NodeId n) -> sim::Process {
    shard::TxnRequest req;
    req.adds = keys;
    req.delta = 1;
    for (int k = 0; k < kRounds; ++k) {
      co_await client.txn(n, req).join();
    }
  };
  std::vector<sim::Process> procs;
  for (dsm::NodeId n = 0; n < 8; ++n) procs.push_back(worker(n));
  sched.run();
  for (auto& p : procs) p.rethrow_if_failed();

  const auto expect = static_cast<dsm::Word>(8 * kRounds);
  auto read_now = [&](dsm::NodeId n, shard::Key k) {
    std::optional<dsm::Word> out;
    auto p = client.read(n, k, &out);
    EXPECT_TRUE(p.done());
    return out;
  };
  for (dsm::NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(read_now(n, 5).value_or(-1), expect) << "node " << n;
    EXPECT_EQ(read_now(n, 6).value_or(-1), expect) << "node " << n;
  }
  EXPECT_TRUE(store.replicas_converged());
  stats::ServiceReport report;
  store.fill_report(report);
  EXPECT_TRUE(report.serializable());
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();
  // The optimism was real: speculation collided, and every collision was
  // re-executed under the commit locks rather than aborted.
  EXPECT_GT(store.txn_manager().repairs(), 0u);
  EXPECT_EQ(store.txn_manager().aborts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, TxnFaultSoak,
                         ::testing::Range<std::uint64_t>(1300, 1322));

}  // namespace
}  // namespace optsync
