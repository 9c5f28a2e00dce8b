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

#include <iostream>
#include <iterator>
#include <string>

#include "soak_support.hpp"

namespace optsync {
namespace {

using soak::GwcAudit;
using soak::ServiceRun;

class TxnFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnFaultSoak, OccStaysSerializableUnderDropAndPartition) {
  const std::uint64_t seed = GetParam();
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = soak::drop_partition_attack(seed);
  cfg.recorder = &audit.recorder;
  ServiceRun run(8, cfg, soak::store_with_shards(4));
  ASSERT_TRUE(run.sys.reliable_transport());

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
  run.drive(gcfg);

  const stats::ServiceReport& report = run.report;
  EXPECT_EQ(report.completed(), gcfg.requests);
  // Serializability ledger, per shard: version word == committed writes
  // (transactions bump once per involved shard, aborts bump nothing).
  for (shard::ShardId s = 0; s < run.store.shards(); ++s) {
    EXPECT_EQ(run.store.version(s),
              static_cast<dsm::Word>(run.store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(run.store.replicas_converged()) << "seed " << seed;
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
  cfg.faults = soak::drop_partition_attack(1299);
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

// --- OCC vs the pessimistic MultiGroupMutex baseline ----------------------
// Both protocols take the involved stripe locks in the same canonical
// order; the difference is WHEN. The legacy path holds every lock across
// the whole per-key compute, the OCC path speculates outside the locks and
// holds them only for validate + publish (repairing covered conflicts under
// them). Each (shard count, mix) point replays one open-loop schedule —
// same seed, same plan bytes — under both commit modes on sixteen nodes.

struct Mix {
  const char* name;
  double read_fraction;
  double txn_fraction;
  double rmw_fraction;
  load::KeyDist dist;
};

// Both mixes are transaction-heavy. The uniform mix is the regime optimism
// exists for — conflicts occasional, compute dominant. The contended mix
// adds Zipfian skew so hot stripes force real conflict traffic.
constexpr Mix kMixes[] = {
    {"uniform", 0.40, 0.25, 0.25, load::KeyDist::kUniform},
    {"contended", 0.10, 0.35, 0.35, load::KeyDist::kZipfian},
};

/// Completed multi-key (txn + rmw) operations per second.
double multikey_goodput_rps(const stats::ServiceReport& report) {
  if (report.elapsed_ns == 0) return 0.0;
  std::uint64_t done = 0;
  for (const auto& s : report.shards) {
    done += s.op(stats::ServiceOp::kTxn).completed +
            s.op(stats::ServiceOp::kRmw).completed;
  }
  return 1e9 * static_cast<double>(done) /
         static_cast<double>(report.elapsed_ns);
}

/// Compute-heavy transactions over a wide slot space: per-key compute
/// dominates the lock round trips (so WHERE the compute runs decides
/// throughput), and stripe == slot conflict detection has enough stripes
/// that uniform traffic conflicts occasionally rather than constantly.
shard::ShardedStoreConfig txn_store(std::uint32_t shards,
                                    shard::TxnMode mode) {
  shard::ShardedStoreConfig scfg;
  scfg.shards = shards;
  scfg.txn.mode = mode;
  scfg.write_compute_ns = 10'000;
  scfg.slots_per_shard = 64;
  return scfg;
}

/// `mix` at 200k req/s per shard — above both modes' capacity at every
/// shard count, so elapsed time is decided by commit throughput and
/// goodput compares capacity. Seeded 42 ^ a per-point constant, so both
/// modes replay the same plan bytes.
load::GeneratorConfig txn_plan(std::uint32_t shards, std::size_t mix,
                               std::uint64_t requests_per_shard) {
  load::GeneratorConfig gcfg;
  gcfg.seed = 42 ^ (0x9e3779b97f4a7c15ull * (shards * 64 + mix * 8 + 1));
  gcfg.requests = requests_per_shard * shards;
  gcfg.rate_rps = 200'000.0 * shards;
  gcfg.read_fraction = kMixes[mix].read_fraction;
  gcfg.txn_fraction = kMixes[mix].txn_fraction;
  gcfg.rmw_fraction = kMixes[mix].rmw_fraction;
  gcfg.keys.dist = kMixes[mix].dist;
  gcfg.keys.keys = 64 * shards;  // spread the key set across every shard
  gcfg.keys.zipf_s = 1.0;
  return gcfg;
}

// OCC multi-key goodput must strictly beat the baseline at every shard
// count >= 4 on both mixes; every run is serializable and convergent.
TEST(OccVsLegacy, OccBeatsTheBaselineFromFourShards) {
  for (std::size_t mix = 0; mix < std::size(kMixes); ++mix) {
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      const auto goodput = [&](shard::TxnMode mode) {
        ServiceRun run(16, {}, txn_store(shards, mode));
        run.drive(txn_plan(shards, mix, 300));
        EXPECT_TRUE(run.report.serializable())
            << kMixes[mix].name << " " << shards << " shards "
            << shard::txn_mode_name(mode);
        EXPECT_TRUE(run.store.replicas_converged())
            << kMixes[mix].name << " " << shards << " shards "
            << shard::txn_mode_name(mode);
        return multikey_goodput_rps(run.report);
      };
      const double occ = goodput(shard::TxnMode::kOcc);
      const double legacy = goodput(shard::TxnMode::kLegacy);
      std::cout << kMixes[mix].name << ", " << shards
                << " shard(s): multi-key goodput OCC "
                << static_cast<std::uint64_t>(occ) << " vs legacy "
                << static_cast<std::uint64_t>(legacy) << " req/s\n";
      if (shards >= 4) {
        EXPECT_GT(occ, legacy) << kMixes[mix].name << " mix, " << shards
                               << " shards";
      }
    }
  }
}

// The same grid over a lossy fiber (fault seed 7; shards 1 and 8, 150
// req/shard) checks correctness, not capacity: a lossy fiber stretches the
// OCC exposure window. GWC order is audited on every run, and OCC must
// still commit.
TEST(OccVsLegacy, BothModesStayCorrectOverALossyFiber) {
  for (std::size_t mix = 0; mix < std::size(kMixes); ++mix) {
    for (const std::uint32_t shards : {1u, 8u}) {
      for (const shard::TxnMode mode :
           {shard::TxnMode::kOcc, shard::TxnMode::kLegacy}) {
        GwcAudit audit;
        dsm::DsmConfig cfg;
        cfg.faults = soak::drop_partition_attack(7);
        cfg.recorder = &audit.recorder;
        ServiceRun run(16, cfg, txn_store(shards, mode));
        run.drive(txn_plan(shards, mix, 150));
        const std::string where = std::string(kMixes[mix].name) + " " +
                                  std::to_string(shards) + " shards " +
                                  std::string(shard::txn_mode_name(mode));
        EXPECT_TRUE(run.report.serializable()) << where;
        EXPECT_TRUE(run.store.replicas_converged()) << where;
        EXPECT_TRUE(audit.checker.ok()) << where << ": "
                                        << audit.checker.report();
        std::uint64_t commits = 0;
        for (const auto& s : run.report.shards) commits += s.txn_commits;
        if (mode == shard::TxnMode::kOcc) {
          EXPECT_GT(commits, 0u) << where;
        }
        std::cout << where << ": " << audit.checker.writes_checked()
                  << " GWC-checked writes, " << commits << " OCC commits\n";
      }
    }
  }
}

}  // namespace
}  // namespace optsync
