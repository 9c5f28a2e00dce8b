// Lease tier fault soak (soak label): the leased read-replica cache runs a
// read-heavy zipf mix over partial replication — four server nodes, four
// client nodes — while the fiber drops, duplicates, and partitions every
// message class, INCLUDING the lease RPCs and the forwarded client
// mutations. For 20+ fault seeds, every run must prove:
//
//   * bounded staleness: the StaleReadAuditor (an independent witness fed
//     only invalidation deliveries and lease-served reads) observes zero
//     serves of a superseded epoch and zero serves past TTL;
//   * GWC (invariant 1): trace::GwcChecker audits every applied write of
//     every shard group into a gapless, identical total order — the lease
//     tier rides the flush path and must not perturb it;
//   * serializability + convergence: per-shard ledgers stay exact and all
//     member replicas agree after quiesce;
//   * closed accounting: every request completes (forwarded mutations
//     survive the faults via the reliable channel's retransmission);
//   * the tier was exercised: across the suite, lease hits, grants, and
//     invalidations are all nonzero (a soak that never leased proves
//     nothing).
//
// Seeds 1400+ keep these fault schedules disjoint from the other soaks.
#include <gtest/gtest.h>

#include <iostream>
#include <string>

#include "shard/lease.hpp"
#include "soak_support.hpp"

namespace optsync {
namespace {

using soak::GwcAudit;
using soak::ServiceRun;

faults::FaultPlan lease_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.08, "lock")
      .drop(0.08, "data")
      .drop(0.08, "lease")  // grants, requests, update-invalidations
      .drop(0.08, "svc")    // forwarded client mutations + acks
      .drop(0.08, "read")   // linearizable remote reads
      .duplicate(0.04);
  const auto a = static_cast<net::NodeId>(seed % 8);
  const auto b = static_cast<net::NodeId>((seed / 8 + 1 + a) % 8);
  if (a != b) plan.partition_link(a, b, 20'000, 220'000);
  return plan;
}

// Aggregated across the whole suite so the exercised-tier assertions can
// live in one place (any single seed may legitimately see few leases).
struct SuiteTotals {
  std::uint64_t hits = 0;
  std::uint64_t grants = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t audited_serves = 0;
};
SuiteTotals g_totals;

class LeaseFaultSoak : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Runs once after the whole seed sweep: the soak must actually have
  // exercised every leg of the tier — hits, grants, update-invalidations,
  // and auditor-witnessed serves (a soak that never leased proves nothing).
  static void TearDownTestSuite() {
    EXPECT_GT(g_totals.hits, 0u);
    EXPECT_GT(g_totals.grants, 0u);
    EXPECT_GT(g_totals.invalidations, 0u);
    EXPECT_GT(g_totals.audited_serves, 0u);
  }
};

TEST_P(LeaseFaultSoak, StalenessBoundHoldsUnderDropAndPartition) {
  const std::uint64_t seed = GetParam();
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = lease_attack(seed);
  cfg.recorder = &audit.recorder;
  shard::ShardedStoreConfig scfg;
  scfg.shards = 4;
  scfg.slots_per_shard = 16;
  scfg.lease.server_nodes = 4;
  scfg.lease.enabled = true;
  // Short TTL relative to the run so expiry paths fire under faults too.
  scfg.lease.ttl_ns = 400'000;
  ServiceRun run(8, cfg, scfg);
  ASSERT_TRUE(run.sys.reliable_transport());

  // Read-heavy and skewed: hot stripes are leased by every client and
  // written often enough that update-invalidations race the reads they
  // chase. A slice of linearizable reads keeps the bypass path honest.
  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 260;
  gcfg.rate_rps = 80'000.0;
  gcfg.read_fraction = 0.75;
  gcfg.txn_fraction = 0.10;
  gcfg.rmw_fraction = 0.05;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 24;
  gcfg.keys.zipf_s = 1.0;
  gcfg.read_level = shard::ConsistencyLevel::kLeased;
  run.drive(gcfg);

  const stats::ServiceReport& report = run.report;
  EXPECT_EQ(report.completed(), gcfg.requests);
  EXPECT_EQ(report.issued(), report.completed()) << "seed " << seed;

  const auto& auditor = run.store.leases()->auditor();
  EXPECT_TRUE(auditor.ok()) << "seed " << seed << ": " << auditor.report();
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
  for (shard::ShardId s = 0; s < scfg.shards; ++s) {
    EXPECT_EQ(run.store.version(s),
              static_cast<dsm::Word>(run.store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
    const auto& c = run.store.leases()->counters(s);
    g_totals.hits += c.hits;
    g_totals.grants += c.grants;
    g_totals.invalidations += c.invalidations;
  }
  g_totals.audited_serves += auditor.checks();
  EXPECT_TRUE(run.store.replicas_converged()) << "seed " << seed;
  EXPECT_GT(report.faults.drops_injected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, LeaseFaultSoak,
                         ::testing::Range<std::uint64_t>(1400, 1422));

// --- read-heavy speedup over sixteen nodes --------------------------------
// Sixteen shards whose groups span only nodes [0, 4); the other twelve
// nodes are pure clients. Under a 95/5 read/write Zipfian mix every client
// read in the leases-off baseline is a round trip into one of the four
// server nodes, whose outbound links are the capacity ceiling. The lease
// tier turns repeat reads into zero-message local serves.

/// Seed of the read-heavy plan (seed 42 ^ 0x1ea5ed); the fault soak below
/// XORs each fault seed in above it.
constexpr std::uint64_t kReadHeavySeed = 42 ^ 0x1ea5edull;

shard::ShardedStoreConfig read_heavy_store(bool leases) {
  shard::ShardedStoreConfig scfg;
  scfg.shards = 16;
  scfg.lease.server_nodes = 4;
  scfg.lease.enabled = leases;
  return scfg;
}

load::GeneratorConfig read_heavy_plan(std::uint64_t seed) {
  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 400 * 16;
  // Well past the ~6M RPC/s the four server nodes' serializers sustain
  // (4 x 1/650ns): the leases-off baseline must queue on the fan-in
  // ceiling for the comparison to measure the tier, not the load.
  gcfg.rate_rps = 1'200'000.0 * 16;
  gcfg.keys.dist = load::KeyDist::kZipfian;
  gcfg.keys.keys = 1024;
  gcfg.read_fraction = 0.95;
  gcfg.txn_fraction = 0.0;
  gcfg.read_level = shard::ConsistencyLevel::kLeased;
  return gcfg;
}

/// Every read-heavy run must stay serializable, convergent and clean
/// under the stale-read auditor.
void expect_correct(const ServiceRun& run, const std::string& what) {
  EXPECT_TRUE(run.report.serializable()) << what;
  EXPECT_TRUE(run.store.replicas_converged()) << what;
  const auto& auditor = run.store.leases()->auditor();
  EXPECT_TRUE(auditor.ok()) << what << ": " << auditor.report();
}

// The same seed with leases on must deliver at least 2x the leases-off
// goodput — the number the tier exists to produce.
TEST(LeaseReadHeavy, LeasesAtLeastDoubleGoodput) {
  ServiceRun off(16, {}, read_heavy_store(false));
  off.drive(read_heavy_plan(kReadHeavySeed));
  ServiceRun on(16, {}, read_heavy_store(true));
  on.drive(read_heavy_plan(kReadHeavySeed));
  expect_correct(off, "leases off");
  expect_correct(on, "leases on");
  ASSERT_GT(off.report.goodput_rps(), 0.0);
  const double speedup = on.report.goodput_rps() / off.report.goodput_rps();
  std::cout << "leases off "
            << static_cast<std::uint64_t>(off.report.goodput_rps())
            << " req/s, on "
            << static_cast<std::uint64_t>(on.report.goodput_rps())
            << " req/s: read-heavy speedup " << speedup << "x\n";
  EXPECT_GE(speedup, 2.0);
}

// The speedup may not cost the staleness bound: the leased configuration
// re-runs over three fault seeds dropping and duplicating every message
// class the tier uses (lock, data, lease RPCs, forwarded mutations), with
// the GWC checker streaming and the stale-read auditor required clean.
TEST(LeaseReadHeavy, LeasedRunSurvivesDropsAndDuplicates) {
  for (std::uint64_t fs = 1; fs <= 3; ++fs) {
    GwcAudit audit;
    dsm::DsmConfig cfg;
    cfg.faults = faults::FaultPlan(fs);
    cfg.faults.drop(0.08, "lock").drop(0.08, "data").drop(0.08, "lease")
        .drop(0.08, "svc").duplicate(0.04);
    cfg.recorder = &audit.recorder;
    ServiceRun run(16, cfg, read_heavy_store(true));
    run.drive(read_heavy_plan(kReadHeavySeed ^ (fs << 8)));
    expect_correct(run, "fault seed " + std::to_string(fs));
    EXPECT_TRUE(audit.checker.ok())
        << "fault seed " << fs << ": " << audit.checker.report();
    std::cout << "fault seed " << fs << ": "
              << audit.checker.writes_checked() << " GWC-checked writes\n";
  }
}

}  // namespace
}  // namespace optsync
