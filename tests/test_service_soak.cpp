// Service-layer soak: the full sharded service — open-loop generator,
// per-shard lock protocols, cross-shard transactions — must keep every
// correctness invariant on every shard: the applied write stream of each
// shard's group is a gapless total order with no speculative visibility
// (GWC, invariant 1 — proved by the streaming trace::GwcChecker), each
// shard's version word matches its committed-write count (mutual exclusion
// / serializability, invariant 2), and all replicas converge after quiesce.
//
// The fault soak replays a lossy, partitioned fiber (seeds 900+ keep its
// schedules disjoint from the substrate soak suites). The scaling grid and
// the verified-streams run are fault-free, at saturating load on sixteen
// nodes: sharding must lift the single-root sequencing ceiling, and every
// member of every shard must apply the same canonical write stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <iterator>
#include <map>
#include <vector>

#include "soak_support.hpp"

namespace optsync {
namespace {

/// Seed of the fault-free sixteen-node runs; each run XORs in its own
/// constant, so every figure EXPERIMENTS.md records for them replays.
constexpr std::uint64_t kSeed = 42;

using soak::ServiceRun;

/// The sixteen-node runs' mix: 400 requests per shard over 1024 keys, 25%
/// reads, 5% transactions, at a fixed offered rate PER SHARD (so total
/// offered load grows with the shard count).
load::GeneratorConfig saturating_plan(std::uint64_t seed,
                                      std::uint32_t shards,
                                      double per_shard_rate,
                                      load::KeyDist dist) {
  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 400 * shards;
  gcfg.rate_rps = per_shard_rate * shards;
  gcfg.keys.dist = dist;
  gcfg.keys.keys = 1024;
  gcfg.read_fraction = 0.25;
  gcfg.txn_fraction = 0.05;
  return gcfg;
}

class ServiceFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceFaultSoak, EveryShardSurvivesDropAndPartition) {
  const std::uint64_t seed = GetParam();
  soak::GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = soak::drop_partition_attack(seed);
  cfg.recorder = &audit.recorder;
  ServiceRun run(8, cfg, soak::store_with_shards(4));
  ASSERT_TRUE(run.sys.reliable_transport());

  load::GeneratorConfig gcfg;
  gcfg.seed = seed;
  gcfg.requests = 220;
  gcfg.rate_rps = 60'000.0;
  gcfg.txn_fraction = 0.10;
  run.drive(gcfg);

  EXPECT_EQ(run.report.completed(), gcfg.requests);
  // Invariant 2, per shard: version word == committed writes.
  for (shard::ShardId s = 0; s < run.store.shards(); ++s) {
    EXPECT_EQ(run.store.version(s),
              static_cast<dsm::Word>(run.store.committed_writes(s)))
        << "shard " << s << " seed " << seed;
  }
  EXPECT_TRUE(run.store.replicas_converged()) << "seed " << seed;
  // Invariant 1, per shard group: the checker audited every applied write
  // across all four groups and found a gapless, identical total order.
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
  // The attack actually did something.
  EXPECT_GT(run.report.faults.drops_injected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(DropPartitionSeeds, ServiceFaultSoak,
                         ::testing::Range<std::uint64_t>(900, 922));

/// 16-shard peak goodput of the grid below (seed 42, 400 req/shard; see
/// EXPERIMENTS.md "Service scaling"). Goodput is simulated time,
/// deterministic per seed: a drop past 10% is a protocol or service
/// regression, never runner noise.
constexpr double kSixteenShardPeakRps = 10'683'635.0;

// Single-root sequencing is the GWC scaling bottleneck: every write of a
// group funnels through one root. For each shard count the grid sweeps an
// open-loop offered load up to 6.4M req/s per shard. One shard serves
// about 3.2M req/s of this mix, so the top levels saturate every shard
// count (each peak stays below its top offered rate): each peak reads the
// service's capacity, not the offered rate, and it must rise strictly with
// the shard count.
TEST(ServiceScaling, PeakGoodputRisesWithShardCount) {
  const double rate_levels[] = {25'000,  50'000,    100'000,  200'000,
                                400'000, 1'600'000, 6'400'000};
  double prev_peak = 0.0;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u, 16u}) {
    double peak = 0.0;
    for (std::size_t li = 0; li < std::size(rate_levels); ++li) {
      const std::uint64_t seed =
          kSeed ^ (0x9e3779b97f4a7c15ull * (shards * 16 + li + 1));
      ServiceRun run(16, {}, soak::store_with_shards(shards));
      run.drive(saturating_plan(seed, shards, rate_levels[li],
                                load::KeyDist::kUniform));
      EXPECT_TRUE(run.report.serializable())
          << shards << " shards at " << rate_levels[li] << " req/s/shard";
      EXPECT_TRUE(run.store.replicas_converged())
          << shards << " shards at " << rate_levels[li] << " req/s/shard";
      peak = std::max(peak, run.report.goodput_rps());
    }
    std::cout << "peak goodput at " << shards << " shard(s): "
              << static_cast<std::uint64_t>(peak) << " req/s\n";
    EXPECT_GT(peak, prev_peak) << "peak goodput at " << shards
                               << " shards did not exceed the previous "
                                  "shard count's";
    prev_peak = peak;
  }
  EXPECT_GE(prev_peak, 0.90 * kSixteenShardPeakRps);
}

// One saturated run with the event checker streaming off the flight
// recorder AND every member's applied-write log captured: every replica of
// every shard must apply the same canonical (seq, var, value, origin)
// stream, except for the root echoes of a member's own mutex-data writes,
// which Fig. 6 hardware blocking drops by design.
TEST(ServiceScaling, EveryMemberAppliesTheCanonicalStream) {
  soak::GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.recorder = &audit.recorder;
  ServiceRun run(16, cfg, soak::store_with_shards(4));
  for (dsm::NodeId n = 0; n < static_cast<dsm::NodeId>(run.topo.size());
       ++n) {
    run.sys.node(n).enable_applied_log(true);
  }
  run.drive(saturating_plan(kSeed ^ 0x5ea1edull, 4, 200'000.0,
                            load::KeyDist::kZipfian));
  EXPECT_TRUE(run.report.serializable());
  EXPECT_TRUE(run.store.replicas_converged());
  EXPECT_TRUE(audit.checker.ok()) << audit.checker.report();

  std::uint64_t canonical_writes = 0;
  for (std::uint32_t s = 0; s < run.store.shards(); ++s) {
    const auto g = run.store.group_of(s);
    const auto& members = run.sys.group(g).members();
    // Merge the canonical stream from every member (each write survives on
    // all but at most one replica); a seq seen twice must carry the same
    // (var, value, origin).
    std::map<std::uint64_t, dsm::DsmNode::AppliedUpdate> canon;
    for (const dsm::NodeId m : members) {
      for (const auto& u : run.sys.node(m).applied_log(g)) {
        const auto [it, fresh] = canon.emplace(u.seq, u);
        EXPECT_TRUE(fresh || (it->second.var == u.var &&
                              it->second.value == u.value &&
                              it->second.origin == u.origin))
            << "shard " << s << " seq " << u.seq << " differs on node " << m;
      }
    }
    canonical_writes += canon.size();
    // Member m applied exactly the canonical stream minus the echoes of
    // its own mutex-data writes, in order.
    for (const dsm::NodeId m : members) {
      std::vector<dsm::DsmNode::AppliedUpdate> expected;
      for (const auto& [seq, u] : canon) {
        if (u.origin == m &&
            run.sys.var(u.var).kind == dsm::VarKind::kMutexData) {
          continue;
        }
        expected.push_back(u);
      }
      const auto& log = run.sys.node(m).applied_log(g);
      EXPECT_TRUE(std::equal(
          log.begin(), log.end(), expected.begin(), expected.end(),
          [](const auto& a, const auto& b) {
            return a.seq == b.seq && a.var == b.var && a.value == b.value &&
                   a.origin == b.origin;
          }))
          << "shard " << s << ": node " << m << " applied " << log.size()
          << " writes, the canonical stream minus its echoes has "
          << expected.size();
    }
  }
  std::cout << "GWC checker: " << audit.checker.writes_checked()
            << " writes checked; applied logs equal across "
            << run.topo.size() << " members over " << canonical_writes
            << " canonical sequenced writes\n";
  EXPECT_GT(canonical_writes, 0u);
}

}  // namespace
}  // namespace optsync
