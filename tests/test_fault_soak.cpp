// Randomized fault soak: the substrate's correctness invariants (GWC total
// order, optimistic-mutex serializability, the Fig. 7 rollback interaction)
// must survive seeded message loss, duplication, and reorder — the reliable
// channel is the mechanism under test, the existing property suites are the
// oracle. Seed ranges are disjoint per suite; together they cover well over
// 100 distinct fault schedules. Every parameterized run additionally streams
// its flight-recorder events through the GWC invariant checker, which proves
// the total-order and no-speculative-visibility properties independently of
// each suite's own assertions.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "faults/fault_plan.hpp"
#include "simkern/random.hpp"
#include "soak_support.hpp"
#include "workloads/counter.hpp"
#include "workloads/scenario_fig7.hpp"

namespace optsync {
namespace {

using soak::GwcAudit;

/// The standard attack: 10% loss on lock and data traffic (request, grant,
/// and update messages all travel under these tags), 5% duplication and 10%
/// extra-delay reorder on everything including acks.
faults::FaultPlan standard_attack(std::uint64_t seed) {
  faults::FaultPlan plan(seed);
  plan.drop(0.10, "lock")
      .drop(0.10, "data")
      .duplicate(0.05)
      .delay(0.10, 3'000);
  return plan;
}

class GwcFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

// Mirror of GwcTotalOrder.AllMembersApplySameSequence, run over a lossy
// fiber: every member still applies the identical sequenced write stream.
TEST_P(GwcFaultSoak, TotalOrderSurvivesLossDupAndReorder) {
  const std::uint64_t seed = GetParam();
  sim::Scheduler sched;
  const net::Ring topo(6);
  GwcAudit audit;
  dsm::DsmConfig cfg;
  cfg.faults = standard_attack(seed);
  cfg.recorder = &audit.recorder;
  dsm::DsmSystem sys(sched, topo, cfg);
  ASSERT_TRUE(sys.reliable_transport());  // faults imply the reliable layer

  std::vector<net::NodeId> members;
  for (net::NodeId i = 0; i < 6; ++i) members.push_back(i);
  sim::Rng rng(seed * 2 + 1);
  const auto g = sys.create_group(members, static_cast<net::NodeId>(
                                               rng.below(6)));
  std::vector<dsm::VarId> vars;
  for (int v = 0; v < 3; ++v) {
    std::string name = "v";
    name += std::to_string(v);
    vars.push_back(sys.define_data(std::move(name), g));
  }
  for (const net::NodeId m : members) sys.node(m).enable_applied_log(true);

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kWritesPer = 6;
  for (std::size_t w = 0; w < kWriters; ++w) {
    const auto writer = static_cast<net::NodeId>(rng.below(6));
    for (std::size_t k = 0; k < kWritesPer; ++k) {
      const dsm::VarId var = vars[rng.below(vars.size())];
      const auto value = static_cast<dsm::Word>(rng.below(1'000'000));
      sched.at(rng.below(50'000), [&sys, writer, var, value] {
        sys.node(writer).write(var, value);
      });
    }
  }
  sched.run();

  // Reliability must have fully recovered: nothing abandoned, nothing stuck.
  EXPECT_EQ(sys.reliable().stats().expirations, 0u);
  EXPECT_EQ(sys.reliable().in_flight(), 0u);

  const auto& reference = sys.node(members[0]).applied_log(g);
  ASSERT_EQ(reference.size(), kWriters * kWritesPer);
  for (const net::NodeId m : members) {
    const auto& log = sys.node(m).applied_log(g);
    ASSERT_EQ(log.size(), reference.size()) << "node " << m << " seed " << seed;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seq, reference[i].seq);
      EXPECT_EQ(log[i].var, reference[i].var);
      EXPECT_EQ(log[i].value, reference[i].value);
      EXPECT_EQ(log[i].origin, reference[i].origin);
    }
  }
  for (const dsm::VarId v : vars) {
    const dsm::Word expect = sys.node(members[0]).read(v);
    for (const net::NodeId m : members) EXPECT_EQ(sys.node(m).read(v), expect);
  }
  EXPECT_TRUE(audit.checker.ok()) << "seed " << seed << ": "
                                  << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GwcFaultSoak,
                         ::testing::Range<std::uint64_t>(1000, 1060));

class CounterFaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

// Mirror of the optimistic-properties invariant: every increment applied
// exactly once (mutual exclusion + serializability), now with speculation,
// rollback, and lock hand-off all running over the lossy fiber.
TEST_P(CounterFaultSoak, EveryIncrementAppliedExactlyOnce) {
  const std::uint64_t seed = GetParam();
  const net::MeshTorus2D topo(2, 2);
  workloads::CounterParams p;
  p.increments_per_node = 6;
  p.think_mean_ns = 20'000;  // contended: speculation and queuing both occur
  p.seed = seed;
  p.dsm.faults = standard_attack(seed);
  GwcAudit audit;
  p.dsm.recorder = &audit.recorder;
  const auto method = seed % 2 == 0 ? workloads::CounterMethod::kOptimisticGwc
                                    : workloads::CounterMethod::kRegularGwc;
  const auto res = workloads::run_counter(method, p, topo);
  EXPECT_EQ(res.final_count, res.expected_count) << "seed " << seed;
  EXPECT_EQ(res.faults.expirations, 0u);
  EXPECT_TRUE(audit.checker.ok()) << "seed " << seed << ": "
                                  << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterFaultSoak,
                         ::testing::Range<std::uint64_t>(2000, 2040));

class Fig7FaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

// The paper's most complex rollback interaction, replayed under loss: the
// end state must still equal both updates applied in lock order, whatever
// the retransmission timing did to the interleaving.
TEST_P(Fig7FaultSoak, RollbackInteractionStaysCorrect) {
  workloads::Fig7Params p;
  p.dsm.faults = standard_attack(GetParam());
  GwcAudit audit;
  p.dsm.recorder = &audit.recorder;
  const auto res = workloads::run_scenario_fig7(p);
  EXPECT_EQ(res.final_a, res.expected_a) << "seed " << GetParam();
  EXPECT_TRUE(audit.checker.ok()) << "seed " << GetParam() << ": "
                                  << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig7FaultSoak,
                         ::testing::Range<std::uint64_t>(3000, 3010));

class CoalescedFaultSoak
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t>> {};

// The counter soak again, now with root write coalescing (and, at batch > 1,
// piggybacked acks) layered on top of the lossy fiber: frames holding many
// sequenced writes — including grants riding with the releaser's final
// updates — are dropped, duplicated, and reordered, and every member must
// still apply the root's exact sequence.
TEST_P(CoalescedFaultSoak, CounterStaysExactAtEveryBatchSize) {
  const auto [batch, seed] = GetParam();
  const net::MeshTorus2D topo(2, 2);
  workloads::CounterParams p;
  p.increments_per_node = 6;
  p.think_mean_ns = 20'000;
  p.seed = seed;
  p.dsm.faults = standard_attack(seed);
  p.dsm.coalesce_max_writes = batch;
  if (batch > 1) p.dsm.reliable.ack_delay_ns = 4'000;
  GwcAudit audit;
  p.dsm.recorder = &audit.recorder;
  const auto method = seed % 2 == 0 ? workloads::CounterMethod::kOptimisticGwc
                                    : workloads::CounterMethod::kRegularGwc;
  const auto res = workloads::run_counter(method, p, topo);
  EXPECT_EQ(res.final_count, res.expected_count)
      << "batch " << batch << " seed " << seed;
  EXPECT_EQ(res.faults.expirations, 0u);
  EXPECT_TRUE(audit.checker.ok()) << "batch " << batch << " seed " << seed
                                  << ": " << audit.checker.report();
  EXPECT_GT(audit.checker.writes_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BatchBySeed, CoalescedFaultSoak,
    ::testing::Combine(::testing::Values(1u, 4u, 64u),
                       ::testing::Range<std::uint64_t>(5000, 5012)));

TEST(FaultSoak, PartitionWindowHealsWithoutDataLoss) {
  // A tree edge goes dark for 100 us at the start of the run: every message
  // across it in the window is destroyed, yet retransmission after the heal
  // delivers everything and the counter stays exact.
  const net::MeshTorus2D topo(2, 2);
  workloads::CounterParams p;
  p.increments_per_node = 5;
  p.think_mean_ns = 30'000;
  p.dsm.faults = faults::FaultPlan(1);
  p.dsm.faults.partition_link(0, 1, 0, 100'000);
  const auto res =
      workloads::run_counter(workloads::CounterMethod::kOptimisticGwc, p, topo);
  EXPECT_EQ(res.final_count, res.expected_count);
  EXPECT_GT(res.faults.drops_injected, 0u);  // the partition actually bit
  EXPECT_GT(res.faults.retransmits, 0u);
  EXPECT_EQ(res.faults.expirations, 0u);
}

TEST(FaultSoak, NodePauseDelaysButPreservesCorrectness) {
  // Node 2 stalls for 80 us mid-run (GC-style): its traffic is held, not
  // lost; the reliable layer reorders the held messages back into FIFO.
  const net::MeshTorus2D topo(2, 2);
  workloads::CounterParams p;
  p.increments_per_node = 5;
  p.think_mean_ns = 30'000;
  p.dsm.faults = faults::FaultPlan(2);
  p.dsm.faults.pause_node(2, 40'000, 120'000);
  const auto res =
      workloads::run_counter(workloads::CounterMethod::kOptimisticGwc, p, topo);
  EXPECT_EQ(res.final_count, res.expected_count);
  EXPECT_GT(res.faults.delays_injected, 0u);
  EXPECT_EQ(res.faults.expirations, 0u);
}

TEST(FaultSoak, FaultScheduleReplaysDeterministically) {
  // A (plan, seed) pair is a value: the same configured run twice produces
  // bit-identical results — the property every soak seed above relies on.
  auto run = [] {
    const net::MeshTorus2D topo(2, 2);
    workloads::CounterParams p;
    p.increments_per_node = 6;
    p.dsm.faults = standard_attack(4242);
    return workloads::run_counter(workloads::CounterMethod::kOptimisticGwc, p,
                                  topo);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.final_count, b.final_count);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.faults.drops_injected, b.faults.drops_injected);
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
}

TEST(FaultSoak, FaultCountersSurfaceInResult) {
  const net::MeshTorus2D topo(2, 2);
  workloads::CounterParams p;
  p.increments_per_node = 8;
  p.dsm.faults = faults::FaultPlan(7);
  p.dsm.faults.drop(0.25, "data").drop(0.25, "lock");
  const auto res =
      workloads::run_counter(workloads::CounterMethod::kRegularGwc, p, topo);
  EXPECT_EQ(res.final_count, res.expected_count);
  EXPECT_GT(res.faults.drops_injected, 0u);
  EXPECT_GT(res.faults.retransmits, 0u);
  EXPECT_GT(res.faults.acks_sent, 0u);
  EXPECT_FALSE(res.faults.quiet());
}

TEST(FaultSoak, ExplicitReliableWithoutFaultsIsTransparent) {
  // Turning the reliable layer on over a loss-free fiber must not change
  // the workload's outcome — only add ack traffic.
  const net::MeshTorus2D topo(2, 2);
  workloads::CounterParams base;
  base.increments_per_node = 6;
  const auto plain = workloads::run_counter(
      workloads::CounterMethod::kOptimisticGwc, base, topo);
  workloads::CounterParams rel = base;
  rel.dsm.reliable.enabled = true;
  const auto reliable = workloads::run_counter(
      workloads::CounterMethod::kOptimisticGwc, rel, topo);
  EXPECT_EQ(reliable.final_count, reliable.expected_count);
  EXPECT_EQ(reliable.final_count, plain.final_count);
  EXPECT_EQ(reliable.faults.retransmits, 0u);
  EXPECT_GT(reliable.faults.acks_sent, 0u);
  EXPECT_GT(reliable.messages, plain.messages);  // the acks
}

TEST(FaultSoak, DelayedAcksWithoutFaultsAreTransparent) {
  // The same run with delayed/piggybacked acks, on the small torus and a
  // 4x4 one: every path-sized first timeout includes the ack window, so a
  // loss-free fiber still sees zero retransmissions at any window length.
  for (const unsigned side : {2u, 4u}) {
    const net::MeshTorus2D topo(side, side);
    workloads::CounterParams base;
    base.increments_per_node = 6;
    const auto plain = workloads::run_counter(
        workloads::CounterMethod::kOptimisticGwc, base, topo);
    for (const sim::Duration delay : {200u, 1'000u, 5'000u}) {
      workloads::CounterParams rel = base;
      rel.dsm.reliable.enabled = true;
      rel.dsm.reliable.ack_delay_ns = delay;
      const auto reliable = workloads::run_counter(
          workloads::CounterMethod::kOptimisticGwc, rel, topo);
      EXPECT_EQ(reliable.final_count, reliable.expected_count)
          << side << "x" << side << " ack delay " << delay;
      EXPECT_EQ(reliable.final_count, plain.final_count);
      EXPECT_EQ(reliable.faults.retransmits, 0u)
          << side << "x" << side << " ack delay " << delay;
      EXPECT_GT(reliable.faults.acks_sent + reliable.faults.acks_piggybacked,
                0u);
    }
  }
}

}  // namespace
}  // namespace optsync
