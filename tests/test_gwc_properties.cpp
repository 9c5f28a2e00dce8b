// Property tests for the substrate's central guarantee: group write
// consistency. "Group write consistency guarantees the order of writes
// within each sharing group whether the writes are from one source or many."
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "simkern/random.hpp"

namespace optsync::dsm {
namespace {

struct GwcCase {
  net::TopologyKind kind;
  std::size_t nodes;
  std::size_t writers;
  std::size_t writes_per_writer;
  std::uint64_t seed;
};

class GwcTotalOrder : public ::testing::TestWithParam<GwcCase> {};

TEST_P(GwcTotalOrder, AllMembersApplySameSequence) {
  const auto& c = GetParam();
  sim::Scheduler sched;
  const auto topo = net::make_topology(c.kind, c.nodes);
  DsmSystem sys(sched, *topo, DsmConfig{});

  std::vector<NodeId> members;
  for (NodeId i = 0; i < c.nodes; ++i) members.push_back(i);
  sim::Rng rng(c.seed);
  const NodeId root = static_cast<NodeId>(rng.below(c.nodes));
  const auto g = sys.create_group(members, root);

  std::vector<VarId> vars;
  for (int v = 0; v < 4; ++v) {
    std::string name = "v";
    name += std::to_string(v);
    vars.push_back(sys.define_data(std::move(name), g));
  }
  for (const NodeId m : members) sys.node(m).enable_applied_log(true);

  // Writers issue writes at random times to random variables.
  for (std::size_t w = 0; w < c.writers; ++w) {
    const NodeId writer = static_cast<NodeId>(rng.below(c.nodes));
    for (std::size_t k = 0; k < c.writes_per_writer; ++k) {
      const VarId var = vars[rng.below(vars.size())];
      const Word value = static_cast<Word>(rng.below(1'000'000));
      const sim::Time at = rng.below(50'000);
      sched.at(at, [&sys, writer, var, value] {
        sys.node(writer).write(var, value);
      });
    }
  }
  sched.run();

  // Every member (except for dropped self-echoes, which data vars don't
  // have) must have applied the identical (seq, var, value, origin) stream.
  const auto& reference = sys.node(members[0]).applied_log(g);
  EXPECT_EQ(reference.size(), c.writers * c.writes_per_writer);
  for (const NodeId m : members) {
    const auto& log = sys.node(m).applied_log(g);
    ASSERT_EQ(log.size(), reference.size()) << "node " << m;
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seq, reference[i].seq);
      EXPECT_EQ(log[i].var, reference[i].var);
      EXPECT_EQ(log[i].value, reference[i].value);
      EXPECT_EQ(log[i].origin, reference[i].origin);
    }
  }

  // Final memory convergence: all members agree on every variable.
  for (const VarId v : vars) {
    const Word expect = sys.node(members[0]).read(v);
    for (const NodeId m : members) {
      EXPECT_EQ(sys.node(m).read(v), expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSchedules, GwcTotalOrder,
    ::testing::Values(
        GwcCase{net::TopologyKind::kFullyConnected, 3, 2, 5, 1},
        GwcCase{net::TopologyKind::kFullyConnected, 8, 8, 10, 2},
        GwcCase{net::TopologyKind::kRing, 7, 4, 8, 3},
        GwcCase{net::TopologyKind::kRing, 16, 8, 12, 4},
        GwcCase{net::TopologyKind::kMeshTorus, 16, 16, 6, 5},
        GwcCase{net::TopologyKind::kMeshTorus, 36, 12, 10, 6},
        GwcCase{net::TopologyKind::kHypercube, 16, 10, 10, 7},
        GwcCase{net::TopologyKind::kMeshTorus, 64, 20, 5, 8}));

TEST(GwcOrdering, SameSourceWritesStayInProgramOrder) {
  // FIFO from one writer: later writes never overtake earlier ones.
  sim::Scheduler sched;
  const net::MeshTorus2D topo(4, 4);
  DsmSystem sys(sched, topo, DsmConfig{});
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 16; ++i) members.push_back(i);
  const auto g = sys.create_group(members, 0);
  const auto v = sys.define_data("v", g);
  sys.node(9).enable_applied_log(true);

  for (int i = 1; i <= 50; ++i) {
    sys.node(5).write(v, i);
  }
  sched.run();
  const auto& log = sys.node(9).applied_log(g);
  ASSERT_EQ(log.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)].value, i + 1);
  }
}

TEST(GwcOrdering, WriterNeverBlocks) {
  // Eagersharing: issuing 100 writes consumes zero simulated time at the
  // writer ("a processor can immediately perform the next instruction,
  // even if it is another shared write").
  sim::Scheduler sched;
  const net::MeshTorus2D topo(4, 4);
  DsmSystem sys(sched, topo, DsmConfig{});
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 16; ++i) members.push_back(i);
  const auto g = sys.create_group(members, 0);
  const auto v = sys.define_data("v", g);

  sched.at(1000, [&] {
    for (int i = 0; i < 100; ++i) sys.node(3).write(v, i);
    EXPECT_EQ(sched.now(), 1000u);
  });
  sched.run();
}

class GwcJitterTotalOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GwcJitterTotalOrder, HoldsUnderRootCongestion) {
  // Fault/congestion injection: random root processing delays must not be
  // able to reorder sequenced updates (the root dispatches serially).
  sim::Scheduler sched;
  const net::MeshTorus2D topo(4, 4);
  DsmConfig cfg;
  cfg.root_jitter_ns = 5'000;
  cfg.jitter_seed = GetParam();
  DsmSystem sys(sched, topo, cfg);
  std::vector<NodeId> members;
  for (NodeId i = 0; i < 16; ++i) members.push_back(i);
  const auto g = sys.create_group(members, 0);
  const auto v1 = sys.define_data("v1", g);
  const auto v2 = sys.define_data("v2", g);
  for (const NodeId m : members) sys.node(m).enable_applied_log(true);

  sim::Rng rng(GetParam() * 3 + 1);
  for (int i = 0; i < 60; ++i) {
    const NodeId w = static_cast<NodeId>(rng.below(16));
    const VarId var = rng.chance(0.5) ? v1 : v2;
    const Word value = static_cast<Word>(i);
    sched.at(rng.below(20'000), [&sys, w, var, value] {
      sys.node(w).write(var, value);
    });
  }
  sched.run();

  const auto& reference = sys.node(0).applied_log(g);
  ASSERT_EQ(reference.size(), 60u);
  for (const NodeId m : members) {
    const auto& log = sys.node(m).applied_log(g);
    ASSERT_EQ(log.size(), reference.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seq, reference[i].seq);
      EXPECT_EQ(log[i].value, reference[i].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GwcJitterTotalOrder,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(GwcOrdering, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    sim::Scheduler sched;
    const net::MeshTorus2D topo(3, 3);
    DsmSystem sys(sched, topo, DsmConfig{});
    std::vector<NodeId> members;
    for (NodeId i = 0; i < 9; ++i) members.push_back(i);
    const auto g = sys.create_group(members, 4);
    const auto v = sys.define_data("v", g);
    sim::Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const NodeId w = static_cast<NodeId>(rng.below(9));
      const Word val = static_cast<Word>(rng.below(1000));
      sched.at(rng.below(10'000), [&sys, w, v, val] {
        sys.node(w).write(v, val);
      });
    }
    sched.run();
    return std::pair{sys.node(8).read(v), sched.now()};
  };
  const auto a = run_once(77);
  const auto b = run_once(77);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run_once(78);
  // Different seed very likely produces a different end state or end time.
  EXPECT_TRUE(c.first != a.first || c.second != a.second);
}

}  // namespace
}  // namespace optsync::dsm
