// The benchmark's own tests: metric maths, per-op ratios, and a tiny run of
// every workload through the same code path the benchmark measures.
//
//   cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build/perfbench --target perfbench_tests -j 4
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <string>

#include "dsm/system.hpp"
#include "load/generator.hpp"
#include "metrics.hpp"
#include "net/topology.hpp"
#include "runner.hpp"
#include "shard/client.hpp"
#include "shard/sharded_store.hpp"

namespace perfbench {
namespace {

std::vector<std::int64_t> iota_samples(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1);
  return v;
}

std::map<std::string, double> as_map(const Metrics& m) {
  return {m.begin(), m.end()};
}

// --- metric maths ---------------------------------------------------------

TEST(Percentile, NearestRank) {
  const auto v = iota_samples(100);
  EXPECT_EQ(percentile(v, 0.50), 50);
  EXPECT_EQ(percentile(v, 0.99), 99);
  EXPECT_EQ(percentile(v, 1.0), 100);
  EXPECT_EQ(percentile(v, 0.0), 1);
  // 0.07 * 100 is 7.000000000000001 in binary floating point; the rank is
  // still 7, not 8.
  EXPECT_EQ(percentile(v, 0.07), 7);
}

TEST(TailCut, KeepsRequestedPercentileWithTenBeyond) {
  const auto v = iota_samples(100'000);
  const TailCut cut = tail_cut(v, 0.999);
  EXPECT_EQ(cut.value, 99'900);
  EXPECT_DOUBLE_EQ(cut.quantile, 0.999);
  EXPECT_EQ(cut.beyond, 100u);
  EXPECT_EQ(cut.samples, 100'000u);
}

TEST(TailCut, FallsBackToHighestPercentileWithTenBeyond) {
  const auto v = iota_samples(1000);  // p99.9 would leave one sample beyond
  const TailCut cut = tail_cut(v, 0.999);
  EXPECT_EQ(cut.beyond, kMinTailSamples);
  EXPECT_EQ(cut.value, 990);
  EXPECT_DOUBLE_EQ(cut.quantile, 0.99);
}

TEST(TailCut, ExactlyTenBeyondIsEnough) {
  const auto v = iota_samples(10'000);
  const TailCut cut = tail_cut(v, 0.999);
  EXPECT_EQ(cut.value, 9990);
  EXPECT_EQ(cut.beyond, 10u);
}

TEST(TailCut, NoCutWithTenOrFewerSamples) {
  const TailCut cut = tail_cut(iota_samples(10), 0.99);
  EXPECT_EQ(cut.value, 0);
  EXPECT_EQ(cut.beyond, 0u);
  EXPECT_EQ(cut.samples, 10u);
}

TEST(ZeroWindow, EmptyInputsReportZero) {
  const std::vector<std::int64_t> none;
  EXPECT_EQ(ratio(5.0, 0.0), 0.0);
  EXPECT_EQ(percentile(none, 0.5), 0.0);
  EXPECT_EQ(tail_cut(none, 0.99).value, 0.0);
  EXPECT_EQ(mean(none), 0.0);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(slo_miss_frac(none, 0, 100), 0.0);
}

TEST(SloMissFrac, CountsFailuresAsMisses) {
  // Six issued, four completed (two failed); one completed op is slow.
  const std::vector<std::int64_t> done = {1, 2, 3, 100};
  EXPECT_DOUBLE_EQ(slo_miss_frac(done, 6, 10), 3.0 / 6.0);
  // A latency equal to the limit meets it.
  EXPECT_DOUBLE_EQ(slo_miss_frac({10}, 1, 10), 0.0);
  // Nothing completed: every issued request missed.
  EXPECT_DOUBLE_EQ(slo_miss_frac({}, 4, 10), 1.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// --- per-op ratios --------------------------------------------------------

TEST(LayerMetrics, PerOpRatiosUseTheirBase) {
  RunResult r;
  r.completed = 2000;
  r.counters.reads = 1500;
  r.counters.updates = 500;
  r.counters.messages = 10'000;
  r.counters.retransmits = 50;
  r.counters.acks_sent = 30;
  r.counters.acks_piggybacked = 10;
  r.counters.txn_commits = 90;
  r.counters.txn_aborts = 10;
  r.counters.shard_aborts = 20;
  r.counters.aborts_clobber = 15;
  r.counters.aborts_validation = 5;
  r.counters.lease_hits = 900;
  r.counters.lease_grants = 75;
  r.counters.lease_remote_reads = 25;
  r.counters.lease_invalidations = 250;
  r.counters.sequenced = 600;
  r.counters.frames = 300;
  r.counters.client_redirects = 4;
  const auto m = as_map(layer_metrics(r));
  EXPECT_DOUBLE_EQ(m.at("net.msgs_per_op"), 5.0);
  EXPECT_DOUBLE_EQ(m.at("net.retransmits_per_kmsg"), 5.0);
  EXPECT_DOUBLE_EQ(m.at("net.acks_per_msg"), 0.003);
  EXPECT_DOUBLE_EQ(m.at("net.ack_piggyback_share"), 0.25);
  EXPECT_DOUBLE_EQ(m.at("txn.commit_ratio"), 0.9);
  EXPECT_DOUBLE_EQ(m.at("txn.aborts_per_op"), 0.005);
  EXPECT_DOUBLE_EQ(m.at("txn.abort_clobber_share"), 0.75);
  EXPECT_DOUBLE_EQ(m.at("txn.abort_validation_share"), 0.25);
  EXPECT_DOUBLE_EQ(m.at("shard.lease.hit_rate"), 0.9);
  EXPECT_DOUBLE_EQ(m.at("shard.lease.grants_per_kread"), 50.0);
  EXPECT_DOUBLE_EQ(m.at("shard.lease.invalidations_per_write"), 0.5);
  EXPECT_DOUBLE_EQ(m.at("shard.client_redirects_per_kop"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("dsm.sequenced_per_op"), 0.3);
  EXPECT_DOUBLE_EQ(m.at("dsm.writes_per_frame"), 2.0);
}

TEST(LayerMetrics, IdleLayersReportZero) {
  const RunResult idle;  // nothing completed, every counter zero
  for (const auto& [name, value] : layer_metrics(idle)) {
    EXPECT_TRUE(std::isfinite(value)) << name;
    EXPECT_EQ(value, 0.0) << name;
  }
}

TEST(SimMetrics, GoodputAndFailures) {
  Workload w;
  w.slo_limit_ns = 1000;
  RunResult r;
  r.issued = 5;
  r.completed = 4;
  r.elapsed_ns = 2'000'000;  // 2 ms
  r.samples.all = {100, 200, 300, 5000};
  const auto m = as_map(sim_metrics(w, r));
  EXPECT_DOUBLE_EQ(m.at("goodput_rps"), 2000.0);
  EXPECT_DOUBLE_EQ(m.at("fail_frac"), 0.2);
  EXPECT_DOUBLE_EQ(m.at("slo_miss_frac"), 0.4);  // one failed + one slow
  EXPECT_DOUBLE_EQ(m.at("mean_us"), 1.4);
}

// --- tiny runs of every workload -----------------------------------------

constexpr double kTinyScale = 0.004;

RunSpec tiny(const Workload& w, std::uint64_t seed, Rate rate = Rate::kNominal,
             bool traced = false) {
  RunSpec spec;
  spec.workload = &w;
  spec.seed = seed;
  spec.rate = rate;
  spec.scale = kTinyScale;
  spec.traced = traced;
  return spec;
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string> {
 protected:
  const Workload& workload() const { return *find_workload(GetParam()); }
};

TEST_P(WorkloadSmoke, BothRatesCompleteAndPassEveryGate) {
  for (const Rate rate : {Rate::kNominal, Rate::kOverload}) {
    const RunResult r = run_once(tiny(workload(), 7, rate));
    EXPECT_TRUE(r.gates.ok()) << r.gates.failures();
    EXPECT_GT(r.issued, 0u);
    EXPECT_EQ(r.completed, r.issued);
    EXPECT_GT(r.elapsed_ns, 0);
    for (const auto& [name, value] : sim_metrics(workload(), r)) {
      EXPECT_TRUE(std::isfinite(value)) << name;
    }
    for (const auto& [name, value] : layer_metrics(r)) {
      EXPECT_TRUE(std::isfinite(value)) << name;
    }
  }
}

TEST_P(WorkloadSmoke, SameSeedSameSimulation) {
  const RunResult a = run_once(tiny(workload(), 11));
  const RunResult b = run_once(tiny(workload(), 11));
  const RunResult c = run_once(tiny(workload(), 12));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(sim_metrics(workload(), a), sim_metrics(workload(), b));
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST_P(WorkloadSmoke, TracerDoesNotPerturbTheModel) {
  const RunResult plain = run_once(tiny(workload(), 5));
  const RunResult traced = run_once(tiny(workload(), 5, Rate::kNominal, true));
  EXPECT_TRUE(traced.gates.ok()) << traced.gates.failures();
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_EQ(sim_metrics(workload(), plain), sim_metrics(workload(), traced));
  double shares = 0.0;
  for (const double s : traced.path_share) shares += s;
  EXPECT_NEAR(shares, 1.0, 1e-9);  // critical-path buckets partition latency
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmoke,
                         ::testing::Values("kv_mixed_uniform",
                                           "read_mostly_leased",
                                           "txn_contended", "hotspot_shift"));

// The benchmark's replay must drive the service exactly as
// load::Generator::run does for the same plan.
TEST(Replay, MatchesGeneratorRun) {
  using namespace optsync;
  const Workload& w = *find_workload("kv_mixed_uniform");
  const RunSpec spec = tiny(w, 3);
  const RunResult replayed = run_once(spec);

  sim::Scheduler sched;
  const auto topo = net::MeshTorus2D::near_square(kNodes);
  dsm::DsmSystem sys(sched, topo, dsm::DsmConfig{});
  shard::ShardedStore store(sys, w.store);
  load::GeneratorConfig g = w.traffic;
  g.seed = spec.seed;
  g.requests = planned_requests(spec);
  g.rate_rps = w.nominal_rps;
  load::Generator gen(g);
  stats::ServiceReport report;
  shard::Client client(store);
  auto drive = gen.run(client, report);
  sched.run();
  ASSERT_TRUE(gen.done());

  EXPECT_EQ(replayed.completed, report.completed());
  EXPECT_EQ(replayed.elapsed_ns, static_cast<std::int64_t>(report.elapsed_ns));
  EXPECT_EQ(replayed.counters.messages, sys.network().stats().messages);
  EXPECT_EQ(replayed.counters.events, sched.events_processed());
}

}  // namespace
}  // namespace perfbench
