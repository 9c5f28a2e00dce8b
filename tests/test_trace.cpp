// Flight recorder, Chrome trace export, per-lock metrics, and the GWC
// invariant checker — the observability layer end to end: unit behavior of
// the ring/histogram/JSON pieces, then whole-scenario runs proving the
// recorder captures the paper's figure-7 interaction and the checker
// accepts real runs while rejecting doctored streams.
#include "trace/recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dsm/types.hpp"
#include "stats/histogram.hpp"
#include "stats/json.hpp"
#include "stats/lock_stats.hpp"
#include "trace/chrome_export.hpp"
#include "trace/gwc_checker.hpp"
#include "workloads/counter.hpp"
#include "workloads/scenario_fig7.hpp"

namespace optsync {
namespace {

using trace::Event;
using trace::EventKind;
using trace::GwcChecker;
using trace::Recorder;

Event make_event(EventKind kind, sim::Time t = 0) {
  Event e;
  e.kind = kind;
  e.t = t;
  return e;
}

// ------------------------------------------------------------- recorder ---

TEST(Recorder, RetainsInOrderAndCounts) {
  Recorder rec(8);
  for (int i = 0; i < 5; ++i) {
    rec.record(make_event(EventKind::kNodeApply, static_cast<sim::Time>(i)));
  }
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.count(EventKind::kNodeApply), 5u);
  EXPECT_EQ(rec.count(EventKind::kRollback), 0u);
  sim::Time expect = 0;
  rec.for_each([&expect](const Event& e) { EXPECT_EQ(e.t, expect++); });
}

TEST(Recorder, RingEvictsOldestWhenFull) {
  Recorder rec(4);
  for (int i = 0; i < 10; ++i) {
    rec.record(make_event(EventKind::kNetDeliver, static_cast<sim::Time>(i)));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  std::vector<sim::Time> times;
  rec.for_each([&times](const Event& e) { times.push_back(e.t); });
  EXPECT_EQ(times, (std::vector<sim::Time>{6, 7, 8, 9}));
}

TEST(Recorder, SinksSeeEveryEventDespiteEviction) {
  Recorder rec(2);
  std::uint64_t seen = 0;
  rec.add_sink([&seen](const Event&) { ++seen; });
  for (int i = 0; i < 100; ++i) rec.record(make_event(EventKind::kRollback));
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(rec.size(), 2u);
}

TEST(Recorder, ClearResetsRetentionAndCounters) {
  Recorder rec(8);
  rec.record(make_event(EventKind::kLockAcquire));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.count(EventKind::kLockAcquire), 0u);
}

TEST(Recorder, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::kHistoryVeto); ++k) {
    EXPECT_FALSE(
        trace::event_kind_name(static_cast<EventKind>(k)).empty());
  }
}

// ------------------------------------------------------------ histogram ---

TEST(Histogram, SmallValuesAreExact) {
  stats::Histogram h;
  for (std::int64_t v : {0, 1, 2, 3, 7, 15}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 15);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(1.0), 15);
}

TEST(Histogram, PercentilesWithinRelativeErrorBound) {
  stats::Histogram h;
  for (std::int64_t v = 1; v <= 10'000; ++v) h.record(v);
  // Log bucketing with 16 sub-buckets guarantees <= 6.25% relative error.
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = q * 10'000;
    const double got = static_cast<double>(h.percentile(q));
    EXPECT_NEAR(got, exact, exact * 0.0625 + 1)
        << "q=" << q << " got " << got;
  }
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

// Regression: percentile() computed the 1-based rank as ceil(q * count)
// with no epsilon, and 0.95 * 20 evaluates to 19.000000000000004 in
// binary floating point — ceil() jumped to rank 20, reporting p95 of a
// 20-sample distribution as its MAXIMUM. Exact-rank quantiles over small
// sample counts are the adversarial case.
TEST(Histogram, ExactRankQuantilesAreNotOffByOne) {
  stats::Histogram h;
  // 20 distinct small values (exact buckets: no bucketing error at all).
  for (std::int64_t v = 1; v <= 20; ++v) h.record(v);
  // q * count lands exactly on a rank for these; FP noise must not bump
  // the answer into the next sample up.
  EXPECT_EQ(h.percentile(0.05), 1);   // rank 1
  EXPECT_EQ(h.percentile(0.50), 10);  // rank 10
  EXPECT_EQ(h.percentile(0.95), 19);  // rank 19 — the historical bug
  EXPECT_EQ(h.percentile(1.0), 20);
  EXPECT_EQ(h.percentile(0.0), 1);
}

TEST(Histogram, BoundaryQuantilesMatchTrackedExtremes) {
  stats::Histogram h;
  for (std::int64_t v : {5, 5, 5, 900'000, 900'001}) h.record(v);
  // p0/p100 answer from the exact min/max words, never from bucket
  // midpoints, so wide buckets at the top cannot leak into them.
  EXPECT_EQ(h.percentile(0.0), 5);
  EXPECT_EQ(h.percentile(1.0), 900'001);
  // Quantiles strictly below the top sample's rank stay at the mode.
  EXPECT_EQ(h.percentile(0.50), 5);
  // Negative and >1 quantiles clamp to the extremes rather than walking
  // off the bucket array.
  EXPECT_EQ(h.percentile(-0.5), 5);
  EXPECT_EQ(h.percentile(1.5), 900'001);
}

// Merging histograms whose ranges straddle each other must answer
// percentiles from the COMBINED distribution, clamped to the combined
// [min, max] — the per-shard latency rollup case.
TEST(Histogram, MergeAcrossStraddlingRangesKeepsQuantilesSane) {
  stats::Histogram low;
  stats::Histogram high;
  for (std::int64_t v = 1; v <= 100; ++v) low.record(v);
  for (std::int64_t v = 1'000'000; v < 1'000'100; ++v) high.record(v);
  stats::Histogram merged = low;
  merged.merge(high);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_EQ(merged.min(), 1);
  EXPECT_EQ(merged.max(), 1'000'099);
  // Rank 100 is the top of the low half; rank 101 the bottom of the high
  // half. The boundary-straddling quantiles must come from the right half
  // (6.25% relative bucketing error allowed, no cross-half bleeding).
  EXPECT_LE(merged.percentile(0.50), 110);
  EXPECT_GE(merged.percentile(0.505), 900'000);
  EXPECT_GE(merged.percentile(0.99), 900'000);
  // Merging into an empty histogram adopts the source's extremes.
  stats::Histogram empty;
  empty.merge(high);
  EXPECT_EQ(empty.min(), 1'000'000);
  EXPECT_EQ(empty.max(), 1'000'099);
  EXPECT_EQ(empty.percentile(0.0), 1'000'000);
  EXPECT_EQ(empty.percentile(1.0), 1'000'099);
  // Merging an empty histogram in is a no-op on the extremes.
  stats::Histogram target = low;
  target.merge(stats::Histogram{});
  EXPECT_EQ(target.min(), 1);
  EXPECT_EQ(target.max(), 100);
  EXPECT_EQ(target.count(), 100u);
}

TEST(Histogram, EmptyHistogramAnswersZeroEverywhere) {
  const stats::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
  EXPECT_EQ(h.p999(), 0);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  stats::Histogram h;
  h.record(4'321);
  EXPECT_EQ(h.count(), 1u);
  // p0 and p100 are exact (tracked min/max), and every quantile between
  // them resolves to the one sample's bucket.
  EXPECT_EQ(h.percentile(0.0), 4'321);
  EXPECT_EQ(h.percentile(1.0), 4'321);
  for (const double q : {0.001, 0.25, 0.50, 0.95, 0.999}) {
    const double got = static_cast<double>(h.percentile(q));
    EXPECT_NEAR(got, 4'321.0, 4'321.0 * 0.0625) << "q=" << q;
  }
}

TEST(Histogram, OutOfRangeQuantilesClampToMinMax) {
  stats::Histogram h;
  h.record(10);
  h.record(1'000);
  EXPECT_EQ(h.percentile(-0.5), 10);
  EXPECT_EQ(h.percentile(1.5), 1'000);
}

TEST(Histogram, NegativeClampsAndMergeAccumulates) {
  stats::Histogram a;
  a.record(-5);
  EXPECT_EQ(a.min(), 0);
  stats::Histogram b;
  b.record(100);
  b.record(200);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 200);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.percentile(0.5), 0);
}

// ----------------------------------------------------------------- json ---

TEST(JsonWriter, EscapesAndNests) {
  std::ostringstream out;
  stats::JsonWriter w(out);
  w.begin_object();
  w.value("name", "a\"b\\c\n");
  w.begin_array("xs");
  w.value(static_cast<std::int64_t>(1));
  w.value(2.5);
  w.end_array();
  w.value("flag", true);
  w.end_object();
  EXPECT_EQ(out.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"xs\":[1,2.5],\"flag\":true}");
}

TEST(LockStats, WritesWellFormedJson) {
  stats::LockStats ls;
  ls.name = "test.lock";
  ls.acquisitions = 3;
  ls.speculative_attempts = 2;
  ls.speculative_commits = 1;
  ls.rollbacks = 1;
  ls.acquire_ns.record(1'000);
  ls.acquire_ns.record(2'000);
  std::ostringstream out;
  stats::JsonWriter w(out);
  ls.write_json(w);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"name\":\"test.lock\""), std::string::npos);
  EXPECT_NE(s.find("\"rollbacks\":1"), std::string::npos);
  EXPECT_NE(s.find("\"commit_rate\":0.5"), std::string::npos);
  EXPECT_NE(s.find("\"p99_ns\":"), std::string::npos);
}

// -------------------------------------------------- scenario + exporter ---

workloads::Fig7Result run_fig7_recorded(Recorder& rec,
                                        GwcChecker* checker = nullptr) {
  if (checker != nullptr) checker->install(rec);
  workloads::Fig7Params p;
  p.dsm.recorder = &rec;
  return workloads::run_scenario_fig7(p);
}

TEST(TraceIntegration, Fig7RecordsTheRollbackInteraction) {
  Recorder rec;
  const auto res = run_fig7_recorded(rec);
  ASSERT_EQ(res.final_a, res.expected_a);
  // The figure's mechanisms, as flight-recorder events: both nodes see a
  // free lock and speculate, the near node's speculation commits, the far
  // node's rolls back, the root silently drops the stale write, and
  // hardware blocking eats the winner's own echo.
  EXPECT_EQ(rec.count(EventKind::kSpeculateBegin), 2u);
  EXPECT_EQ(rec.count(EventKind::kSpeculateCommit), 1u);
  EXPECT_EQ(rec.count(EventKind::kRollback), 1u);
  EXPECT_GE(rec.count(EventKind::kRootDropSpec), 1u);
  EXPECT_GE(rec.count(EventKind::kEchoDrop), 1u);
  EXPECT_EQ(rec.count(EventKind::kLockRequest), 2u);
  EXPECT_EQ(rec.count(EventKind::kLockAcquire), 2u);
  EXPECT_EQ(rec.count(EventKind::kLockRelease), 2u);
  // Event times are monotone non-decreasing (the stream is the sim clock).
  sim::Time last = 0;
  rec.for_each([&last](const Event& e) {
    EXPECT_GE(e.t, last);
    last = e.t;
  });
  // Per-lock record agrees with the scenario's own counters.
  EXPECT_EQ(res.lock_stats.rollbacks, 1u);
  EXPECT_EQ(res.lock_stats.acquisitions, 2u);
  EXPECT_EQ(res.lock_stats.speculative_attempts, 2u);
  EXPECT_EQ(res.lock_stats.speculative_commits, 1u);
  EXPECT_EQ(res.lock_stats.acquire_ns.count(), 2u);
  EXPECT_GT(res.lock_stats.acquire_ns.max(), 0);
}

TEST(TraceIntegration, ChromeExportIsBalancedAndLoadable) {
  Recorder rec;
  run_fig7_recorded(rec);
  std::ostringstream out;
  trace::write_chrome_trace(out, rec);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"speculate\""), std::string::npos);
  EXPECT_NE(json.find("\"rollback\""), std::string::npos);
  // Spans must balance: equal numbers of begin and end events, and braces
  // must nest (a cheap well-formedness proxy that catches truncation).
  auto occurrences = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"ph\":\"B\""), occurrences("\"ph\":\"E\""));
  EXPECT_GE(occurrences("\"ph\":\"B\""), 2u);  // speculate + two holds
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// ---------------------------------------------------------- GWC checker ---

TEST(GwcChecker, AcceptsTheFig7Run) {
  Recorder rec;
  GwcChecker checker;
  const auto res = run_fig7_recorded(rec, &checker);
  ASSERT_EQ(res.final_a, res.expected_a);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.writes_checked(), 0u);
}

TEST(GwcChecker, AcceptsAContendedCounterRun) {
  Recorder rec;
  GwcChecker checker;
  checker.install(rec);
  workloads::CounterParams p;
  p.increments_per_node = 20;
  p.think_mean_ns = 5'000;  // heavy contention: rollbacks + vetoes
  p.dsm.recorder = &rec;
  const auto topo = net::MeshTorus2D::near_square(8);
  const auto res =
      run_counter(workloads::CounterMethod::kOptimisticGwc, p, topo);
  ASSERT_EQ(res.final_count, res.expected_count);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.writes_checked(), 100u);
}

// Doctored streams: each of the checker's four invariants, violated.

Event sequenced(std::uint32_t group, std::uint64_t seq, std::uint32_t var,
                std::int64_t value, std::uint32_t origin,
                std::string_view label, std::uint32_t guard = ~0u) {
  Event e;
  e.kind = EventKind::kRootSequence;
  e.group = group;
  e.seq = seq;
  e.var = var;
  e.value = value;
  e.origin = origin;
  e.guard = guard;
  e.label = label;
  return e;
}

Event applied(std::uint32_t group, std::uint64_t seq, std::uint32_t node,
              std::uint32_t var, std::int64_t value, std::uint32_t origin,
              std::string_view label) {
  Event e;
  e.kind = EventKind::kNodeApply;
  e.group = group;
  e.seq = seq;
  e.node = node;
  e.var = var;
  e.value = value;
  e.origin = origin;
  e.label = label;
  return e;
}

TEST(GwcChecker, RejectsOutOfOrderApplication) {
  GwcChecker c;
  c.on_event(sequenced(0, 1, 7, 10, 2, "data"));
  c.on_event(sequenced(0, 2, 7, 20, 2, "data"));
  c.on_event(applied(0, 1, 3, 7, 10, 2, "data"));
  c.on_event(applied(0, 2, 3, 7, 20, 2, "data"));
  EXPECT_TRUE(c.ok()) << c.report();
  c.on_event(applied(0, 1, 3, 7, 10, 2, "data"));  // goes backwards
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("after seq"), std::string::npos);
  EXPECT_EQ(c.writes_checked(), 3u);
}

TEST(GwcChecker, RejectsValueMismatchAgainstRootSequence) {
  GwcChecker c;
  c.on_event(sequenced(0, 1, 7, 10, 2, "data"));
  c.on_event(applied(0, 1, 3, 7, 99, 2, "data"));  // wrong value
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("root sequenced"), std::string::npos);
}

TEST(GwcChecker, RejectsInventedSequenceNumber) {
  GwcChecker c;
  c.on_event(sequenced(0, 1, 7, 10, 2, "data"));
  c.on_event(applied(0, 1, 3, 7, 10, 2, "data"));
  c.on_event(applied(0, 5, 3, 7, 77, 2, "data"));  // root never issued seq 5
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("never issued"), std::string::npos);
}

TEST(GwcChecker, RejectsGapThatIsNotAnOwnEcho) {
  GwcChecker c;
  c.on_event(sequenced(0, 1, 7, 10, 2, "data"));
  c.on_event(sequenced(0, 2, 7, 20, 2, "data"));
  // Node 3 skips seq 1 — but seq 1 is plain data, not node 3's own
  // mutex-data echo, so the gap is a lost update, not hardware blocking.
  c.on_event(applied(0, 2, 3, 7, 20, 2, "data"));
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("skipped seq"), std::string::npos);
}

TEST(GwcChecker, AcceptsGapFromOwnMutexDataEcho) {
  GwcChecker c;
  const std::int64_t grant3 = dsm::lock_grant_value(3);
  c.on_event(sequenced(0, 1, 9, grant3, 3, "lock"));
  c.on_event(applied(0, 1, 3, 9, grant3, 3, "lock"));
  // Node 3's own mutex-data write: sequenced, then echo-blocked locally.
  c.on_event(sequenced(0, 2, 7, 10, 3, "mutex-data", 9));
  c.on_event(sequenced(0, 3, 9, dsm::kLockFree, 3, "lock"));
  c.on_event(applied(0, 3, 3, 9, dsm::kLockFree, 3, "lock"));  // skips seq 2
  EXPECT_TRUE(c.ok()) << c.report();
}

TEST(GwcChecker, RejectsSpeculativeWriteSequencedForNonHolder) {
  GwcChecker c;
  // Lock granted to node 2; then a mutex-data write from node 5 is
  // sequenced — the root failed to filter a speculative write.
  c.on_event(sequenced(0, 1, 9, dsm::lock_grant_value(2), 2, "lock"));
  c.on_event(sequenced(0, 2, 7, 42, 5, "mutex-data", 9));
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("holds the lock"), std::string::npos);
}

TEST(GwcChecker, RejectsMutexDataSequencedWhileLockFree) {
  GwcChecker c;
  c.on_event(sequenced(0, 1, 7, 42, 5, "mutex-data", 9));  // no grant ever
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("lock is free"), std::string::npos);
}

TEST(GwcChecker, RejectsMutexDataSequencedUnderAnotherStripesLock) {
  // Two stripe locks in one group (vars 9 and 10) guarding var 7 and var
  // 8. Node 5 holds stripe 10 only; a write to var 7 (guarded by 9) is
  // sequenced — the root failed to filter against the datum's own guard.
  GwcChecker c;
  c.on_event(sequenced(0, 1, 10, dsm::lock_grant_value(5), 5, "lock"));
  c.on_event(sequenced(0, 2, 8, 1, 5, "mutex-data", 10));  // own stripe: ok
  EXPECT_TRUE(c.ok()) << c.report();
  c.on_event(sequenced(0, 3, 7, 42, 5, "mutex-data", 9));
  EXPECT_FALSE(c.ok());
  EXPECT_NE(c.report().find("lock is free (guard var 9)"), std::string::npos);
  // Stripe 9 held by node 2: node 5's write is speculative, not licensed
  // by its stripe-10 grant.
  c.on_event(sequenced(0, 4, 9, dsm::lock_grant_value(2), 2, "lock"));
  c.on_event(sequenced(0, 5, 7, 43, 5, "mutex-data", 9));
  EXPECT_NE(c.report().find("node 2 holds the lock (guard var 9)"),
            std::string::npos);
}

}  // namespace
}  // namespace optsync
