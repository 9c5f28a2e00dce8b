// Telemetry unit tests: ring-buffered series + exports, the sim-clock
// sampler (gauges, rates, zero-window guards, scheduler interaction), the
// overload detector over synthetic backlog shapes, the wall-clock sampler,
// the causal tracer's span trees and critical-path sweep, and the
// ServiceReport rate guards the telemetry stack leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "simkern/scheduler.hpp"
#include "stats/service_report.hpp"
#include "telemetry/overload.hpp"
#include "telemetry/rt_sampler.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/series.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::telemetry {
namespace {

// --- SeriesSet ----------------------------------------------------------

TEST(SeriesSet, RingEvictsOldestAndCountsDrops) {
  SeriesSet set(/*capacity=*/4);
  const auto idx = set.series("m", {});
  for (int i = 0; i < 10; ++i) {
    set.append(idx, static_cast<sim::Time>(i), static_cast<double>(i));
  }
  const Series& s = set.at(idx);
  ASSERT_EQ(s.samples.size(), 4u);
  EXPECT_EQ(s.samples.front().v, 6.0);  // 0..5 evicted
  EXPECT_EQ(s.samples.back().v, 9.0);
  EXPECT_EQ(s.dropped, 6u);
  EXPECT_EQ(s.last(), 9.0);
}

TEST(SeriesSet, IdentityIsNamePlusLabels) {
  SeriesSet set;
  const auto a = set.series("m", {{"shard", "0"}});
  const auto b = set.series("m", {{"shard", "1"}});
  const auto a2 = set.series("m", {{"shard", "0"}});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.find("m", {{"shard", "1"}}), &set.at(b));
  EXPECT_EQ(set.find("m", {{"shard", "9"}}), nullptr);
  EXPECT_EQ(set.find("absent", {}), nullptr);
}

TEST(SeriesSet, PrometheusExpositionGroupsFamiliesAndEscapes) {
  SeriesSet set;
  const auto a = set.series("optsync_backlog", {{"shard", "0"}});
  const auto other = set.series("optsync_goodput", {});
  const auto b = set.series("optsync_backlog", {{"shard", "a\"b\\c\nd"}});
  set.append(a, 10, 3.0);
  set.append(other, 10, 7.5);
  set.append(b, 10, 4.0);
  std::ostringstream out;
  set.write_prometheus(out);
  const std::string text = out.str();
  // One TYPE line per family, and both backlog series under ONE block even
  // though another family was registered between them.
  EXPECT_EQ(text.find("# TYPE optsync_backlog gauge"),
            text.rfind("# TYPE optsync_backlog gauge"));
  EXPECT_NE(text.find("optsync_backlog{shard=\"0\"} 3"), std::string::npos);
  EXPECT_NE(text.find("optsync_goodput 7.5"), std::string::npos);
  // Escaped label value: backslash, quote, newline.
  EXPECT_NE(text.find("shard=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  const auto family_pos = text.find("# TYPE optsync_backlog gauge");
  const auto next_family = text.find("# TYPE optsync_goodput gauge");
  const auto second_sample = text.find("optsync_backlog{shard=\"a");
  EXPECT_TRUE(second_sample < next_family || next_family < family_pos)
      << "family block must be contiguous:\n"
      << text;
}

TEST(SeriesSet, JsonExportCarriesSchemaAndSamples) {
  SeriesSet set;
  const auto idx = set.series("m", {{"k", "v"}});
  set.append(idx, 5, 1.5);
  set.append(idx, 10, 2.5);
  std::ostringstream out;
  set.write_json(out, /*interval_ns=*/5);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\": \"optsync-timeseries/1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"interval_ns\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"k\": \"v\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped\": 0"), std::string::npos);
  // Both samples retained, timestamps then values (pretty print splits the
  // [t, v] pairs across lines, so match the scalars).
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  EXPECT_LT(text.find("1.5"), text.find("2.5"));
}

// --- Sampler (sim clock) ------------------------------------------------

TEST(Sampler, TicksWhileEventsPendingAndStopsWhenIdle) {
  sim::Scheduler sched;
  Sampler sampler(SamplerConfig{/*interval_ns=*/100, /*capacity=*/1024});
  int gauge = 0;
  sampler.add_gauge("g", {}, [&] { return static_cast<double>(gauge); });
  // Keep the simulation alive to t=1000 with a chain of no-op events.
  for (sim::Time t = 0; t <= 1000; t += 50) {
    sched.at(t, [&] { ++gauge; });
  }
  sampler.start(sched);
  sched.run();  // must terminate: the sampler may not self-perpetuate
  sampler.sample_now(sched.now());
  const Series* s = sampler.series().find("g", {});
  ASSERT_NE(s, nullptr);
  ASSERT_GE(s->samples.size(), 5u);
  EXPECT_GE(sampler.ticks(), 5u);
  // Samples are in time order and end at the final sample_now.
  for (std::size_t i = 1; i < s->samples.size(); ++i) {
    EXPECT_GE(s->samples[i].t, s->samples[i - 1].t);
  }
  EXPECT_EQ(s->samples.back().t, sched.now());
}

TEST(Sampler, RateProbeMeasuresPerSecondDelta) {
  sim::Scheduler sched;
  Sampler sampler(SamplerConfig{/*interval_ns=*/1'000'000, /*capacity=*/64});
  std::uint64_t counter = 0;
  sampler.add_rate("r", {}, [&] { return static_cast<double>(counter); });
  // +5 just before each millisecond tick => 5000 per second. No events
  // after the last increment: the sampler must not outlive the load.
  for (int i = 1; i <= 3; ++i) {
    sched.at(static_cast<sim::Time>(i) * 1'000'000 - 1, [&] { counter += 5; });
  }
  sampler.start(sched);
  sched.run();
  const Series* s = sampler.series().find("r", {});
  ASSERT_NE(s, nullptr);
  ASSERT_GE(s->samples.size(), 3u);
  EXPECT_EQ(s->samples.front().v, 0.0);  // priming tick
  for (std::size_t i = 1; i < s->samples.size(); ++i) {
    EXPECT_NEAR(s->samples[i].v, 5'000.0, 1e-6) << "tick " << i;
  }
}

TEST(Sampler, RateProbeZeroWindowYieldsZeroNotNan) {
  sim::Scheduler sched;
  Sampler sampler;
  std::uint64_t counter = 0;
  sampler.add_rate("r", {}, [&] { return static_cast<double>(counter); });
  sampler.sample_now(100);
  counter = 50;
  sampler.sample_now(100);  // same instant: dt == 0
  const Series* s = sampler.series().find("r", {});
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->samples.size(), 2u);
  EXPECT_EQ(s->samples[1].v, 0.0);
}

// --- Overload detector --------------------------------------------------

Series make_series(const std::vector<double>& values,
                   sim::Duration step = 50'000) {
  Series s;
  s.name = "optsync_shard_backlog";
  for (std::size_t i = 0; i < values.size(); ++i) {
    s.samples.push_back(Sample{static_cast<sim::Time>(i) * step, values[i]});
  }
  return s;
}

TEST(Overload, SustainedGrowthIsDrowning) {
  std::vector<double> v;
  for (int i = 0; i < 40; ++i) v.push_back(5.0 * i);  // 100k/s at 50µs step
  const auto verdict = assess_backlog(make_series(v));
  EXPECT_TRUE(verdict.drowning);
  EXPECT_GT(verdict.slope_per_s, 1'000.0);
  EXPECT_EQ(verdict.peak_backlog, 195.0);
}

TEST(Overload, GrowthThenDrainIsStillDrowning) {
  // A finite run: backlog ramps while load is offered, then drains to zero
  // after the last arrival. The drain tail must not mask the saturation.
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) v.push_back(10.0 * i);
  for (int i = 19; i >= 0; --i) v.push_back(10.0 * i);
  const auto verdict = assess_backlog(make_series(v));
  EXPECT_TRUE(verdict.drowning);
  EXPECT_EQ(verdict.final_backlog, 0.0);
  EXPECT_EQ(verdict.peak_backlog, 190.0);
}

TEST(Overload, PlateauIsNotDrowning) {
  // At capacity: a material backlog oscillating around a plateau with only
  // a faint drift (~200 req/s, well under the 1000 req/s gate).
  std::vector<double> v;
  for (int i = 0; i < 40; ++i) {
    v.push_back(50.0 + 0.01 * i + ((i % 2) != 0 ? 1.0 : -1.0));
  }
  const auto verdict = assess_backlog(make_series(v));
  EXPECT_GT(verdict.peak_backlog, 16.0);  // material queue, just not growing
  EXPECT_LT(verdict.slope_per_s, 1'000.0);
  EXPECT_FALSE(verdict.drowning);
}

TEST(Overload, TinyBacklogGrowthIsNotDrowning) {
  // Steep slope, immaterial queue: 0 -> 8 requests over the run.
  std::vector<double> v;
  for (int i = 0; i < 40; ++i) v.push_back(0.2 * i);
  const auto verdict = assess_backlog(make_series(v));
  EXPECT_GT(verdict.slope_per_s, 1'000.0);
  EXPECT_FALSE(verdict.drowning);  // peak < min_final_backlog
}

TEST(Overload, ShortSeriesGivesNoVerdict) {
  const auto verdict = assess_backlog(make_series({0.0, 100.0, 200.0}));
  EXPECT_FALSE(verdict.drowning);
  EXPECT_EQ(assess_backlog(Series{}).drowning, false);
}

TEST(Overload, EmptyAndOneSampleSeriesGiveNoVerdictAnywhere) {
  // Guards at every entry point: assess, the live overlay, both shapes.
  EXPECT_FALSE(assess_backlog(Series{}).drowning);
  EXPECT_EQ(assess_backlog(Series{}).slope_per_s, 0.0);
  EXPECT_FALSE(assess_backlog(make_series({42.0})).drowning);
  EXPECT_FALSE(live_drowning(Series{}, /*current_backlog=*/1e9));
  EXPECT_FALSE(live_drowning(make_series({42.0}), /*current_backlog=*/1e9));
}

TEST(Overload, LiveVerdictFlipsExactlyOnceAcrossMigrateThenDrain) {
  // The elastic recovery story: a shard drowns, a migration peels its load
  // off, the queue drains. The LIVE verdict must flip false->true once
  // (saturation detected) and true->false once (recovered), with no
  // flapping — assess_backlog alone would stay pinned to the historical
  // peak forever.
  std::vector<double> v;
  for (int i = 0; i < 40; ++i) v.push_back(5.0 * i);   // ramp to 195
  for (int i = 0; i < 40; ++i) {                       // post-migration drain
    v.push_back(std::max(0.0, 195.0 - 5.0 * i));
  }
  Series s;
  s.name = "optsync_shard_backlog";
  bool prev = false;
  int rising = 0;
  int falling = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    s.samples.push_back(Sample{static_cast<sim::Time>(i) * 50'000, v[i]});
    const bool now = live_drowning(s, /*current_backlog=*/v[i]);
    if (now && !prev) ++rising;
    if (!now && prev) ++falling;
    prev = now;
  }
  EXPECT_EQ(rising, 1);
  EXPECT_EQ(falling, 1);
  EXPECT_FALSE(prev);  // drained below the materiality floor at the end
  // The historical verdict stays pinned: slope over the pre-peak window.
  EXPECT_TRUE(assess_backlog(s).drowning);
}

TEST(Overload, FlagOverloadFillsReportShards) {
  SeriesSet set;
  const auto hot = set.series("optsync_shard_backlog", {{"shard", "0"}});
  const auto cold = set.series("optsync_shard_backlog", {{"shard", "1"}});
  for (int i = 0; i < 40; ++i) {
    set.append(hot, static_cast<sim::Time>(i) * 50'000, 5.0 * i);
    set.append(cold, static_cast<sim::Time>(i) * 50'000, 1.0);
  }
  stats::ServiceReport report;
  report.shards.resize(3);
  for (std::uint32_t s = 0; s < 3; ++s) report.shards[s].shard = s;
  flag_overload(report, set);
  EXPECT_TRUE(report.shards[0].drowning);
  EXPECT_FALSE(report.shards[1].drowning);
  EXPECT_FALSE(report.shards[2].drowning);  // no series: left untouched
  EXPECT_EQ(report.drowning_shards(), 1u);
  const std::string text = report.format();
  EXPECT_NE(text.find("DROWNING"), std::string::npos);
}

// --- Prometheus exposition: HELP + sanitization -------------------------

TEST(SeriesSet, PrometheusHelpPrecedesTypeAndEscapes) {
  SeriesSet set;
  const auto a = set.series("optsync_backlog", {});
  const auto b = set.series("optsync_goodput", {});
  set.append(a, 10, 1.0);
  set.append(b, 10, 2.0);
  set.set_help("optsync_backlog", "Queue depth\nper shard \\ raw");
  std::ostringstream out;
  set.write_prometheus(out);
  const std::string text = out.str();
  // Registered help renders escaped; HELP comes before TYPE.
  EXPECT_NE(
      text.find("# HELP optsync_backlog Queue depth\\nper shard \\\\ raw"),
      std::string::npos);
  EXPECT_LT(text.find("# HELP optsync_backlog"),
            text.find("# TYPE optsync_backlog"));
  // Families without registered help still carry a full preamble.
  EXPECT_NE(text.find("# HELP optsync_goodput optsync gauge optsync_goodput"),
            std::string::npos);
  EXPECT_LT(text.find("# HELP optsync_goodput"),
            text.find("# TYPE optsync_goodput"));
}

TEST(SeriesSet, SanitizesMetricAndLabelNamesToExpositionGrammar) {
  EXPECT_EQ(SeriesSet::sanitize_metric_name("optsync_ok:metric"),
            "optsync_ok:metric");
  EXPECT_EQ(SeriesSet::sanitize_metric_name("bad.metric-name"),
            "bad_metric_name");
  EXPECT_EQ(SeriesSet::sanitize_metric_name("9leading"), "_9leading");
  EXPECT_EQ(SeriesSet::sanitize_metric_name(""), "_");
  // Labels additionally reject ':'.
  EXPECT_EQ(SeriesSet::sanitize_label_name("shard:id"), "shard_id");
  EXPECT_EQ(SeriesSet::sanitize_label_name("ok_label"), "ok_label");

  SeriesSet set;
  const auto idx = set.series("rt.latency p50", {{"shard-id", "3"}});
  set.append(idx, 10, 1.5);
  std::ostringstream out;
  set.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE rt_latency_p50 gauge"), std::string::npos);
  EXPECT_NE(text.find("rt_latency_p50{shard_id=\"3\"} 1.5"),
            std::string::npos);
}

TEST(SeriesSet, CollidingSanitizedNamesMergeIntoOneFamily) {
  // "a.b" and "a_b" collapse to the same exposition name; the output must
  // render them as ONE contiguous family or promtool rejects it.
  SeriesSet set;
  const auto a = set.series("a.b", {{"v", "dot"}});
  const auto mid = set.series("other", {});
  const auto b = set.series("a_b", {{"v", "underscore"}});
  set.append(a, 10, 1.0);
  set.append(mid, 10, 2.0);
  set.append(b, 10, 3.0);
  std::ostringstream out;
  set.write_prometheus(out);
  const std::string text = out.str();
  EXPECT_EQ(text.find("# TYPE a_b gauge"), text.rfind("# TYPE a_b gauge"));
  const auto dot = text.find("a_b{v=\"dot\"}");
  const auto under = text.find("a_b{v=\"underscore\"}");
  const auto other = text.find("# TYPE other gauge");
  ASSERT_NE(dot, std::string::npos);
  ASSERT_NE(under, std::string::npos);
  EXPECT_TRUE(other < dot || other > under)
      << "family split by another family:\n"
      << text;
}

// --- RtSampler (wall clock) ---------------------------------------------

TEST(RtSampler, SamplesOnAThreadAndStopJoins) {
  RtSampler sampler(std::chrono::microseconds(200), /*capacity=*/1024);
  std::atomic<std::uint64_t> counter{0};
  sampler.add_gauge("c", {}, [&] {
    return static_cast<double>(counter.load(std::memory_order_relaxed));
  });
  sampler.start();
  for (int i = 0; i < 50; ++i) {
    counter.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  sampler.stop();
  sampler.stop();  // idempotent
  const Series* s = sampler.series().find("c", {});
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(s->samples.empty());
  EXPECT_GE(sampler.ticks(), 1u);
  EXPECT_EQ(s->samples.back().v, 50.0);  // final sample on the way out
  for (std::size_t i = 1; i < s->samples.size(); ++i) {
    EXPECT_GE(s->samples[i].v, s->samples[i - 1].v);
  }
}

TEST(RtSampler, RateProbeMirrorsSimSamplerSemantics) {
  RtSampler sampler(std::chrono::microseconds(200), /*capacity=*/1024);
  std::atomic<std::uint64_t> counter{0};
  sampler.add_rate("r", {{"shard", "0"}}, [&] {
    return static_cast<double>(counter.load(std::memory_order_relaxed));
  });
  sampler.start();
  for (int i = 0; i < 50; ++i) {
    counter.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  sampler.stop();
  const Series* s = sampler.series().find("r", {{"shard", "0"}});
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(s->samples.empty());
  EXPECT_EQ(s->samples.front().v, 0.0);  // priming tick records 0
  double max_rate = 0.0;
  for (const Sample& p : s->samples) {
    EXPECT_GE(p.v, 0.0);  // monotone counter: deltas never negative
    max_rate = std::max(max_rate, p.v);
  }
  // 50 increments landed inside the sampling window, so some tick must
  // have seen a positive per-second delta.
  EXPECT_GT(max_rate, 0.0);
}

// --- Tracer -------------------------------------------------------------

TEST(Tracer, OpLifecycleRecordsBacklogAndRequestSpans) {
  Tracer trc;
  EXPECT_FALSE(trc.node_ctx(3).valid());
  const auto ctx = trc.begin_op(3, "write", 1, /*arrival=*/100, /*now=*/250);
  ASSERT_TRUE(ctx.valid());
  EXPECT_TRUE(trc.node_ctx(3).valid());
  EXPECT_EQ(trc.op_of(ctx.trace), "write");
  trc.record_span(ctx.trace, ctx.span, SpanKind::kCs, 3, 250, 900);
  trc.end_op(3, 1000);
  EXPECT_FALSE(trc.node_ctx(3).valid());

  const Analysis an = trc.analyze();
  ASSERT_EQ(an.ops.size(), 1u);
  EXPECT_EQ(an.orphan_spans, 0u);
  EXPECT_EQ(an.incomplete_ops, 0u);
  const OpBreakdown& op = an.ops[0];
  EXPECT_EQ(op.total(), 900);  // arrival 100 -> end 1000
  EXPECT_EQ(op.buckets[static_cast<std::size_t>(Bucket::kBacklog)], 150);
  EXPECT_EQ(op.buckets[static_cast<std::size_t>(Bucket::kCompute)], 650);
  EXPECT_EQ(op.buckets[static_cast<std::size_t>(Bucket::kOther)], 100);
  sim::Duration sum = 0;
  for (const auto b : op.buckets) sum += b;
  EXPECT_EQ(sum, op.total());
}

TEST(Tracer, SweepPrefersComputeOverWaitLegs) {
  // The paper's latency-hiding story: speculation overlapping the lock
  // wait must be attributed to compute, not to the wait.
  Tracer trc;
  const auto ctx = trc.begin_op(0, "write", 0, 0, 0);
  const SpanId wait =
      trc.start_span(ctx.trace, ctx.span, SpanKind::kLockWait, 0, 0);
  trc.record_span(ctx.trace, wait, SpanKind::kWireUp, 0, 0, 1000);
  trc.record_span(ctx.trace, ctx.span, SpanKind::kSpeculate, 0, 200, 700);
  trc.end_span(wait, 1000);
  trc.end_op(0, 1000);
  const Analysis an = trc.analyze();
  ASSERT_EQ(an.ops.size(), 1u);
  const auto& b = an.ops[0].buckets;
  EXPECT_EQ(b[static_cast<std::size_t>(Bucket::kCompute)], 500);
  EXPECT_EQ(b[static_cast<std::size_t>(Bucket::kWire)], 500);
  EXPECT_EQ(b[static_cast<std::size_t>(Bucket::kOther)], 0);
}

TEST(Tracer, CriticalPathPartitionsWindowAndNamesDominantBucket) {
  // wire [0,500] under a lock wait ending 600, then cs [600,1000]. The
  // backward walk: cs gated completion, before it the wait, whose tail
  // [500,600] is umbrella self time (other), gated by the wire leg.
  Tracer trc;
  const auto ctx = trc.begin_op(0, "write", 0, /*arrival=*/0, /*now=*/0);
  const SpanId wait =
      trc.start_span(ctx.trace, ctx.span, SpanKind::kLockWait, 0, 0);
  trc.record_span(ctx.trace, wait, SpanKind::kWireUp, 0, 0, 500);
  trc.end_span(wait, 600);
  trc.record_span(ctx.trace, ctx.span, SpanKind::kCs, 0, 600, 1000);
  trc.end_op(0, 1000);

  const Analysis an = trc.analyze();
  ASSERT_EQ(an.ops.size(), 1u);
  const OpBreakdown& op = an.ops[0];
  const auto& pb = op.path_buckets;
  EXPECT_EQ(pb[static_cast<std::size_t>(Bucket::kWire)], 500);
  EXPECT_EQ(pb[static_cast<std::size_t>(Bucket::kCompute)], 400);
  EXPECT_EQ(pb[static_cast<std::size_t>(Bucket::kOther)], 100);
  sim::Duration sum = 0;
  for (const auto b : pb) sum += b;
  EXPECT_EQ(sum, op.total());  // path segments partition the window
  EXPECT_EQ(op.path_named(), 900);
  EXPECT_EQ(op.dominant_path_bucket(), Bucket::kWire);
  EXPECT_NEAR(an.path_named_fraction(), 0.9, 1e-9);
  // Analysis-level path totals mirror the single op.
  EXPECT_EQ(an.path_totals[static_cast<std::size_t>(Bucket::kWire)], 500);
}

TEST(Tracer, CriticalPathExcludesConcurrentOffPathWork) {
  // Speculation overlapping the full-length lock wait: the coverage sweep
  // credits the overlap to compute (latency hiding), but the CRITICAL PATH
  // runs through the wait's wire leg — the speculation finished early and
  // gated nothing.
  Tracer trc;
  const auto ctx = trc.begin_op(0, "write", 0, 0, 0);
  const SpanId wait =
      trc.start_span(ctx.trace, ctx.span, SpanKind::kLockWait, 0, 0);
  trc.record_span(ctx.trace, wait, SpanKind::kWireUp, 0, 0, 1000);
  trc.record_span(ctx.trace, ctx.span, SpanKind::kSpeculate, 0, 200, 700);
  trc.end_span(wait, 1000);
  trc.end_op(0, 1000);

  const Analysis an = trc.analyze();
  ASSERT_EQ(an.ops.size(), 1u);
  const OpBreakdown& op = an.ops[0];
  EXPECT_EQ(op.buckets[static_cast<std::size_t>(Bucket::kCompute)], 500);
  EXPECT_EQ(op.path_buckets[static_cast<std::size_t>(Bucket::kWire)], 1000);
  EXPECT_EQ(op.path_buckets[static_cast<std::size_t>(Bucket::kCompute)], 0);
  EXPECT_EQ(op.dominant_path_bucket(), Bucket::kWire);
  sim::Duration sum = 0;
  for (const auto b : op.path_buckets) sum += b;
  EXPECT_EQ(sum, op.total());
}

TEST(Tracer, EmptyAnalysisAttributesNothingWrongly) {
  const Analysis an = Tracer().analyze();
  EXPECT_EQ(an.total_latency, 0);
  EXPECT_EQ(an.named_fraction(), 1.0);
  EXPECT_EQ(an.path_named_fraction(), 1.0);
  EXPECT_EQ(an.p99_path_named_fraction(), 1.0);
}

TEST(Tracer, P99CutSeesAnUnexplainedTail) {
  // 200 ops with latencies 1..200 ns; only the three slowest (the p99 cut
  // at index 200 - 1 - 200/100 and above) are unexplained. Overall the
  // path still names ~97% of latency; the tail names none of it.
  Analysis an;
  for (sim::Duration t = 1; t <= 200; ++t) {
    OpBreakdown op;
    op.end = t;
    const sim::Duration other = t >= 198 ? t : 0;
    op.path_buckets[static_cast<std::size_t>(Bucket::kOther)] = other;
    op.path_buckets[static_cast<std::size_t>(Bucket::kWire)] = t - other;
    an.path_totals[static_cast<std::size_t>(Bucket::kOther)] += other;
    an.total_latency += t;
    an.ops.push_back(op);
  }
  EXPECT_NEAR(an.path_named_fraction(), 1.0 - 597.0 / 20100.0, 1e-12);
  EXPECT_EQ(an.p99_path_named_fraction(), 0.0);
}

TEST(Tracer, OrphanParentIsDetected) {
  Tracer trc;
  const auto ctx = trc.begin_op(0, "write", 0, 0, 0);
  trc.record_span(ctx.trace, /*parent=*/987654, SpanKind::kCs, 0, 10, 20);
  trc.end_op(0, 100);
  EXPECT_EQ(trc.analyze().orphan_spans, 1u);
}

TEST(Tracer, UnfinishedOpIsIncompleteNotAnalyzed) {
  Tracer trc;
  (void)trc.begin_op(0, "write", 0, 0, 0);
  const Analysis an = trc.analyze();
  EXPECT_EQ(an.ops.size(), 0u);
  EXPECT_EQ(an.incomplete_ops, 1u);
}

TEST(Tracer, CapacityCapCountsDroppedSpans) {
  Tracer trc(/*capacity=*/4);
  const auto ctx = trc.begin_op(0, "write", 0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    trc.record_span(ctx.trace, ctx.span, SpanKind::kCs, 0, i * 10, i * 10 + 5);
  }
  trc.end_op(0, 200);
  EXPECT_GT(trc.dropped_spans(), 0u);
  EXPECT_LE(trc.completed_spans(), 4u + 1u);  // ring + the request span
}

TEST(Tracer, NodeParentRepointNestsSpansUnderWait) {
  Tracer trc;
  const auto ctx = trc.begin_op(2, "write", 0, 0, 0);
  const SpanId wait =
      trc.start_span(ctx.trace, ctx.span, SpanKind::kLockWait, 2, 0);
  trc.set_node_parent(2, wait);
  EXPECT_EQ(trc.node_ctx(2).span, wait);
  EXPECT_EQ(trc.node_ctx(2).trace, ctx.trace);
  trc.set_node_parent(2, ctx.span);
  EXPECT_EQ(trc.node_ctx(2).span, ctx.span);
  trc.end_span(wait, 50);
  trc.end_op(2, 100);
  EXPECT_EQ(trc.analyze().orphan_spans, 0u);
}

// --- ServiceReport guards -----------------------------------------------

TEST(ServiceReportGuards, ZeroWindowRatesAreZeroNotInf) {
  EXPECT_EQ(stats::ServiceReport::safe_rate(100.0, 0), 0.0);
  stats::ServiceReport report;
  report.shards.resize(1);
  report.shards[0].op(stats::ServiceOp::kWrite).completed = 10;
  report.elapsed_ns = 0;
  EXPECT_EQ(report.goodput_rps(), 0.0);
  EXPECT_EQ(report.shard_goodput_rps(0), 0.0);
  EXPECT_EQ(report.shard_goodput_rps(99), 0.0);  // out of range
  report.elapsed_ns = 1'000'000'000;
  EXPECT_NEAR(report.goodput_rps(), 10.0, 1e-9);
  EXPECT_NEAR(report.shard_goodput_rps(0), 10.0, 1e-9);
}

}  // namespace
}  // namespace optsync::telemetry
