// Shared --metrics-out support for the figure/ablation benches.
//
// Every bench main accepts `--metrics-out PATH` and, when given, writes one
// JSON document describing the run (schema "optsync-bench/5", documented in
// EXPERIMENTS.md):
//
//   {
//     "schema": "optsync-bench/5",
//     "bench": "<executable name>",
//     "rows": [ {"label": "...", "<metric>": <number>, ...}, ... ],
//     "locks": [ <stats::LockStats JSON>, ... ]
//   }
//
// "rows" mirrors the human-readable table the bench prints (one object per
// table row, metric names as keys); "locks" carries the per-lock flight
// records (acquire/hold percentiles, speculation outcomes) where the bench
// exercises the GWC lock protocol.
//
// /3 adds the lease-tier counters: benches and the service CLI running
// partial replication emit "lease,shard=N" rows (hits, grants,
// invalidations, remote_reads, forwarded_ops, hit_rate).
//
// /4 adds the elastic-fabric counters: dsm_service --elastic emits an
// "elastic" rollup row (control_actions, dir_epoch, client_redirects,
// handoff_replayed) plus per-shard "elastic,shard=N" rows (migrations,
// splits, merges, promotions, demotions, redirects).
//
// /5 adds the decision-forensics fields: "shard=N" rows gain the
// abort-reason partition (aborts_read_clobber, aborts_validation,
// aborts_dir_epoch — they sum to txn_aborts) and hot-stripe attribution
// (hot_stripe, hot_stripe_conflicts), traced benches emit critical-path
// shares per bucket (path_<bucket>_share) plus p99_path_named_fraction,
// and the harness grows `--journal-out PATH` writing the structured
// decision journal ("optsync-journal/1") tools/dsm_inspect consumes.
//
// bench::Harness (below) layers the rest of the shared bench plumbing on
// top: the standard flag set every bench accepts (--seed, --metrics-out,
// --trace-out, --coalesce-max-writes, --coalesce-max-ns, --ack-delay-ns),
// the flight recorder wiring for --trace-out, and the end-of-run writes.
// Before it, eleven bench mains and the CLI each re-parsed these flags by
// hand and each grew its own subset.
//
// Header-only on purpose: benches are standalone executables and this keeps
// the CMake wiring untouched.
#pragma once

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dsm/types.hpp"
#include "stats/json.hpp"
#include "stats/lock_stats.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/tracer.hpp"
#include "trace/chrome_export.hpp"
#include "trace/recorder.hpp"
#include "util/flags.hpp"

namespace optsync::benchio {

class MetricsOut {
 public:
  MetricsOut(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  /// False when no --metrics-out was requested; rows may still be added
  /// (cheap), they are simply never written.
  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> metrics;
    Row& set(std::string key, double v) {
      metrics.emplace_back(std::move(key), v);
      return *this;
    }
  };

  /// Starts a new row; chain `.set("metric", value)` calls on the result.
  Row& row(std::string label) {
    rows_.emplace_back();
    rows_.back().label = std::move(label);
    return rows_.back();
  }

  /// Records a per-lock flight record (copied; call after the run finishes).
  void lock(const stats::LockStats& ls) { locks_.push_back(ls); }

  /// Writes the document. Returns false (and reports on stderr) on I/O
  /// failure so mains can propagate a nonzero exit code.
  [[nodiscard]] bool write() const {
    if (!enabled()) return true;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "error: cannot open --metrics-out file: " << path_ << "\n";
      return false;
    }
    stats::JsonWriter w(out, /*pretty=*/true);
    w.begin_object();
    w.value("schema", "optsync-bench/5");
    w.value("bench", bench_);
    w.begin_array("rows");
    for (const auto& r : rows_) {
      w.begin_object();
      w.value("label", r.label);
      for (const auto& [key, v] : r.metrics) w.value(key, v);
      w.end_object();
    }
    w.end_array();
    w.begin_array("locks");
    for (const auto& ls : locks_) ls.write_json(w);
    w.end_array();
    w.end_object();
    out << "\n";
    if (!out) {
      std::cerr << "error: failed writing --metrics-out file: " << path_
                << "\n";
      return false;
    }
    std::cerr << "metrics written to " << path_ << "\n";
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<Row> rows_;
  std::vector<stats::LockStats> locks_;
};

/// The shared bench/CLI plumbing: standard flags, recorder, output writes.
///
/// Usage pattern:
///
///   util::Flags flags(argc, argv);
///   benchio::Harness h("fig1_locking_comparison", flags);
///   h.allow_only(flags, {"nodes", "think"});   // bench-specific extras
///   ...
///   Params p;
///   h.apply(p.dsm);           // coalescing knobs, ack delay, recorder
///   ... run, fill h.metrics() rows ...
///   return h.finish() && ok ? 0 : 1;
///
/// Flags handled here (defaults mirror DsmConfig / ReliableConfig, so an
/// unflagged run is byte-identical to constructing the config directly):
///   --seed N                 workload/fault seed (default 42)
///   --metrics-out PATH       optsync-bench/4 JSON document
///   --trace-out PATH         Chrome trace of the run's flight record
///   --trace-capacity N       flight-recorder ring size (default 65536)
///   --coalesce-max-writes N  root frame size cap (default 1 = unbatched)
///   --coalesce-max-ns NS     partial-frame flush deadline
///   --ack-delay-ns NS        reliable-channel delayed/piggybacked acks
///   --prom-out PATH          Prometheus text exposition of the sampler
///   --timeseries-out PATH    optsync-timeseries/1 JSON of the sampler
///   --sample-interval-ns NS  sampler tick period (default 50000)
///   --journal-out PATH       optsync-journal/1 decision journal
///   --journal-capacity N     journal event pool size (default 65536)
///
/// Validated while still signed — the pool size is a std::size_t, so a
/// negative flag value would otherwise wrap into an absurd reserve.
inline std::size_t checked_journal_capacity(const util::Flags& flags) {
  const std::int64_t cap = flags.get_int("journal-capacity", 1 << 16);
  if (cap <= 0) throw std::invalid_argument("--journal-capacity must be > 0");
  return static_cast<std::size_t>(cap);
}

class Harness {
 public:
  Harness(std::string bench, const util::Flags& flags)
      : metrics_(std::move(bench), flags.get("metrics-out")),
        trace_out_(flags.get("trace-out")),
        prom_out_(flags.get("prom-out")),
        timeseries_out_(flags.get("timeseries-out")),
        journal_out_(flags.get("journal-out")),
        journal_(checked_journal_capacity(flags)),
        seed_(static_cast<std::uint64_t>(flags.get_int("seed", 42))),
        coalesce_max_writes_(static_cast<std::uint32_t>(
            flags.get_int("coalesce-max-writes",
                          dsm::DsmConfig{}.coalesce_max_writes))),
        coalesce_max_ns_(
            flags.get_int("coalesce-max-ns", dsm::DsmConfig{}.coalesce_max_ns)),
        ack_delay_ns_(flags.get_int("ack-delay-ns",
                                    net::ReliableConfig{}.ack_delay_ns)),
        recorder_(static_cast<std::size_t>(
            flags.get_int("trace-capacity", 1 << 16))),
        sampler_(telemetry::SamplerConfig{
            static_cast<sim::Duration>(flags.get_int(
                "sample-interval-ns",
                static_cast<std::int64_t>(
                    telemetry::SamplerConfig{}.interval_ns))),
            telemetry::SamplerConfig{}.capacity}) {}

  /// Flags::allow_only with the harness's standard names spliced in; pass
  /// only the bench-specific extras.
  void allow_only(const util::Flags& flags,
                  std::vector<std::string> extras) const {
    extras.insert(extras.end(),
                  {"seed", "metrics-out", "trace-out", "trace-capacity",
                   "coalesce-max-writes", "coalesce-max-ns", "ack-delay-ns",
                   "prom-out", "timeseries-out", "sample-interval-ns",
                   "journal-out", "journal-capacity"});
    flags.allow_only(extras);
  }

  /// Pushes the standard knobs into a run's DsmConfig. Wires the flight
  /// recorder in when --trace-out was requested; the causal tracer is
  /// always attached (an untraced op costs one branch per hook).
  void apply(dsm::DsmConfig& cfg) {
    cfg.coalesce_max_writes = coalesce_max_writes_;
    cfg.coalesce_max_ns = coalesce_max_ns_;
    cfg.reliable.ack_delay_ns = ack_delay_ns_;
    if (tracing()) cfg.recorder = &recorder_;
    cfg.tracer = &tracer_;
    if (journaling()) cfg.journal = &journal_;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::uint32_t coalesce_max_writes() const {
    return coalesce_max_writes_;
  }
  [[nodiscard]] sim::Duration ack_delay_ns() const { return ack_delay_ns_; }

  [[nodiscard]] bool tracing() const { return !trace_out_.empty(); }
  [[nodiscard]] bool sampling() const {
    return !prom_out_.empty() || !timeseries_out_.empty();
  }
  [[nodiscard]] bool journaling() const { return !journal_out_.empty(); }
  [[nodiscard]] trace::Recorder& recorder() { return recorder_; }
  [[nodiscard]] telemetry::Tracer& tracer() { return tracer_; }
  [[nodiscard]] telemetry::Sampler& sampler() { return sampler_; }
  [[nodiscard]] telemetry::Journal& journal() { return journal_; }
  [[nodiscard]] MetricsOut& metrics() { return metrics_; }

  /// End-of-run writes: the Chrome trace (when requested), the telemetry
  /// exports (when requested), and the metrics document. False on any I/O
  /// failure so mains can exit nonzero.
  [[nodiscard]] bool finish() {
    bool ok = true;
    if (tracing()) {
      std::ofstream out(trace_out_);
      if (!out) {
        std::cerr << "error: cannot open --trace-out file: " << trace_out_
                  << "\n";
        ok = false;
      } else {
        trace::write_chrome_trace(out, recorder_, &tracer_);
        std::cout << "trace written to " << trace_out_ << " ("
                  << recorder_.size() << " events; load in Perfetto or"
                  << " chrome://tracing)\n";
      }
    }
    if (!prom_out_.empty()) {
      std::ofstream out(prom_out_);
      if (!out) {
        std::cerr << "error: cannot open --prom-out file: " << prom_out_
                  << "\n";
        ok = false;
      } else {
        sampler_.series().write_prometheus(out);
        std::cout << "prometheus exposition written to " << prom_out_ << "\n";
      }
    }
    if (!timeseries_out_.empty()) {
      std::ofstream out(timeseries_out_);
      if (!out) {
        std::cerr << "error: cannot open --timeseries-out file: "
                  << timeseries_out_ << "\n";
        ok = false;
      } else {
        sampler_.series().write_json(out, sampler_.interval_ns());
        std::cout << "timeseries written to " << timeseries_out_ << "\n";
      }
    }
    if (journaling()) {
      std::ofstream out(journal_out_);
      if (!out) {
        std::cerr << "error: cannot open --journal-out file: " << journal_out_
                  << "\n";
        ok = false;
      } else {
        journal_.write_json(out);
        out << "\n";
        std::cout << "journal written to " << journal_out_ << " ("
                  << journal_.size() << " events";
        if (journal_.dropped() > 0) {
          std::cout << ", " << journal_.dropped() << " dropped";
        }
        std::cout << ")\n";
      }
    }
    if (!metrics_.write()) ok = false;
    return ok;
  }

 private:
  MetricsOut metrics_;
  std::string trace_out_;
  std::string prom_out_;
  std::string timeseries_out_;
  std::string journal_out_;
  telemetry::Journal journal_;
  std::uint64_t seed_;
  std::uint32_t coalesce_max_writes_;
  sim::Duration coalesce_max_ns_;
  sim::Duration ack_delay_ns_;
  trace::Recorder recorder_;
  telemetry::Tracer tracer_;
  telemetry::Sampler sampler_;
};

}  // namespace optsync::benchio

namespace optsync::bench {
using benchio::Harness;    // canonical alias: bench::Harness
using benchio::MetricsOut;
}  // namespace optsync::bench
