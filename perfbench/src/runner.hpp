// One benchmark run: set up a workload's service stack, replay its planned
// open-loop schedule through shard::Client, check correctness, and collect
// exact per-request samples plus every layer's end-of-run counters.
//
// The replay mirrors load::Generator::run (per-node FIFOs, one worker per
// node, arrival-to-completion latency) but records each request's arrival,
// service start and completion instants itself: those are the benchmark's
// own spans around each Client call, and they give exact percentiles
// instead of the service report's log-bucketed histograms.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/span.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class Rate { kNominal, kOverload };

struct RunSpec {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  Rate rate = Rate::kNominal;
  /// Multiplies the workload's request count (tests run tiny schedules).
  double scale = 1.0;
  /// Attach the causal tracer (telemetry::Tracer) for the per-layer run.
  bool traced = false;
};

/// Correctness gates. Any failure marks the run's numbers invalid.
struct Gates {
  bool complete = true;     ///< every planned request completed
  bool ledger = true;       ///< per-shard version word == committed writes
  bool converged = true;    ///< replicas agree after quiesce
  bool abort_sums = true;   ///< abort-reason partition sums on every shard
  std::uint64_t stale_reads = 0;  ///< StaleReadAuditor violations
  std::uint64_t expirations = 0;  ///< reliable-channel retransmit-cap hits
  bool trace_complete = true;     ///< traced: no orphan/incomplete/dropped

  [[nodiscard]] bool ok() const {
    return complete && ledger && converged && abort_sums && stale_reads == 0 &&
           expirations == 0 && trace_complete;
  }
  /// Names of the failed gates, comma separated ("" when ok()).
  [[nodiscard]] std::string failures() const;
};

/// Exact per-request samples in sim ns, each sorted ascending.
struct Samples {
  std::vector<std::int64_t> all;             ///< arrival -> completion
  std::vector<std::int64_t> read;            ///< reads only
  std::vector<std::int64_t> update;          ///< writes + txn + rmw
  std::vector<std::int64_t> backlog;         ///< arrival -> service start
  std::vector<std::int64_t> read_service;    ///< service start -> end, reads
  std::vector<std::int64_t> update_service;  ///< the same, updates
};

/// End-of-run counters of every layer, summed over shards.
struct Counters {
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  // shard
  std::uint64_t forwarded = 0;
  std::uint64_t client_redirects = 0;
  // shard.lease
  std::uint64_t lease_hits = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_remote_reads = 0;
  std::uint64_t lease_invalidations = 0;
  // txn
  std::uint64_t txn_commits = 0;  ///< TxnManager totals (one per attempt)
  std::uint64_t txn_aborts = 0;
  std::uint64_t txn_retries = 0;  ///< per-shard sums (per involved shard)
  std::uint64_t txn_fallbacks = 0;
  std::uint64_t shard_aborts = 0;
  std::uint64_t aborts_clobber = 0;
  std::uint64_t aborts_validation = 0;
  // core/sync (shard locks, merged)
  double lock_acquire_p50_ns = 0;
  double lock_acquire_p99_ns = 0;
  double lock_hold_p50_ns = 0;
  std::uint64_t spec_attempts = 0;
  std::uint64_t spec_commits = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t history_allows = 0;
  std::uint64_t history_vetoes = 0;
  // dsm
  std::uint64_t sequenced = 0;
  std::uint64_t frames = 0;
  std::uint64_t spec_drops = 0;
  // net
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hop_bytes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_piggybacked = 0;
  // simkern
  std::uint64_t events = 0;
  // elastic
  std::uint64_t elastic_actions = 0;
  std::uint64_t promotions = 0;
  std::uint64_t splits = 0;
  std::uint64_t migrations = 0;
  std::uint64_t quiesce_ns = 0;
};

/// Host wall-clock phases of one run, in seconds.
struct HostTimes {
  double setup_s = 0;   ///< topology + DsmSystem + store + plan + control
  double plan_s = 0;    ///< Generator::plan alone (inside setup_s)
  double loop_s = 0;    ///< the event loop
  double report_s = 0;  ///< fill_report + gates + sample sorting
};

struct RunResult {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  /// Run start to the last completion, sim ns.
  std::int64_t elapsed_ns = 0;
  Samples samples;
  Counters counters;
  Gates gates;
  HostTimes host;
  /// Traced runs: critical-path share of measured latency per
  /// telemetry::Bucket (sums to 1 over all buckets).
  std::array<double, optsync::telemetry::kBucketCount> path_share{};
  /// Hash of every request's (arrival, start, end) plus the network
  /// counters: equal fingerprints mean identical simulations.
  std::uint64_t fingerprint = 0;
};

/// Request count a spec runs (the workload's count for its rate, scaled).
std::uint64_t planned_requests(const RunSpec& spec);

/// Sets up, runs, checks and measures one schedule.
RunResult run_once(const RunSpec& spec);

/// Builds the run's whole stack and tears it down without running it.
/// Returns the set-up time; `plan_s` receives the plan's share.
double time_setup(const RunSpec& spec, double* plan_s);

/// Ordered (name, value) list.
using Metrics = std::vector<std::pair<std::string, double>>;

/// The run's simulated end-to-end metrics (deterministic per seed):
/// goodput, latency percentiles, SLO misses. Names carry no "sat_" prefix;
/// the caller names the overload point.
Metrics sim_metrics(const Workload& w, const RunResult& r);

/// The run's per-layer metrics (everything but the host-time overheads,
/// which need a second run to compare against).
Metrics layer_metrics(const RunResult& r);

}  // namespace perfbench
