// Per-lock observability record (tentpole of the metrics layer).
//
// One LockStats describes one *logical* lock — the paper's claims (Fig. 1
// idle time per section, Fig. 7 rollback behaviour, Fig. 8 method costs) are
// all per-lock statements, so every node's OptimisticMutex instance for the
// same lock variable feeds the same record. The simulation is single-
// threaded, so sharing needs no synchronization.
//
// core/ fills the acquisition-side fields (latencies, speculation outcomes,
// EWMA-history gating); dsm/ contributes the root's view (speculative writes
// it filtered). Benches serialize the record into their --metrics-out JSON.
#pragma once

#include <cstdint>
#include <string>

#include "stats/histogram.hpp"
#include "stats/json.hpp"
#include "sync/lock.hpp"

namespace optsync::stats {

struct LockStats {
  std::string name;  ///< lock variable name, e.g. "ctr.lock"

  Histogram acquire_ns;  ///< execute() entry -> lock ownership confirmed
  Histogram hold_ns;     ///< ownership confirmed -> release sent

  std::uint64_t acquisitions = 0;  ///< critical sections completed

  // Speculation outcomes (optimistic path only).
  std::uint64_t speculative_attempts = 0;  ///< sections begun speculatively
  std::uint64_t speculative_commits = 0;   ///< speculation survived to commit
  std::uint64_t rollbacks = 0;             ///< speculation undone mid-section
  /// Shared variables journaled (saved before speculating), summed over
  /// speculative attempts: / speculative_attempts = mean section size, the
  /// per-entry save and restore cost's multiplier.
  std::uint64_t journaled_vars = 0;

  // EWMA usage-history gate decisions at section entry.
  std::uint64_t history_allows = 0;  ///< predicted free -> went optimistic
  std::uint64_t history_vetoes = 0;  ///< predicted contended -> regular path

  /// Speculative mutex-data writes the group root filtered before they
  /// could become visible (dsm/root.cpp). Zero unless root filtering is on.
  std::uint64_t root_speculative_drops = 0;

  [[nodiscard]] double commit_rate() const {
    return speculative_attempts == 0
               ? 0.0
               : static_cast<double>(speculative_commits) /
                     static_cast<double>(speculative_attempts);
  }

  /// Accumulates another record (histograms bucket-wise, counters summed).
  void merge(const LockStats& other);

  /// Folds a lock's unified end-of-run counters (sync::LockStatsView) into
  /// this record — the one-shot alternative to the incremental feeding
  /// OptimisticMutex does through Config::lock_stats. Histograms are left
  /// untouched: a view carries only total/max wait, not a distribution.
  void absorb(const sync::LockStatsView& v);

  /// Serializes as one JSON object: counters plus min/mean/p50/p95/p99/max
  /// for each histogram. Caller is inside an array or keyed position.
  void write_json(JsonWriter& w) const;
};

}  // namespace optsync::stats
