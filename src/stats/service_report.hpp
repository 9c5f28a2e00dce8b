// Service-wide SLO accounting for the sharded DSM service layer.
//
// One ServiceReport describes one service run: per-shard request counts and
// latency distributions tagged by operation class (read / write / txn),
// the shard's lock flight record (stats::LockStats), the shard root's
// sequencing/frame rollup, and the per-shard serializability ledger
// (final version word vs. writes committed under the lock — the
// counter-exactness invariant, per shard).
//
// load::Generator fills the request-side fields while it drives traffic;
// shard::ShardedStore fills the lock/root/ledger side at end of run
// (ShardedStore::fill_report). Benches serialize shards into their
// --metrics-out rows and locks arrays; format() renders the human table.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "simkern/time.hpp"
#include "stats/histogram.hpp"
#include "stats/lock_stats.hpp"
#include "stats/metrics.hpp"

namespace optsync::stats {

/// Operation classes the service distinguishes. kTxn is a multi-key write
/// crossing shard (and therefore root) boundaries; kRmw is a multi-key
/// read-modify-write (YCSB-F idiom). Both commit through the store's
/// configured TxnMode (OCC or legacy MultiGroupMutex).
enum class ServiceOp { kRead = 0, kWrite = 1, kTxn = 2, kRmw = 3 };
inline constexpr std::size_t kServiceOpCount = 4;

constexpr std::string_view service_op_name(ServiceOp op) {
  switch (op) {
    case ServiceOp::kRead:
      return "read";
    case ServiceOp::kWrite:
      return "write";
    case ServiceOp::kTxn:
      return "txn";
    case ServiceOp::kRmw:
      return "rmw";
  }
  return "?";
}

/// Request-side accounting for one (shard, operation class) pair.
struct ServiceOpStats {
  std::uint64_t issued = 0;     ///< requests routed here (open-loop arrivals)
  std::uint64_t completed = 0;  ///< requests finished
  /// Arrival-to-completion latency, including client queueing delay — the
  /// open-loop (coordinated-omission-free) figure an SLO is stated over.
  Histogram latency_ns;
};

/// Everything the service knows about one shard at end of run.
struct ShardServiceStats {
  std::uint32_t shard = 0;
  std::string lock_name;

  std::array<ServiceOpStats, kServiceOpCount> ops;
  [[nodiscard]] ServiceOpStats& op(ServiceOp o) {
    return ops[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] const ServiceOpStats& op(ServiceOp o) const {
    return ops[static_cast<std::size_t>(o)];
  }

  /// The flight record of the shard's stripe locks (acquire/hold
  /// percentiles, speculation ledger). Filled by ShardedStore.
  LockStats lock;

  // --- root rollup (GroupRoot::Stats excerpt) -------------------------
  std::uint64_t sequenced = 0;
  std::uint64_t frames = 0;
  std::uint64_t max_frame_writes = 0;

  // --- serializability ledger -----------------------------------------
  /// Final value of the shard's version word, bumped once per committed
  /// write section. Must equal committed_writes (per-shard counter
  /// exactness: mutual exclusion + serializability, invariant 2).
  std::int64_t version = 0;
  std::uint64_t committed_writes = 0;

  // --- OCC transaction rollup (TxnMode::kOcc) ---------------------------
  /// Cross-shard transactions that committed / aborted / retried with
  /// this shard involved, and escalations to the irrevocable fallback.
  std::uint64_t txn_commits = 0;
  std::uint64_t txn_aborts = 0;
  std::uint64_t txn_retries = 0;
  std::uint64_t txn_fallbacks = 0;
  /// Commits that re-ran a stale stripe of this shard under its lock
  /// instead of aborting (covered-conflict repair; not in txn_aborts).
  std::uint64_t txn_repairs = 0;

  // --- abort forensics (telemetry/journal.hpp taxonomy) ------------------
  /// Reason partition of txn_aborts. Invariant (per shard and in total):
  /// aborts_read_clobber + aborts_validation + aborts_dir_epoch ==
  /// txn_aborts. Fallback escalations are counted in txn_fallbacks, not
  /// here — an escalation ends the optimistic phase, it is not an abort.
  std::uint64_t aborts_read_clobber = 0;
  std::uint64_t aborts_validation = 0;
  std::uint64_t aborts_dir_epoch = 0;
  /// Conflict heatmap: aborts attributed to each orec stripe of THIS
  /// shard (slots_per_shard entries + the elastic directory stripe last).
  std::vector<std::uint64_t> stripe_conflicts;

  /// The abort-reason partition sums back to the abort counter.
  [[nodiscard]] bool abort_reasons_consistent() const {
    return aborts_read_clobber + aborts_validation + aborts_dir_epoch ==
           txn_aborts;
  }

  /// aborts / (commits + aborts); 0 when the shard saw no transactions.
  [[nodiscard]] double txn_abort_rate() const {
    const double total =
        static_cast<double>(txn_commits) + static_cast<double>(txn_aborts);
    return total > 0.0 ? static_cast<double>(txn_aborts) / total : 0.0;
  }

  // --- lease tier rollup (shard::LeaseManager, partial replication) ------
  /// Client reads served from a valid local lease (zero messages).
  std::uint64_t lease_hits = 0;
  /// Lease grants issued by this shard's root (client read misses).
  std::uint64_t lease_grants = 0;
  /// Per-holder invalidation records shipped at frame flushes.
  std::uint64_t lease_invalidations = 0;
  /// Client reads answered by the root without installing a lease
  /// (ConsistencyLevel::kLinearizable, or the lease tier disabled).
  std::uint64_t remote_reads = 0;
  /// Write/txn operations forwarded to this shard's root for execution
  /// (partial replication routes every mutation through the root's node).
  std::uint64_t forwarded_ops = 0;

  /// Locally served share of client reads; 0 when no client read touched
  /// the shard (the safe_rate idiom: empty windows stay JSON-clean).
  [[nodiscard]] double lease_hit_rate() const {
    const double total = static_cast<double>(lease_hits) +
                         static_cast<double>(lease_grants) +
                         static_cast<double>(remote_reads);
    return total > 0.0 ? static_cast<double>(lease_hits) / total : 0.0;
  }

  // --- elastic fabric rollup (src/elastic/; zero on a static fabric) -----
  /// Node the shard's root sequenced on at end of run — the *effective*
  /// placement, after any root_stride wrap or online migration.
  std::uint32_t root_node = 0;
  std::uint64_t migrations = 0;  ///< root handoffs involving this shard
  std::uint64_t splits = 0;      ///< stripe ranges donated away (on src)
  std::uint64_t merges = 0;      ///< donated ranges taken back (on src)
  std::uint64_t promotions = 0;  ///< hot keys pinned to a hot group (on src)
  std::uint64_t demotions = 0;   ///< pinned keys returned (on home shard)
  std::uint64_t redirects = 0;   ///< stale-epoch ops re-routed/probed here

  // --- overload verdict (telemetry::flag_overload) ---------------------
  /// True when the shard's backlog series shows sustained growth: the
  /// shard is past saturation ("drowning"), not merely slow. Stays false
  /// when no telemetry sampler observed the run.
  bool drowning = false;
  double backlog_slope_per_s = 0.0;  ///< trailing least-squares backlog slope
  double final_backlog = 0.0;        ///< issued - completed at the last sample
  double peak_backlog = 0.0;

  [[nodiscard]] bool serializable() const {
    return version == static_cast<std::int64_t>(committed_writes);
  }
};

struct ServiceReport {
  std::vector<ShardServiceStats> shards;
  sim::Time elapsed_ns = 0;
  std::uint64_t messages = 0;
  double offered_rps = 0.0;  ///< open-loop offered load (filled by generator)
  FaultReport faults;

  [[nodiscard]] std::uint64_t issued() const;
  [[nodiscard]] std::uint64_t completed() const;

  /// `count / window`, with zero-duration windows mapping to 0 rather
  /// than inf/NaN — empty or instant runs must stay JSON-serializable.
  [[nodiscard]] static double safe_rate(double count, sim::Time window_ns);

  /// Completed requests per second of simulated time ("goodput" — every
  /// completed request did real, serializable work).
  [[nodiscard]] double goodput_rps() const;

  /// One shard's completed requests per second over the run window.
  [[nodiscard]] double shard_goodput_rps(std::size_t shard) const;

  /// Shards flagged `drowning` by the overload detector.
  [[nodiscard]] std::uint32_t drowning_shards() const;

  /// All shards' latency distributions for `op`, merged.
  [[nodiscard]] Histogram merged_latency(ServiceOp op) const;

  /// Every shard's version word matches its committed-write count.
  [[nodiscard]] bool serializable() const;

  /// Human-readable summary: service totals plus one row per shard with
  /// completed counts and write p50/p99/p999.
  [[nodiscard]] std::string format() const;
};

}  // namespace optsync::stats
