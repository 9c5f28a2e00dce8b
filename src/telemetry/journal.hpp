// Structured decision journal: a bounded, pooled ring of typed records
// explaining *why* the speculative layers did what they did — txn aborts
// with a reason taxonomy and the conflicting orec stripe + owner, lease
// grant/invalidation/expiry with epoch deltas, and every elastic-controller
// ladder step with the exact inputs that triggered it.
//
// Counters answer "how many"; the journal answers "which one, and why".
// Records are flat PODs appended into a preallocated pool (same idiom as
// the Tracer's span ring): once `capacity` records are written, further
// appends are counted in `dropped()` and discarded — forensics must never
// perturb the run it is explaining.
//
// `write_json` emits the "optsync-journal/1" document consumed by
// tools/dsm_inspect (schema documented in PROTOCOL.md):
//
//   {
//     "schema": "optsync-journal/1",
//     "dropped": <n>,
//     "events": [ {"kind": "txn_abort", "t": ..., ...}, ... ]
//   }
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "simkern/time.hpp"

namespace optsync::telemetry {

/// Why a transaction attempt died. The first three partition the abort
/// counter exactly (read_clobber + validation + dir_epoch == txn_aborts);
/// fallback escalation is journaled as its own record kind and counted
/// separately (it ends the *optimistic* phase, not an attempt mid-flight).
enum class AbortReason : std::uint8_t {
  kReadSetClobber = 0,   // doomed by a clobber interrupt before commit
  kCommitValidation,     // orec version moved under a plain read
  kDirectoryEpoch,       // elastic directory stripe changed (stale routing)
  kFallbackEscalation,   // contention manager gave up on speculation
};

[[nodiscard]] const char* abort_reason_name(AbortReason r);

class Journal {
 public:
  enum class Kind : std::uint8_t {
    kTxnAbort = 0,
    kLeaseGrant,
    kLeaseInvalidation,
    kLeaseExpiry,
    kElasticDecision,
    kTxnRepair,
  };

  /// One flat record; which fields are meaningful depends on `kind` (the
  /// JSON export only emits the relevant subset). Kept POD so the pool is
  /// a single allocation.
  struct Event {
    Kind kind = Kind::kTxnAbort;
    sim::Time t = 0;
    // txn abort
    AbortReason reason = AbortReason::kReadSetClobber;
    std::uint32_t node = 0;    // aborting txn's node / lease holder node
    std::uint32_t shard = 0;   // conflict shard / lease shard / ladder shard
    std::uint32_t stripe = 0;  // conflicting orec stripe / lease slot
    std::uint32_t owner = 0;   // conflicting writer (or root) node
    std::uint32_t attempt = 0; // abort count for this op so far (repair:
                               // the attempt that repaired, 1-based)
    std::uint32_t stale_stripes = 0;  // txn repair: stripes re-run
    // lease (epoch delta at grant/invalidation/expiry)
    std::uint64_t epoch_old = 0;
    std::uint64_t epoch_new = 0;
    // elastic ladder step + triggering inputs
    const char* step = nullptr;  // "promote", "swap_pin", "split", ...
    std::uint32_t target = 0;    // destination shard / stripe / group
    double slope_per_s = 0.0;
    double peak_backlog = 0.0;
    double backlog = 0.0;
    std::uint64_t top_key = 0;
    double top_share = 0.0;
    std::uint32_t streak = 0;
    std::uint32_t cooldown = 0;
  };

  explicit Journal(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    events_.reserve(capacity_);
  }

  // -- typed append helpers (the only write API) --------------------------

  void txn_abort(sim::Time t, AbortReason reason, std::uint32_t node,
                 std::uint32_t shard, std::uint32_t stripe,
                 std::uint32_t owner, std::uint32_t attempt) {
    Event e;
    e.kind = Kind::kTxnAbort;
    e.t = t;
    e.reason = reason;
    e.node = node;
    e.shard = shard;
    e.stripe = stripe;
    e.owner = owner;
    e.attempt = attempt;
    push(e);
  }

  /// A commit that re-ran `stale_stripes` stale covered stripes under its
  /// locks instead of aborting; (shard, stripe) is the first stale one.
  void txn_repair(sim::Time t, std::uint32_t node, std::uint32_t shard,
                  std::uint32_t stripe, std::uint32_t attempt,
                  std::uint32_t stale_stripes) {
    Event e;
    e.kind = Kind::kTxnRepair;
    e.t = t;
    e.node = node;
    e.shard = shard;
    e.stripe = stripe;
    e.attempt = attempt;
    e.stale_stripes = stale_stripes;
    push(e);
  }

  void lease_grant(sim::Time t, std::uint32_t node, std::uint32_t shard,
                   std::uint32_t slot, std::uint64_t epoch_old,
                   std::uint64_t epoch_new) {
    push(lease_event(Kind::kLeaseGrant, t, node, shard, slot, epoch_old,
                     epoch_new));
  }

  void lease_invalidation(sim::Time t, std::uint32_t node, std::uint32_t shard,
                          std::uint32_t slot, std::uint64_t epoch_old,
                          std::uint64_t epoch_new) {
    push(lease_event(Kind::kLeaseInvalidation, t, node, shard, slot, epoch_old,
                     epoch_new));
  }

  void lease_expiry(sim::Time t, std::uint32_t node, std::uint32_t shard,
                    std::uint32_t slot, std::uint64_t epoch) {
    push(lease_event(Kind::kLeaseExpiry, t, node, shard, slot, epoch, epoch));
  }

  /// `step` must point at a string with static storage duration.
  void elastic_decision(sim::Time t, const char* step, std::uint32_t shard,
                        std::uint32_t target, double slope_per_s,
                        double peak_backlog, double backlog,
                        std::uint64_t top_key, double top_share,
                        std::uint32_t streak, std::uint32_t cooldown) {
    Event e;
    e.kind = Kind::kElasticDecision;
    e.t = t;
    e.step = step;
    e.shard = shard;
    e.target = target;
    e.slope_per_s = slope_per_s;
    e.peak_backlog = peak_backlog;
    e.backlog = backlog;
    e.top_key = top_key;
    e.top_share = top_share;
    e.streak = streak;
    e.cooldown = cooldown;
    push(e);
  }

  // -- inspection ---------------------------------------------------------

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t count(Kind k) const;

  /// Emits the optsync-journal/1 document (see header comment).
  void write_json(std::ostream& out) const;

  [[nodiscard]] static const char* kind_name(Kind k);

 private:
  static Event lease_event(Kind kind, sim::Time t, std::uint32_t node,
                           std::uint32_t shard, std::uint32_t slot,
                           std::uint64_t epoch_old, std::uint64_t epoch_new) {
    Event e;
    e.kind = kind;
    e.t = t;
    e.node = node;
    e.shard = shard;
    e.stripe = slot;
    e.epoch_old = epoch_old;
    e.epoch_new = epoch_new;
    return e;
  }

  void push(const Event& e) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  std::size_t capacity_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace optsync::telemetry
