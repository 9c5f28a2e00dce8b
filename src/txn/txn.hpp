// Optimistic multi-key transactions over GWC (the paper's speculation
// machinery generalized from one critical section to serializable
// multi-site transactions — the orec-eager STM design mapped onto DSM).
//
// A transaction runs in three phases on its node:
//
//   SPECULATE — writes go to local memory only (DsmNode::poke, never
//     write: a speculative update must not reach the root, where fault
//     retiming could sequence it after the transaction aborted). The old
//     value of every written variable is journaled first (the undo log —
//     core::RollbackJournal's save/restore idiom with one extension: a
//     clobber-aware skip, below). Reads record the orec version of the
//     stripe they touched (optimistic read versioning, zero traffic).
//
//   DETECT — every written variable is armed with a change interrupt
//     (Fig. 5 machinery). A sequenced foreign write arriving to a
//     write-set variable means some other transaction committed a
//     conflicting update: the handler marks the variable CLOBBERED and
//     refreshes its restore image to the foreign value (the group's
//     authoritative state — an abort must converge on it, not on the
//     stale pre-image). Whether the clobber also DOOMS the transaction
//     depends on the conflict kind (encounter-time detection): a clobber
//     on a stripe the transaction READ kills it — its speculation is
//     built on superseded state — while a blind write survives, because
//     the commit republishes the whole write-set under the stripe locks
//     (strict two-phase locking at commit keeps write-write races
//     serializable: the loser's update is simply ordered first).
//
//   COMMIT — the stripe locks of the write-set are acquired in canonical
//     order (ascending lock VarId — the same global order MultiGroupMutex
//     uses, so the optimistic and fallback paths are jointly
//     deadlock-free), as ONE lock-set request per site: the site root
//     grants the set in ascending stripe order, so a commit pays one
//     round trip per site however many stripes it writes there. Once
//     every grant has applied locally, GWC's grant-follows-data property
//     makes the local replicas of the locked orec stripes exactly the
//     owning roots' view, so read-set validation is a local compare of
//     each observed orec version ("validation at the root" by proxy).
//     On success the write-set is published through the normal sequenced
//     write path (the root's coalesced frames), the touched orec stripes
//     and each write-site's version ledger (the word of the LOWEST stripe
//     lock held there) are bumped under the same locks, and the lock sets
//     release in reverse order. On failure the
//     locks release, the undo log restores each entry's current image
//     (the pre-image, or the clobbering commit's value), and the caller
//     consults the ContentionManager for backoff or irrevocable-fallback
//     escalation. A transaction already doomed when commit starts aborts
//     WITHOUT touching any lock — it lost the race, so it must not add
//     hold time to the locks the winner's readers are queued on.
//
// Read-set entries on stripes whose lock the commit does not hold are
// validated against the local orec replica, which may trail that site's
// root by a propagation delay — the classic OCC validation window.
// Transactions whose read set is covered by their write locks (e.g. the
// store's read-modify-write) are strictly serializable; read-only
// snapshots are per-site consistent (see PROTOCOL.md, "OCC commit
// protocol").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsm/system.hpp"
#include "simkern/coro.hpp"
#include "sync/gwc_lock.hpp"
#include "txn/contention.hpp"
#include "txn/orec.hpp"

namespace optsync::txn {

struct TxnConfig {
  /// Orec stripes per site. Callers that address storage in slots (the
  /// sharded store) must keep this equal to their slot count and pass the
  /// slot index as the stripe, so a write to a slot always bumps the
  /// stripe its readers validated.
  std::uint32_t orec_stripes = 8;

  /// Commit-time validation cost per read-set + write-stripe entry.
  sim::Duration validate_ns_per_entry = 30;

  /// Local-memory cost to journal / restore one undo entry (two 8-byte
  /// words through 400 MB/s memory — same model as OptimisticMutex).
  sim::Duration save_ns_per_var = 40;
  sim::Duration restore_ns_per_var = 40;

  ContentionConfig contention;
};

/// One in-flight transaction. Owned by the caller (it lives in the
/// calling coroutine's frame) and must not move between begin() and the
/// end of commit()/abort() — the manager keeps a per-node pointer to it
/// for the clobber interrupt handler.
struct Txn {
  dsm::NodeId node = 0;
  bool active = false;
  /// Set by the clobber interrupt: a conflicting transaction committed a
  /// write into a stripe this transaction READ; the commit must fail.
  bool doomed = false;
  sim::Time began = 0;

  /// Attribution for the doom (first doom wins; later clobbers on an
  /// already-doomed transaction change nothing about why it died).
  bool doom_known = false;
  SiteId doom_site = 0;
  std::uint32_t doom_stripe = 0;
  dsm::NodeId doom_origin = dsm::kNoNode;  ///< the conflicting committer

  struct ReadEntry {
    SiteId site;
    std::uint32_t stripe;
    dsm::Word observed;  ///< orec version at first read
  };
  std::vector<ReadEntry> reads;

  /// Undo log (RollbackJournal's Saved idiom + clobber tracking).
  struct UndoEntry {
    dsm::VarId var;
    dsm::Word before;  ///< restore image: pre-image, or the latest foreign
                       ///< sequenced value once clobbered
    dsm::Word after;   ///< speculative value, published on commit
    bool clobbered = false;
  };
  std::vector<UndoEntry> undo;

  std::vector<std::pair<SiteId, std::uint32_t>> write_stripes;  ///< dedup
  std::vector<SiteId> write_sites;                              ///< dedup
};

class TxnManager {
 public:
  TxnManager(dsm::DsmSystem& sys, TxnConfig cfg);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Registers a site: one sharing group whose stripe locks serialize
  /// commits touching it. Defines the site's orec stripes in `g`. `locks`
  /// (strictly ascending, all in `g`) guard the stripes per
  /// stripe_lock_index; a one-lock site serializes every commit on it.
  /// `versions` (one per lock, versions[i] guarded by locks[i]) is the
  /// site's serializability ledger: commit bumps the word of the lowest
  /// lock it holds on each committing write-site, so their sum counts
  /// commits. Lock ranges of distinct sites must not interleave (one
  /// lock-set request per site must stay in the global ascending order).
  SiteId add_site(const std::string& name, dsm::GroupId g,
                  std::vector<dsm::VarId> locks,
                  std::vector<dsm::VarId> versions);

  [[nodiscard]] const TxnConfig& config() const { return cfg_; }
  [[nodiscard]] OrecTable& orecs() { return orecs_; }
  [[nodiscard]] ContentionManager& contention() { return cm_; }
  [[nodiscard]] std::uint32_t sites() const {
    return static_cast<std::uint32_t>(sites_.size());
  }
  [[nodiscard]] const std::vector<dsm::VarId>& site_locks(SiteId s) const {
    return sites_.at(s).locks;
  }

  // --- transaction lifecycle -------------------------------------------
  /// Starts `t` on node `n`. One transaction per node at a time (a node
  /// is one instruction stream — the Fig. 4 nesting rule).
  void begin(Txn& t, dsm::NodeId n);

  /// Adds (site, stripe) to the read set, recording the orec version the
  /// first time the stripe is seen. Idempotent per stripe.
  void observe(Txn& t, SiteId site, std::uint32_t stripe);

  /// observe() + local read of `v` (read-your-writes: speculative pokes
  /// are visible).
  [[nodiscard]] dsm::Word read_word(Txn& t, SiteId site, std::uint32_t stripe,
                                    dsm::VarId v);

  /// Speculative write: journals the pre-image (first write to `v`), arms
  /// the clobber interrupt, pokes the value into local memory. No network
  /// traffic until commit. No-op on a doomed transaction (it is about to
  /// abort; further speculation is wasted work).
  void write_word(Txn& t, SiteId site, std::uint32_t stripe, dsm::VarId v,
                  dsm::Word value);

  /// Speculative compute of `d` ns on t's node that ends early the moment
  /// a clobber dooms `t` — the §4 interrupt semantics: a failed
  /// speculation stops at the interrupt instead of finishing work the
  /// abort will discard. Use as: co_await mgr.speculate_for(t, d).join();
  sim::Process speculate_for(Txn& t, sim::Duration d);

  struct CommitResult {
    bool committed = false;
    bool doomed_at_commit = false;    ///< killed by a clobber interrupt
    bool validation_failed = false;   ///< read-set orec version moved
    sim::Time locks_acquired_at = 0;  ///< all write locks held (0 if none)
    /// Conflict attribution for the forensics journal: the (site, stripe)
    /// whose orec killed this attempt — the doom site for clobber aborts,
    /// the first failing read-set entry for validation aborts. The origin
    /// node is known for dooms (the clobbering writer); validation sees
    /// only the moved version, so origin stays kNoNode there.
    bool has_conflict = false;
    SiteId conflict_site = 0;
    std::uint32_t conflict_stripe = 0;
    dsm::NodeId conflict_origin = dsm::kNoNode;
  };

  /// Runs the commit protocol; on failure the transaction is fully
  /// aborted (undo restored, interrupts disarmed) before this completes.
  /// Use as: co_await mgr.commit(t, &res).join();
  sim::Process commit(Txn& t, CommitResult* out);

  /// Explicit abort: restore the undo log (clobbered entries restore the
  /// foreign committed value), disarm, finish. Charged the per-entry
  /// restore cost.
  sim::Process abort(Txn& t);

  // --- counters ----------------------------------------------------------
  [[nodiscard]] std::uint64_t begun() const { return begun_; }
  [[nodiscard]] std::uint64_t commits() const { return commits_; }
  [[nodiscard]] std::uint64_t aborts() const { return aborts_; }
  [[nodiscard]] std::uint64_t clobbers_observed() const { return clobbers_; }
  [[nodiscard]] std::uint64_t validation_failures() const {
    return validation_failures_;
  }

 private:
  struct Site {
    dsm::GroupId group = 0;
    std::vector<dsm::VarId> locks;     ///< stripe locks, ascending
    std::vector<dsm::VarId> versions;  ///< ledger words, one per lock
  };

  void arm_clobber(Txn& t, SiteId site, std::uint32_t stripe, dsm::VarId v);
  /// Per-node wake-up for speculate_for: notified when the node's
  /// transaction is doomed.
  sim::Signal& doom_signal(dsm::NodeId n);
  static void note_doom_conflict(const Txn& t, CommitResult* out);
  void finish(Txn& t);
  sim::Process abort_impl(Txn& t);

  dsm::DsmSystem* sys_;
  TxnConfig cfg_;
  OrecTable orecs_;
  ContentionManager cm_;
  std::vector<Site> sites_;
  std::unordered_map<dsm::NodeId, Txn*> active_;
  std::unordered_map<dsm::NodeId, std::unique_ptr<sim::Signal>> doom_signals_;
  std::uint64_t begun_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t aborts_ = 0;
  std::uint64_t clobbers_ = 0;
  std::uint64_t validation_failures_ = 0;
};

}  // namespace optsync::txn
