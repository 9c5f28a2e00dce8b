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
//     stale pre-image). What the clobber does to the transaction depends
//     on the conflict kind (encounter-time detection). A blind write
//     survives, because the commit republishes the whole write-set under
//     the stripe locks (strict two-phase locking at commit keeps
//     write-write races serializable: the loser's update is simply
//     ordered first). A clobber on a stripe the transaction READ means
//     its speculation is built on superseded state. If the transaction
//     also writes that stripe (a COVERED stripe) and carries a repair
//     step, the stripe is only marked STALE: commit re-runs its share of
//     the body under the stripe's lock (§4: roll back, take the grant,
//     re-execute under the lock). Otherwise the clobber DOOMS the
//     transaction. A transaction with a repair step also arms the
//     variables it only reads, so a commit on a read-only stripe dooms it
//     at encounter time instead of at validation.
//
//   COMMIT — the stripe locks of the write-set are acquired in canonical
//     order (ascending lock VarId — the same global order MultiGroupMutex
//     uses, so the optimistic and fallback paths are jointly
//     deadlock-free), as ONE lock-set request per site: the site root
//     grants the set in ascending stripe order, so a commit pays one
//     round trip per site however many stripes it writes there. Once
//     every grant has applied locally, GWC's grant-follows-data property
//     makes the local replicas of the locked stripes exactly the owning
//     roots' view. Read-set validation is then a local compare of each
//     observed orec version ("validation at the root" by proxy). A moved
//     orec on a covered stripe of a transaction with a repair step marks
//     the stripe stale; on any other read-set stripe it fails validation.
//     REPAIR: each undo entry's restore image is now the owning root's
//     value, so commit rewinds the stale stripes' entries to those
//     images and calls the repair step, which re-runs only the stale
//     stripes' share of the body against them; its compute is charged
//     under the locks. On success the write-set is published through the
//     normal sequenced write path (the root's coalesced frames), the
//     touched orec stripes and each write-site's version ledger (the word
//     of the LOWEST stripe lock held there) are bumped under the same
//     locks, and the lock sets release in reverse order. On failure the
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
// store's read-modify-write) are strictly serializable: a repaired body
// reads exactly the state its locks order it after, so a covered
// conflict never aborts it — only uncovered reads can. Read-only
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
#include "util/small_fn.hpp"

namespace optsync::txn {

/// One orec stripe of one site.
using StripeRef = std::pair<SiteId, std::uint32_t>;

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
  /// Commit-time repair step (§4 re-execution under the lock). Set it
  /// right after begin(). Called with the stale stripes once commit holds
  /// every write lock and has rewound those stripes' undo entries to
  /// their committed images; it must re-run the body's share on exactly
  /// those stripes through read_word/write_word, and returns the compute
  /// to charge under the locks. Without it, covered conflicts doom.
  using RepairFn =
      util::SmallFn<sim::Duration(Txn&, const std::vector<StripeRef>&)>;
  RepairFn repair;

  dsm::NodeId node = 0;
  bool active = false;
  /// Set by the clobber interrupt: a conflicting transaction committed a
  /// write into a stripe this transaction READ and cannot repair; the
  /// commit must fail.
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
    StripeRef stripe;  ///< the (site, stripe) it was written under
  };
  std::vector<UndoEntry> undo;

  std::vector<StripeRef> write_stripes;  ///< dedup
  std::vector<SiteId> write_sites;       ///< dedup
  /// Covered stripes a conflict invalidated (dedup, detection order);
  /// commit repairs them. Stays readable after commit for forensics.
  std::vector<StripeRef> stale;
  /// Variables read_word armed (repair-step transactions only), so a
  /// foreign commit to a read-only stripe dooms at encounter time.
  std::vector<dsm::VarId> watched;
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
  /// are visible). A transaction with a repair step also arms `v`, so a
  /// foreign commit to it dooms the transaction unless the stripe is
  /// covered (then it marks the stripe stale).
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

  /// The value the group has committed for `v`, as `t` knows it: a
  /// write-set variable's restore image (its pre-image, or the latest
  /// clobbering commit's value), otherwise the local replica. Once commit
  /// holds the lock of `v`'s stripe this is the owning root's value — the
  /// state a repair re-runs against.
  [[nodiscard]] dsm::Word committed_word(const Txn& t, dsm::VarId v) const;

  struct CommitResult {
    bool committed = false;
    bool doomed_at_commit = false;    ///< killed by a clobber interrupt
    bool validation_failed = false;   ///< read-set orec version moved
    sim::Time locks_acquired_at = 0;  ///< all write locks held (0 if none)
    /// Stale covered stripes the repair step re-ran under the locks
    /// (Txn::stale lists them); 0 when the attempt needed no repair.
    std::uint32_t repaired_stripes = 0;
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
  /// Commits that re-ran at least one stale covered stripe.
  [[nodiscard]] std::uint64_t repairs() const { return repairs_; }
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
  /// True when `t` can repair a conflict on (site, stripe): it carries a
  /// repair step and writes the stripe, so commit will hold its lock.
  static bool repairable(const Txn& t, SiteId site, std::uint32_t stripe);
  static void mark_stale(Txn& t, SiteId site, std::uint32_t stripe);
  /// Rewinds the stale stripes' undo entries to their committed images
  /// and runs t's repair step; returns the compute it charged.
  sim::Duration run_repair(Txn& t);
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
  std::uint64_t repairs_ = 0;
  std::uint64_t clobbers_ = 0;
  std::uint64_t validation_failures_ = 0;
};

}  // namespace optsync::txn
