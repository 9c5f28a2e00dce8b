// The group root: sequencing arbiter and lock manager (paper §1.2, §2, §4).
//
// Every eagershared write of the group funnels to the root, which assigns a
// group-wide sequence number and multicasts it down the spanning tree. The
// root doubles as the lock manager for all lock variables of the group: lock
// requests and releases are consumed here and turned into sequenced grant /
// free writes. For optimistic synchronization the root additionally filters
// mutex-data writes from nodes that do not hold the guard lock ("the group
// root can suppress propagation of improper data changes", §4).
//
// Lock sets: a node that needs several locks of one group (the stripe
// locks a multi-key commit touches on one shard) sends them as ONE
// lock-set message (on_lock_set). The root grants the set itself, in
// ascending VarId order: every free lock is granted at once, and the
// requester queues at the first busy one; when that lock is handed to it,
// the root resumes the set from the next lock. Grants emitted while one
// arrival is processed share one frame. A set holder therefore waits only
// at locks above the ones it holds — the global ascending-VarId order
// every multi-lock path follows (core/multi_group_mutex.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dsm/frame.hpp"
#include "dsm/types.hpp"
#include "simkern/scheduler.hpp"
#include "util/ring.hpp"

namespace optsync::dsm {

class DsmSystem;

class GroupRoot {
 public:
  GroupRoot(DsmSystem& sys, GroupId gid);
  GroupRoot(const GroupRoot&) = delete;
  GroupRoot& operator=(const GroupRoot&) = delete;

  /// An eagershared write from `origin` arrives at the root. `ctx` is the
  /// causal context the message carried (invalid for untraced traffic);
  /// lock requests park it in the waiter queue so the eventual grant can
  /// be attributed to the requester's trace.
  void on_arrival(NodeId origin, VarId v, Word value,
                  telemetry::SpanContext ctx = {});

  /// A lock-set message from `origin` arrives: `locks` (this group's,
  /// strictly ascending) all requested by `origin` (value ==
  /// lock_request_value(origin)) or all released (value == kLockFree).
  void on_lock_set(NodeId origin, const std::vector<VarId>& locks, Word value,
                   telemetry::SpanContext ctx = {});

  /// Queue-lock state for one lock variable. The waiter queue is a flat
  /// ring buffer (deque surface, no per-node allocation): one push/pop per
  /// contended request sits on the sequencing hot path.
  struct LockState {
    NodeId holder = kNoNode;
    util::Ring<NodeId> queue;
    std::uint64_t requests = 0;
    std::uint64_t immediate_grants = 0;  ///< granted without queueing
    std::uint64_t queued_grants = 0;     ///< granted from the queue
    std::uint64_t releases = 0;
    std::size_t max_queue_depth = 0;
  };
  [[nodiscard]] const LockState& lock_state(VarId lock) const;

  struct Stats {
    std::uint64_t sequenced = 0;
    std::uint64_t speculative_drops = 0;  ///< filtered non-holder writes (§4)
    std::uint64_t frames = 0;             ///< multicast frames flushed
    std::uint64_t size_flushes = 0;       ///< frames closed by the size cap
    std::uint64_t timer_flushes = 0;      ///< frames closed by coalesce_max_ns
    std::size_t max_frame_writes = 0;     ///< largest frame shipped
    std::uint64_t lock_set_requests = 0;  ///< multi-lock request messages
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Flushes the pending frame now, if any (tests and shutdown barriers;
  /// normal operation flushes on the size cap or the coalesce timer).
  void flush();

  /// Writes sequenced but not yet multicast (the open frame's size).
  [[nodiscard]] std::size_t pending_writes() const {
    return pending_.writes.size();
  }

  // --- frame observation -------------------------------------------------
  /// Hook invoked on every frame flush, after the flush is sequenced but
  /// before the frame is multicast (the writes vector is swapped into the
  /// payload pool by multicast_frame, so this is the last point the frame
  /// is observable in place). The lease directory taps flushes here: the
  /// flush instant is when a frame's writes become the group's committed
  /// order, so lease epochs revoked inside the observer are revoked at
  /// exactly the GWC commit point. One observer per root (last set wins).
  using FrameObserver = std::function<void(const Frame&)>;
  void set_frame_observer(FrameObserver fn) { observer_ = std::move(fn); }

  [[nodiscard]] GroupId group() const { return gid_; }
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  // --- online root migration (elastic::RootMigrator) ---------------------
  /// Quiesces the sequencer for a root handoff: the open coalesce frame is
  /// flushed (so the outgoing root's last frame is on the wire), and from
  /// this call every arriving write — lock words included — is parked in a
  /// bounded handoff log instead of being admitted. The sequencer state
  /// (next_seq_, lock table, waiter queues) is frozen at the cut.
  void begin_quiesce();

  /// Ends the quiesce after the group has been re-rooted: replays the
  /// handoff log through on_arrival() in original arrival order, so writes
  /// that raced the handoff are sequenced by the new root with no gap and
  /// no reordering. GWC order is one uninterrupted stream across the cut.
  void end_quiesce();

  [[nodiscard]] bool quiesced() const { return quiesced_; }
  [[nodiscard]] std::size_t handoff_log_size() const {
    return handoff_log_.size();
  }

  /// Total queued waiters across all lock variables — the waiter-queue
  /// portion of the state a migration must transfer to the successor.
  [[nodiscard]] std::size_t waiter_queue_depth() const;

  struct MigrationStats {
    std::uint64_t quiesces = 0;
    std::uint64_t handoff_logged = 0;    ///< writes parked during quiesce
    std::uint64_t handoff_replayed = 0;  ///< writes replayed at end_quiesce
    std::size_t max_handoff_log = 0;
  };
  [[nodiscard]] const MigrationStats& migration_stats() const {
    return mig_stats_;
  }

 private:
  /// Grants `locks` to `requester` in order, from the first: each free
  /// lock at once; at the first busy one the requester queues and the
  /// rest of the set is parked until that lock is handed over.
  void request_locks(NodeId requester, std::span<const VarId> locks,
                     telemetry::SpanContext ctx);
  void release_lock(NodeId origin, VarId v, telemetry::SpanContext ctx);
  void multicast(VarId v, Word value, NodeId origin,
                 telemetry::SpanContext ctx = {});
  void flush_pending(bool timer_fired);
  /// Lock cut-through: ships the open frame if the arrival just handled
  /// sequenced a lock word — every grant and free of one arrival (a whole
  /// lock set) rides in one frame.
  void flush_cut_through();

  static constexpr std::uint32_t kNoSet = ~0u;

  /// Trace metadata for queued lock waiters, kept in lockstep with
  /// LockState::queue (only request_locks/release_lock push/pop either). A
  /// side ring so the public LockState stays a plain NodeId queue. `set`
  /// indexes the parked remainder of a lock-set request (kNoSet: none).
  struct WaiterMeta {
    telemetry::SpanContext ctx{};
    sim::Time enqueued_at = 0;
    std::uint32_t set = kNoSet;
  };

  /// One lock variable's full root-side state, indexed by the lock's
  /// dense VarInfo::lock_index — a lookup is one vector index however
  /// many locks the group holds (a shard holds one per slot stripe).
  struct LockEntry {
    LockState state;
    util::Ring<WaiterMeta> meta;
  };
  LockEntry& lock_entry(VarId v);
  /// The entry of `v` when it is one of this group's locks, else nullptr.
  [[nodiscard]] const LockEntry* find_lock(VarId v) const;

  /// One write (or lock set: `set` non-empty) parked while the root is
  /// quiesced for migration.
  struct HeldArrival {
    NodeId origin;
    VarId var;
    Word value;
    telemetry::SpanContext ctx;
    std::vector<VarId> set;
  };
  /// Parks an arrival in the handoff log while quiesced.
  void park(HeldArrival h);

  DsmSystem* sys_;
  GroupId gid_;
  std::uint64_t next_seq_ = 1;
  std::vector<LockEntry> locks_;
  /// Parked lock-set remainders (locks still to grant, ascending), with a
  /// free list; WaiterMeta::set points here.
  std::vector<std::vector<VarId>> sets_;
  std::vector<std::uint32_t> free_sets_;
  bool cut_pending_ = false;  ///< a lock word awaits flush_cut_through()
  Frame pending_;                 ///< open frame awaiting flush
  FrameObserver observer_;        ///< flush tap (lease directory)
  sim::EventId flush_timer_ = 0;  ///< 0 = not armed
  /// Frame size cap and partial-frame deadline, read from DsmConfig once.
  const std::uint32_t coalesce_writes_;
  const sim::Duration coalesce_ns_;
  bool quiesced_ = false;
  std::vector<HeldArrival> handoff_log_;
  MigrationStats mig_stats_;
  Stats stats_;
};

}  // namespace optsync::dsm
