#include "dsm/root.hpp"

#include <algorithm>

#include "dsm/system.hpp"
#include "simkern/assert.hpp"
#include "simkern/log.hpp"
#include "telemetry/tracer.hpp"
#include "trace/recorder.hpp"

namespace optsync::dsm {

GroupRoot::GroupRoot(DsmSystem& sys, GroupId gid)
    : sys_(&sys),
      gid_(gid),
      coalesce_writes_(std::max(1u, sys.config().coalesce_max_writes)),
      coalesce_ns_(sys.config().coalesce_max_ns) {}

GroupRoot::LockEntry& GroupRoot::lock_entry(VarId v) {
  const VarInfo& info = sys_->var(v);
  OPTSYNC_EXPECT(info.kind == VarKind::kLock && info.group == gid_);
  // Sized to the group's lock count on first touch of a newer lock, so
  // references into the table stay valid while one arrival is processed.
  if (info.lock_index >= locks_.size()) locks_.resize(sys_->lock_count(gid_));
  return locks_[info.lock_index];
}

const GroupRoot::LockEntry* GroupRoot::find_lock(VarId v) const {
  if (v >= sys_->var_count()) return nullptr;
  const VarInfo& info = sys_->var(v);
  if (info.kind != VarKind::kLock || info.group != gid_ ||
      info.lock_index >= locks_.size()) {
    return nullptr;
  }
  return &locks_[info.lock_index];
}

const GroupRoot::LockState& GroupRoot::lock_state(VarId lock) const {
  static const LockState kIdle;
  const LockEntry* e = find_lock(lock);
  return e != nullptr ? e->state : kIdle;
}

void GroupRoot::on_arrival(NodeId origin, VarId v, Word value,
                           telemetry::SpanContext ctx) {
  const VarInfo& info = sys_->var(v);
  OPTSYNC_EXPECT(info.group == gid_);

  if (quiesced_) {
    park(HeldArrival{origin, v, value, ctx, {}});
    return;
  }

  switch (info.kind) {
    case VarKind::kLock:
      if (value == kLockFree) {
        release_lock(origin, v, ctx);
      } else {
        OPTSYNC_EXPECT(value < 0);  // a request: -(id + 1)
        OPTSYNC_EXPECT(static_cast<NodeId>(-value - 1) == origin);
        request_locks(origin, std::span<const VarId>(&v, 1), ctx);
      }
      flush_cut_through();
      return;

    case VarKind::kMutexData:
      if (sys_->config().root_filters_speculative) {
        // Filtered against the datum's OWN guard lock: with one lock per
        // slot stripe, holding a neighbour stripe's lock is not enough.
        const LockState& ls = lock_state(info.guard);
        if (ls.holder != origin) {
          // §4: "If the local CPU does not have the lock when the new
          // values reach the root, it will discard them."
          ++stats_.speculative_drops;
          sim::log_debug("root g", gid_, " drops speculative write of ",
                         info.name, "=", value, " from n", origin);
          if (auto* rec = sys_->recorder()) {
            trace::Event e;
            e.t = sys_->scheduler().now();
            e.kind = trace::EventKind::kRootDropSpec;
            e.node = sys_->group(gid_).root();
            e.group = gid_;
            e.var = v;
            e.value = value;
            e.origin = origin;
            e.label = var_kind_name(info.kind);
            rec->record(e);
          }
          return;
        }
      }
      multicast(v, value, origin);
      return;

    case VarKind::kData:
      multicast(v, value, origin);
      return;
  }
}

void GroupRoot::park(HeldArrival h) {
  // Root handoff in progress: nothing is admitted — not even lock words —
  // so the sequencer state frozen at begin_quiesce() is exactly what the
  // successor inherits. The arrival is parked and replayed, in arrival
  // order, by end_quiesce(). The log is bounded: a migration stuck long
  // enough to park this much traffic is a protocol bug, not load.
  constexpr std::size_t kHandoffLogCap = 65536;
  OPTSYNC_ENSURE(handoff_log_.size() < kHandoffLogCap);
  handoff_log_.push_back(std::move(h));
  ++mig_stats_.handoff_logged;
  mig_stats_.max_handoff_log =
      std::max(mig_stats_.max_handoff_log, handoff_log_.size());
}

void GroupRoot::on_lock_set(NodeId origin, const std::vector<VarId>& locks,
                            Word value, telemetry::SpanContext ctx) {
  OPTSYNC_EXPECT(!locks.empty());
  if (quiesced_) {
    park(HeldArrival{origin, kNoVar, value, ctx, locks});
    return;
  }
  if (value == kLockFree) {
    for (const VarId v : locks) release_lock(origin, v, ctx);
  } else {
    OPTSYNC_EXPECT(value == lock_request_value(origin));
    ++stats_.lock_set_requests;
    request_locks(origin, locks, ctx);
  }
  flush_cut_through();
}

void GroupRoot::request_locks(NodeId requester, std::span<const VarId> locks,
                              telemetry::SpanContext ctx) {
  const NodeId root = sys_->group(gid_).root();
  for (std::size_t i = 0; i < locks.size(); ++i) {
    LockEntry& entry = lock_entry(locks[i]);
    LockState& ls = entry.state;
    OPTSYNC_EXPECT(ls.holder != requester);  // no nested acquisition (Fig. 4)
    ++ls.requests;
    if (ls.holder == kNoNode) {
      ls.holder = requester;
      ++ls.immediate_grants;
      multicast(locks[i], lock_grant_value(requester), root, ctx);
      continue;
    }
    // Busy: queue the processor id; requests are consumed by the root and
    // never propagate to other members. The rest of a lock set waits here
    // too, parked until this lock is handed over.
    std::uint32_t set = kNoSet;
    if (i + 1 < locks.size()) {
      if (free_sets_.empty()) {
        set = static_cast<std::uint32_t>(sets_.size());
        sets_.emplace_back();
      } else {
        set = free_sets_.back();
        free_sets_.pop_back();
      }
      sets_[set].assign(locks.begin() + static_cast<std::ptrdiff_t>(i + 1),
                        locks.end());
    }
    ls.queue.push_back(requester);
    ls.max_queue_depth = std::max(ls.max_queue_depth, ls.queue.size());
    entry.meta.push_back(WaiterMeta{ctx, sys_->scheduler().now(), set});
    return;
  }
}

void GroupRoot::release_lock(NodeId origin, VarId v,
                             telemetry::SpanContext ctx) {
  LockEntry& entry = lock_entry(v);
  LockState& ls = entry.state;
  // The paper assumes correct bracketing; enforce it.
  OPTSYNC_EXPECT(ls.holder == origin);
  ++ls.releases;
  const NodeId root = sys_->group(gid_).root();
  if (ls.queue.empty()) {
    ls.holder = kNoNode;
    multicast(v, kLockFree, root, ctx);
    return;
  }
  // "The root checks whether any nodes are queued awaiting exclusive
  // access. If so, the next queued number is written as the new lock
  // value" — the grant is appended right after the releaser's data.
  ls.holder = ls.queue.take_front();
  ++ls.queued_grants;
  const WaiterMeta waiter = entry.meta.take_front();
  if (auto* trc = sys_->tracer(); trc != nullptr && waiter.ctx.valid()) {
    // The queue-wait leg of the waiter's trace ends here: the grant is
    // being sequenced into the releaser's frame right now.
    trc->record_span(waiter.ctx.trace, waiter.ctx.span,
                     telemetry::SpanKind::kRootQueue, root,
                     waiter.enqueued_at, sys_->scheduler().now());
  }
  const NodeId holder = ls.holder;
  multicast(v, lock_grant_value(holder), root, waiter.ctx);
  if (waiter.set != kNoSet) {
    // A lock-set waiter: resume granting the rest of its set, in order.
    // The slot is freed only afterwards (request_locks may park anew),
    // and gets its buffer back so the capacity is reused.
    std::vector<VarId> rest;
    rest.swap(sets_[waiter.set]);
    request_locks(holder, rest, waiter.ctx);
    rest.clear();
    sets_[waiter.set].swap(rest);
    free_sets_.push_back(waiter.set);
  }
}

void GroupRoot::flush_cut_through() {
  if (!cut_pending_) return;
  cut_pending_ = false;
  flush_pending(/*timer_fired=*/false);
}

void GroupRoot::multicast(VarId v, Word value, NodeId origin,
                          telemetry::SpanContext ctx) {
  const std::uint64_t seq = next_seq_++;
  ++stats_.sequenced;
  if (auto* rec = sys_->recorder()) {
    trace::Event e;
    e.t = sys_->scheduler().now();
    e.kind = trace::EventKind::kRootSequence;
    e.node = sys_->group(gid_).root();
    e.group = gid_;
    e.var = v;
    e.seq = seq;
    e.value = value;
    e.origin = origin;
    e.guard = sys_->var(v).guard;
    e.label = var_kind_name(sys_->var(v).kind);
    rec->record(e);
  }

  // Coalescing: append into the open frame; ship when the size cap fills it
  // or the coalesce timer expires. Sequencing order IS frame order, so a
  // grant emitted right after a release (handle_lock_write) lands in the
  // same frame as the releasing holder's final data writes (§2). At
  // coalesce_max_writes == 1 the size cap fires on every write and this is
  // exactly the old ship-immediately path.
  pending_.writes.push_back(
      SequencedWrite{seq, v, value, origin, ctx, sys_->scheduler().now()});
  // Lock cut-through: a lock word is a grant or release on some waiter's
  // critical path, and parking it until the frame fills would serialize
  // every lock hand-off behind the batch (at cap 64 a hand-off could wait
  // for 63 more writes to arrive). Ship the frame the moment a lock word
  // lands: the grant still rides with the data writes sequenced before it
  // (§2), and only pure data traffic coalesces to full depth. The flush
  // happens once the arrival that sequenced the lock word is fully
  // handled (flush_cut_through), so a lock set's grants share one frame.
  if (pending_.writes.size() >= coalesce_writes_) {
    flush_pending(/*timer_fired=*/false);
    return;
  }
  if (sys_->var(v).kind == VarKind::kLock) {
    cut_pending_ = true;
    return;
  }
  if (flush_timer_ == 0) {
    flush_timer_ = sys_->scheduler().after(coalesce_ns_, [this] {
      flush_timer_ = 0;
      flush_pending(/*timer_fired=*/true);
    });
  }
}

void GroupRoot::flush() { flush_pending(/*timer_fired=*/false); }

void GroupRoot::begin_quiesce() {
  OPTSYNC_EXPECT(!quiesced_);
  // Ship the open frame from the outgoing root before the cut: the frame
  // carries everything already sequenced, so the successor starts with an
  // empty coalesce buffer and next_seq_ pointing one past the last shipped
  // write.
  flush_pending(/*timer_fired=*/false);
  quiesced_ = true;
  ++mig_stats_.quiesces;
}

void GroupRoot::end_quiesce() {
  OPTSYNC_EXPECT(quiesced_);
  quiesced_ = false;
  // Replay in arrival order. Replayed writes may themselves flush frames
  // (size cap, lock cut-through) — those multicasts now originate at the
  // new root. Swap the log out first: a replayed write cannot re-enter the
  // log (quiesced_ is false), but keep the loop robust anyway.
  std::vector<HeldArrival> log;
  log.swap(handoff_log_);
  for (const HeldArrival& h : log) {
    ++mig_stats_.handoff_replayed;
    if (h.set.empty()) {
      on_arrival(h.origin, h.var, h.value, h.ctx);
    } else {
      on_lock_set(h.origin, h.set, h.value, h.ctx);
    }
  }
}

std::size_t GroupRoot::waiter_queue_depth() const {
  std::size_t depth = 0;
  for (const LockEntry& e : locks_) depth += e.state.queue.size();
  return depth;
}

void GroupRoot::flush_pending(bool timer_fired) {
  if (flush_timer_ != 0) {
    sys_->scheduler().cancel(flush_timer_);
    flush_timer_ = 0;
  }
  if (pending_.writes.empty()) return;
  ++stats_.frames;
  if (timer_fired) {
    ++stats_.timer_flushes;
  } else {
    ++stats_.size_flushes;
  }
  stats_.max_frame_writes =
      std::max(stats_.max_frame_writes, pending_.writes.size());
  if (auto* rec = sys_->recorder()) {
    trace::Event e;
    e.t = sys_->scheduler().now();
    e.kind = trace::EventKind::kFrameFlush;
    e.node = sys_->group(gid_).root();
    e.group = gid_;
    e.seq = pending_.first_seq();
    e.value = static_cast<std::int64_t>(pending_.writes.size());
    e.label = timer_fired ? "timer" : "size";
    rec->record(e);
  }
  if (auto* trc = sys_->tracer()) {
    // Close the coalesce leg of every traced write that sat in the open
    // frame: sequenced-at -> this flush.
    const sim::Time now = sys_->scheduler().now();
    for (const SequencedWrite& w : pending_.writes) {
      if (w.ctx.valid() && now > w.sequenced_at) {
        trc->record_span(w.ctx.trace, w.ctx.span,
                         telemetry::SpanKind::kCoalesce,
                         sys_->group(gid_).root(), w.sequenced_at, now);
      }
    }
  }
  // The observer sees the frame at its commit point, before the writes
  // vector is swapped out into the pooled payload below.
  if (observer_) observer_(pending_);
  // Hands the writes vector to the pooled payload and gets a recycled
  // (empty, warm-capacity) vector back — no allocation either way.
  sys_->multicast_frame(gid_, pending_);
}

}  // namespace optsync::dsm
