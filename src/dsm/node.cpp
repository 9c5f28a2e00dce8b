#include "dsm/node.hpp"

#include "dsm/system.hpp"
#include "simkern/assert.hpp"
#include "simkern/log.hpp"
#include "trace/recorder.hpp"

namespace optsync::dsm {

DsmNode::DsmNode(DsmSystem& sys, NodeId id)
    : sys_(&sys), id_(id), hw_blocking_(sys.config().hardware_blocking) {}

void DsmNode::ensure_capacity(VarId v) {
  if (v >= memory_.size()) memory_.resize(v + 1, 0);
}

Word DsmNode::read(VarId v) const {
  OPTSYNC_EXPECT(v < sys_->var_count());
  return v < memory_.size() ? memory_[v] : 0;
}

void DsmNode::write(VarId v, Word value) {
  OPTSYNC_EXPECT(v < sys_->var_count());
  ensure_capacity(v);
  memory_[v] = value;
  ++stats_.local_writes;
  sys_->share_out(id_, v, value);
  if (auto* sig = signal_if_any(v)) sig->notify_all();
}

Word DsmNode::atomic_exchange(VarId v, Word value) {
  OPTSYNC_EXPECT(v < sys_->var_count());
  ensure_capacity(v);
  const Word old = memory_[v];
  // The swap and the outgoing request are one indivisible step: no sequenced
  // update can be applied in between because apply() only runs from
  // scheduler events, never inside this call.
  memory_[v] = value;
  ++stats_.local_writes;
  sys_->share_out(id_, v, value);
  if (auto* sig = signal_if_any(v)) sig->notify_all();
  return old;
}

void DsmNode::write_lock_set(const std::vector<VarId>& locks, Word value) {
  OPTSYNC_EXPECT(!locks.empty());
  if (locks.size() == 1) {
    write(locks.front(), value);
    return;
  }
  for (const VarId v : locks) {
    OPTSYNC_EXPECT(v < sys_->var_count());
    ensure_capacity(v);
    memory_[v] = value;
    ++stats_.local_writes;
  }
  sys_->share_out_lock_set(id_, locks, value);
  for (const VarId v : locks) {
    if (auto* sig = signal_if_any(v)) sig->notify_all();
  }
}

void DsmNode::poke(VarId v, Word value) {
  OPTSYNC_EXPECT(v < sys_->var_count());
  ensure_capacity(v);
  memory_[v] = value;
}

void DsmNode::enter_mutex_section() {
  if (in_mutex_section_) {
    throw ContractViolation(
        "cannot safely nest mutex lock requests (node " +
        std::to_string(id_) + " is already inside a critical section)");
  }
  in_mutex_section_ = true;
}

void DsmNode::exit_mutex_section() {
  OPTSYNC_ENSURE(in_mutex_section_);
  in_mutex_section_ = false;
}

void DsmNode::suspend_insharing() { suspended_ = true; }

void DsmNode::resume_insharing() {
  suspended_ = false;
  if (draining_) return;  // already inside a drain higher up the stack
  draining_ = true;
  while (!suspended_ && !inbox_.empty()) {
    const Pending p = inbox_.take_front();
    apply(p);
  }
  draining_ = false;
}

void DsmNode::arm_interrupt(VarId v, InterruptHandler handler) {
  OPTSYNC_EXPECT(handler != nullptr);
  if (v >= interrupt_idx_.size()) {
    interrupt_idx_.resize(v + 1, kNoInterrupt);
  }
  std::uint32_t& idx = interrupt_idx_[v];
  if (idx != kNoInterrupt) {
    interrupt_handlers_[idx] = std::move(handler);
    return;
  }
  if (!interrupt_free_.empty()) {
    idx = interrupt_free_.back();
    interrupt_free_.pop_back();
    interrupt_handlers_[idx] = std::move(handler);
  } else {
    idx = static_cast<std::uint32_t>(interrupt_handlers_.size());
    interrupt_handlers_.push_back(std::move(handler));
  }
}

void DsmNode::disarm_interrupt(VarId v) {
  if (v >= interrupt_idx_.size()) return;
  std::uint32_t& idx = interrupt_idx_[v];
  if (idx == kNoInterrupt) return;
  interrupt_handlers_[idx] = nullptr;
  interrupt_free_.push_back(idx);
  idx = kNoInterrupt;
}

bool DsmNode::interrupt_armed(VarId v) const {
  return v < interrupt_idx_.size() && interrupt_idx_[v] != kNoInterrupt;
}

sim::Signal& DsmNode::on_change(VarId v) {
  if (v >= signals_.size()) signals_.resize(v + 1);
  auto& slot = signals_[v];
  if (!slot) slot = std::make_unique<sim::Signal>(sys_->scheduler());
  return *slot;
}

void DsmNode::deliver(GroupId g, std::uint64_t seq, VarId v, Word value,
                      NodeId origin) {
  if (g >= inorder_.size()) inorder_.resize(g + 1);
  GroupInorder& io = inorder_[g];
  if (seq != io.next) {
    if (seq < io.next) {
      // Already delivered on the other flow (cross-flow race around a root
      // migration); a second application would violate GWC, drop it.
      ++stats_.stale_drops;
      return;
    }
    // Early: a later flow overtook an in-flight pre-cut frame. Park until
    // the gap closes; release below is in strict sequence order.
    io.held.emplace(seq, Pending{g, seq, v, value, origin});
    ++stats_.held_out_of_order;
    return;
  }
  accept(Pending{g, seq, v, value, origin});
  ++io.next;
  while (!io.held.empty() && io.held.begin()->first == io.next) {
    const Pending p = io.held.begin()->second;
    io.held.erase(io.held.begin());
    accept(p);
    ++io.next;
  }
}

void DsmNode::accept(const Pending& p) {
  if (suspended_) {
    inbox_.push_back(p);
    ++stats_.queued_while_suspended;
    return;
  }
  apply(p);
}

void DsmNode::deliver_frame(GroupId g, const Frame& frame) {
  for (const SequencedWrite& w : frame.writes) {
    deliver(g, w.seq, w.var, w.value, w.origin);
  }
}

void DsmNode::apply(const Pending& p) {
  // Hardware blocking (Fig. 6): drop root echoes of this node's own writes
  // to mutex-protected data so a late echo can never overwrite values
  // restored by a rollback. Lock variables are never dropped.
  const VarInfo& info = sys_->var(p.var);
  if (hw_blocking_ && p.origin == id_ && info.kind == VarKind::kMutexData) {
    ++stats_.echoes_dropped;
    if (auto* rec = sys_->recorder()) {
      trace::Event e;
      e.t = sys_->scheduler().now();
      e.kind = trace::EventKind::kEchoDrop;
      e.node = id_;
      e.group = p.group;
      e.var = p.var;
      e.seq = p.seq;
      e.value = p.value;
      e.origin = p.origin;
      e.label = var_kind_name(info.kind);
      rec->record(e);
    }
    return;
  }

  // GWC delivery invariant: root sequence numbers apply in increasing order.
  if (p.group >= last_seq_.size()) last_seq_.resize(p.group + 1, 0);
  auto& last = last_seq_[p.group];
  OPTSYNC_ENSURE(p.seq > last);
  last = p.seq;

  ensure_capacity(p.var);
  memory_[p.var] = p.value;
  ++stats_.updates_applied;
  if (auto* rec = sys_->recorder()) {
    trace::Event e;
    e.t = sys_->scheduler().now();
    e.kind = trace::EventKind::kNodeApply;
    e.node = id_;
    e.group = p.group;
    e.var = p.var;
    e.seq = p.seq;
    e.value = p.value;
    e.origin = p.origin;
    e.label = var_kind_name(info.kind);
    rec->record(e);
  }
  if (log_applied_) {
    applied_[p.group].push_back(
        AppliedUpdate{p.seq, p.var, p.value, p.origin});
  }

  const std::uint32_t iidx =
      p.var < interrupt_idx_.size() ? interrupt_idx_[p.var] : kNoInterrupt;
  if (iidx != kNoInterrupt) {
    // Atomic interrupt + insharing suspension (Fig. 5): later packets queue
    // until the interrupt logic resumes insharing.
    suspended_ = true;
    ++stats_.interrupts;
    // Copy the handler: it may disarm itself while running.
    auto handler = interrupt_handlers_[iidx];
    if (auto* sig = signal_if_any(p.var)) sig->notify_all();
    handler(p.var, p.value, p.origin);
    return;
  }
  if (auto* sig = signal_if_any(p.var)) sig->notify_all();
}

const std::vector<DsmNode::AppliedUpdate>& DsmNode::applied_log(
    GroupId g) const {
  static const std::vector<AppliedUpdate> kEmpty;
  const auto it = applied_.find(g);
  return it == applied_.end() ? kEmpty : it->second;
}

}  // namespace optsync::dsm
