#include "core/optimistic_mutex.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "simkern/log.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::core {

using dsm::kLockFree;
using dsm::lock_grant_value;
using dsm::lock_held;
using dsm::lock_request_value;
using dsm::NodeId;
using dsm::VarId;
using dsm::Word;

OptimisticMutex::OptimisticMutex(dsm::DsmSystem& sys, VarId lock, Config cfg)
    : sys_(&sys), lock_(lock), cfg_(cfg) {
  OPTSYNC_EXPECT(sys.var(lock).kind == dsm::VarKind::kLock);
}

OptimisticMutex::NodeState& OptimisticMutex::state(NodeId n) {
  auto it = states_.find(n);
  if (it == states_.end()) {
    it = states_.emplace(n, NodeState(cfg_.history_decay)).first;
  }
  return it->second;
}

bool OptimisticMutex::held_by(NodeId n) const {
  return sys_->node(n).read(lock_) == lock_grant_value(n);
}

bool OptimisticMutex::try_speculate(NodeId n) const {
  if (!cfg_.enable_optimistic) return false;
  if (sys_->node(n).read(lock_) != kLockFree) return false;
  const auto it = states_.find(n);
  return it == states_.end() ||
         !it->second.history.indicates_usage(cfg_.history_threshold);
}

sim::Process OptimisticMutex::acquire(NodeId n) {
  auto& node = sys_->node(n);
  OPTSYNC_EXPECT(!held_by(n));  // no nested acquisition
  auto& st = state(n);
  const sim::Time requested = sys_->scheduler().now();

  const Word old_val = node.atomic_exchange(lock_, lock_request_value(n));
  emit(n, trace::EventKind::kLockRequest, lock_request_value(n));
  st.history.observe(
      lock_held(old_val) && dsm::lock_holder(old_val) != n ? 1.0 : 0.0);
  while (node.read(lock_) != lock_grant_value(n)) {
    co_await node.on_change(lock_).wait();
  }
  emit(n, trace::EventKind::kLockAcquire, lock_grant_value(n));

  const sim::Duration waited = sys_->scheduler().now() - requested;
  ++stats_.acquisitions;
  stats_.total_wait_ns += waited;
  stats_.max_wait_ns = std::max(stats_.max_wait_ns, waited);
}

void OptimisticMutex::release(NodeId n) {
  OPTSYNC_EXPECT(held_by(n));
  sys_->node(n).write(lock_, kLockFree);
  emit(n, trace::EventKind::kLockRelease, kLockFree);
  ++stats_.releases;
}

double OptimisticMutex::history_value(NodeId n) const {
  const auto it = states_.find(n);
  return it == states_.end() ? 0.0 : it->second.history.value();
}

bool OptimisticMutex::in_section(NodeId n) const {
  const auto it = states_.find(n);
  return it != states_.end() && it->second.in_section;
}

void OptimisticMutex::emit(NodeId n, trace::EventKind kind, Word value) {
  auto* rec = sys_->recorder();
  if (rec == nullptr) return;
  trace::Event e;
  e.t = sys_->scheduler().now();
  e.kind = kind;
  e.node = n;
  e.group = sys_->var(lock_).group;
  e.var = lock_;
  e.value = value;
  e.origin = n;
  e.label = "lock";
  rec->record(e);
}

// Interrupt code (paper Fig. 5). Invoked by the sharing interface when an
// armed lock change arrives; insharing is already suspended. Runs the
// decision logic; actual rollback work (which takes simulated time) is
// deferred to the execute() coroutine via pending_rollback.
void OptimisticMutex::on_lock_interrupt(NodeId n, Word value) {
  auto& st = state(n);
  auto& node = sys_->node(n);

  if (dsm::lock_granted_to(value, n)) {
    // Permission for the local CPU: stop watching, let queued updates flow.
    node.disarm_interrupt(lock_);
    node.resume_insharing();
    return;
  }
  if (value == kLockFree) {
    // Momentary free (previous holder released before our request reached
    // the root). Keep watching; our grant will follow.
    node.resume_insharing();
    return;
  }

  // Another processor got the lock.
  OPTSYNC_ENSURE(lock_held(value));
  st.history.observe(1.0);  // P9: update usage frequency history
  if (!st.variables_saved) {
    // Regular path in progress — values were never speculated on.
    node.resume_insharing();
    return;
  }
  // Optimistic execution failed: leave insharing suspended so the journal
  // can be restored before any of the new holder's updates touch memory.
  // The execute() coroutine performs the timed restore and then resumes
  // insharing (rollback code, Fig. 4 lines 22-26).
  st.pending_rollback = true;
  sim::log_debug("n", n, " speculation failed: lock granted to n",
                 dsm::lock_holder(value));
}

sim::Process OptimisticMutex::execute(NodeId n, Section section,
                                      ExecuteStats* out) {
  // Validate synchronously: a coroutine would capture these as a failed
  // Process instead of throwing to the caller.
  OPTSYNC_EXPECT(section.body != nullptr);
  OPTSYNC_EXPECT((section.save_locals == nullptr) ==
                 (section.restore_locals == nullptr));
  // Fig. 4 line 01/28: nested acquisition is a programming error — on this
  // lock (per-mutex state) or on any other (the node models a single
  // instruction stream; DsmNode tracks occupancy across mutexes).
  if (state(n).in_section) {
    throw ContractViolation("cannot safely nest mutex lock requests");
  }
  sys_->node(n).enter_mutex_section();  // throws on cross-mutex overlap
  return execute_impl(n, std::move(section), out);
}

namespace {
/// Clears the node's occupancy flag even if the section body throws.
struct SectionOccupancy {
  dsm::DsmNode* node;
  ~SectionOccupancy() {
    if (node != nullptr) node->exit_mutex_section();
  }
};
}  // namespace

sim::Process OptimisticMutex::execute_impl(NodeId n, Section section,
                                           ExecuteStats* out) {
  auto& node = sys_->node(n);
  SectionOccupancy occupancy{&node};  // entered by the wrapper
  auto& sched = sys_->scheduler();
  auto& st = state(n);
  st.in_section = true;
  st.variables_saved = false;  // line 02
  st.pending_rollback = false;
  st.rolled_back = false;
  ++stats_.executions;

  ExecuteStats local_stats;
  local_stats.requested_at = sched.now();

  // Causal tracing: hang the request's wire/queue legs under a lock-wait
  // umbrella span. The atomic_exchange ships the request synchronously, so
  // repointing the node's context parent just around it is safe.
  auto* trc = sys_->tracer();
  const telemetry::SpanContext octx =
      trc != nullptr ? trc->node_ctx(n) : telemetry::SpanContext{};
  telemetry::SpanId wait_span = 0;
  if (trc != nullptr && octx.valid()) {
    wait_span =
        trc->start_span(octx.trace, octx.span, telemetry::SpanKind::kLockWait,
                        n, local_stats.requested_at);
    trc->set_node_parent(n, wait_span);
  }

  // Lines 03-04: atomically save the old local value and request the lock.
  const Word old_val = node.atomic_exchange(lock_, lock_request_value(n));
  if (wait_span != 0) trc->set_node_parent(n, octx.span);
  emit(n, trace::EventKind::kLockRequest, lock_request_value(n));

  // Line 05: update usage frequency history from the observed local state.
  const bool was_busy = lock_held(old_val) && dsm::lock_holder(old_val) != n;
  st.history.observe(was_busy ? 1.0 : 0.0);

  // Line 06: watch for lock changes; the interrupt atomically suspends
  // insharing when it fires.
  node.arm_interrupt(lock_, [this, n](VarId, Word value, NodeId) {
    on_lock_interrupt(n, value);
  });

  // Line 07: does anything indicate current or recent usage?
  const bool indicates_usage =
      was_busy || old_val != kLockFree ||
      st.history.indicates_usage(cfg_.history_threshold);
  // Did the EWMA estimate alone veto speculation? (Local evidence — a held
  // or in-flight lock word — would have forced the regular path anyway.)
  const bool history_veto =
      cfg_.enable_optimistic && !was_busy && old_val == kLockFree &&
      st.history.indicates_usage(cfg_.history_threshold);

  sim::Time acquired_at = 0;  // ownership confirmed (grant observed locally)

  if (!cfg_.enable_optimistic || indicates_usage) {
    // ---- Regular path (lines 08-12) ----------------------------------
    ++stats_.regular_paths;
    if (history_veto) {
      ++stats_.history_vetoes;
      if (cfg_.lock_stats != nullptr) ++cfg_.lock_stats->history_vetoes;
      emit(n, trace::EventKind::kHistoryVeto, old_val);
    }
    // Line 08. No interrupt can have fired yet: arming and this branch run
    // within one scheduler event, so disarming is race-free.
    node.disarm_interrupt(lock_);
    const sim::Time wait_began = sched.now();
    while (node.read(lock_) != lock_grant_value(n)) {  // line 10: reg-wait
      co_await node.on_change(lock_).wait();
    }
    if (cfg_.context_switch_ns > 0 &&
        sched.now() - wait_began > cfg_.context_switch_ns) {
      // Spin-then-swap: the grant outlasted the spin budget, so the
      // processor swapped out and now pays the swap out + in.
      ++stats_.context_switches;
      co_await sim::delay(sched, 2 * cfg_.context_switch_ns);
    }
    acquired_at = sched.now();
    if (wait_span != 0) trc->end_span(wait_span, acquired_at);
    emit(n, trace::EventKind::kLockAcquire, lock_grant_value(n));
    co_await section.body(node).join();  // lines 11-12
  } else {
    // ---- Optimistic path (lines 14-19) --------------------------------
    ++stats_.optimistic_attempts;
    local_stats.used_optimistic = true;
    if (cfg_.lock_stats != nullptr) {
      ++cfg_.lock_stats->speculative_attempts;
      ++cfg_.lock_stats->history_allows;
      cfg_.lock_stats->journaled_vars += section.shared_writes.size();
    }
    emit(n, trace::EventKind::kSpeculateBegin, old_val);
    const sim::Time spec_begin = sched.now();

    // Lines 14-15: save every variable the section will change.
    st.journal.snapshot(node, section.shared_writes);
    if (section.save_locals) {
      st.journal.add_local(section.save_locals, section.restore_locals);
    }
    st.variables_saved = true;  // line 16
    const sim::Duration save_cost =
        cfg_.save_cost_per_var_ns *
        (section.shared_writes.size() + (section.save_locals ? 1 : 0));
    co_await sim::delay(sched, save_cost);

    // Lines 17-18: speculative execution. Shared writes stream to the
    // root, which discards them unless/until this node holds the lock.
    co_await section.body(node).join();
    if (trc != nullptr && octx.valid()) {
      trc->record_span(octx.trace, octx.span, telemetry::SpanKind::kSpeculate,
                       n, spec_begin, sched.now());
    }

    // Line 19: wait for the lock answer; handle rollback if the interrupt
    // reported that another CPU won.
    const sim::Time wait_began = sched.now();
    for (;;) {
      if (st.pending_rollback) {
        // Rollback (lines 22-26): restore takes local-memory time; the
        // sharing interface keeps insharing suspended throughout.
        OPTSYNC_ENSURE(node.insharing_suspended());
        const sim::Time rb_begin = sched.now();
        const sim::Duration restore_cost =
            cfg_.save_cost_per_var_ns * st.journal.shared_count();
        co_await sim::delay(sched, restore_cost);
        if (trc != nullptr && octx.valid()) {
          trc->record_span(octx.trace, wait_span != 0 ? wait_span : octx.span,
                           telemetry::SpanKind::kRollback, n, rb_begin,
                           sched.now());
        }
        st.journal.restore(node);
        st.variables_saved = false;  // line 24
        st.pending_rollback = false;
        st.rolled_back = true;
        ++stats_.rollbacks;
        local_stats.rolled_back = true;
        if (cfg_.lock_stats != nullptr) ++cfg_.lock_stats->rollbacks;
        emit(n, trace::EventKind::kRollback, node.read(lock_));
        node.resume_insharing();  // line 25
        continue;                 // line 26: back to the wait loop
      }
      if (node.read(lock_) == lock_grant_value(n)) break;
      co_await node.on_change(lock_).wait();
    }
    if (cfg_.context_switch_ns > 0 &&
        sched.now() - wait_began > cfg_.context_switch_ns) {
      ++stats_.context_switches;
      co_await sim::delay(sched, 2 * cfg_.context_switch_ns);
    }
    acquired_at = sched.now();
    if (wait_span != 0) trc->end_span(wait_span, acquired_at);

    if (st.rolled_back) {
      // The speculation was undone; run the section for real now that the
      // lock is held and every local shared value is valid (GWC ordering:
      // all of the previous holder's writes preceded our grant).
      emit(n, trace::EventKind::kLockAcquire, lock_grant_value(n));
      co_await section.body(node).join();
    } else {
      ++stats_.optimistic_successes;
      if (cfg_.lock_stats != nullptr) ++cfg_.lock_stats->speculative_commits;
      emit(n, trace::EventKind::kSpeculateCommit, lock_grant_value(n));
      emit(n, trace::EventKind::kLockAcquire, lock_grant_value(n));
      st.journal.discard();
      st.variables_saved = false;
    }
  }

  // Line 27: release. The FREE write follows all of this node's data
  // writes through the root, so every member sees data-before-release.
  node.disarm_interrupt(lock_);
  node.write(lock_, kLockFree);
  emit(n, trace::EventKind::kLockRelease, kLockFree);
  st.in_section = false;
  local_stats.finished_at = sched.now();
  if (trc != nullptr && octx.valid()) {
    // Critical-section compute: ownership confirmed through the release
    // write. Wins the attribution sweep over any overlapping wait-side
    // leg — latency hiding is the paper's whole point.
    trc->record_span(octx.trace, octx.span, telemetry::SpanKind::kCs, n,
                     acquired_at, local_stats.finished_at);
  }
  // Unified-view accounting: every completed execution is one confirmed
  // acquisition + one release; the wait is request-to-ownership.
  ++stats_.acquisitions;
  ++stats_.releases;
  const sim::Duration waited = acquired_at - local_stats.requested_at;
  stats_.total_wait_ns += waited;
  stats_.max_wait_ns = std::max(stats_.max_wait_ns, waited);
  if (cfg_.lock_stats != nullptr) {
    ++cfg_.lock_stats->acquisitions;
    cfg_.lock_stats->acquire_ns.record(acquired_at -
                                       local_stats.requested_at);
    cfg_.lock_stats->hold_ns.record(sched.now() - acquired_at);
  }
  if (out != nullptr) *out = local_stats;
}

}  // namespace optsync::core
