#include "rt/rt_mutex.hpp"

#include "simkern/assert.hpp"

namespace optsync::rt {

using dsm::lock_grant_value;
using dsm::lock_held;
using dsm::lock_holder;
using dsm::lock_request_value;

RtOptimisticMutex::RtOptimisticMutex(RtSystem& sys, VarId lock, Config cfg)
    : sys_(&sys), lock_(lock), cfg_(cfg) {}

RtOptimisticMutex::NodeState& RtOptimisticMutex::state(NodeId n) {
  std::lock_guard lk(states_mu_);
  auto& slot = states_[n];
  if (!slot) slot = std::make_unique<NodeState>(cfg_.history_decay);
  return *slot;
}

RtOptimisticMutex::Outcome RtOptimisticMutex::execute(NodeId n,
                                                      const Section& sec) {
  OPTSYNC_EXPECT(sec.body != nullptr);
  auto& st = state(n);
  auto& sys = *sys_;
  stats_.executions.fetch_add(1, std::memory_order_relaxed);

  std::vector<Word> saved_values(sec.shared_writes.size());
  Outcome outcome;

  {
    std::lock_guard lk(st.mu);
    if (st.in_section) {
      throw ContractViolation("cannot safely nest mutex lock requests");
    }
    st.in_section = true;
    st.variables_saved = false;
    st.pending_rollback = false;
    st.granted = false;
    st.foreign_seen = false;
  }

  // Request the lock: atomically swap the local copy (Fig. 4 lines 03-04).
  const Word old_val = sys.atomic_exchange(n, lock_, lock_request_value(n));
  const bool was_busy = lock_held(old_val) && lock_holder(old_val) != n;

  double history_now;
  {
    std::lock_guard lk(st.mu);
    st.history.observe(was_busy ? 1.0 : 0.0);
    history_now = st.history.value();
  }

  // Arm the interrupt. It runs on the applier thread with insharing already
  // suspended; every branch except the rollback one resumes insharing.
  sys.arm_interrupt(n, lock_, [this, n, &st](VarId, Word value, NodeId) {
    auto& sys2 = *sys_;
    bool resume = true;
    {
      std::lock_guard lk(st.mu);
      if (dsm::lock_granted_to(value, n)) {
        st.granted = true;
      } else if (value == kLockFree) {
        // momentary free; keep waiting
      } else {
        st.history.observe(1.0);
        if (st.variables_saved) {
          // Failed speculation: leave insharing suspended for the rollback,
          // which the requesting thread performs.
          st.pending_rollback = true;
          resume = false;
        } else {
          // Nothing saved yet: latch it for the save point to act on.
          st.foreign_seen = true;
        }
      }
    }
    if (resume) sys2.resume_insharing(n);
    st.cv.notify_all();
  });

  // A grant may have been applied between the exchange and the arming (a
  // window the simulated substrate does not have); fold the current local
  // value into the decision and the granted flag.
  const Word cur = sys.read(n, lock_);
  {
    std::lock_guard lk(st.mu);
    if (dsm::lock_granted_to(cur, n)) st.granted = true;
  }

  const bool indicates_usage =
      was_busy || old_val != kLockFree || (lock_held(cur) && !dsm::lock_granted_to(cur, n)) ||
      history_now > cfg_.history_threshold;

  if (!cfg_.enable_optimistic || indicates_usage) {
    // ---- Regular path -------------------------------------------------
    stats_.regular_paths.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock lk(st.mu);
      st.cv.wait(lk, [&] { return st.granted; });
    }
    sec.body(n);
  } else {
    // ---- Optimistic path ----------------------------------------------
    stats_.optimistic_attempts.fetch_add(1, std::memory_order_relaxed);
    outcome.used_optimistic = true;

    for (std::size_t i = 0; i < sec.shared_writes.size(); ++i) {
      saved_values[i] = sys.read(n, sec.shared_writes[i]);
    }
    if (sec.save_locals) sec.save_locals();
    // Another node's grant that landed between the exchange and this point
    // found nothing to roll back: its interrupt latched it and resumed
    // insharing. The root filters our writes while that node holds the
    // lock, so the section fails its speculation here, before the body
    // runs, and re-runs once under our own grant. Insharing is already
    // flowing, so it is not resumed a second time.
    bool rolled_back;
    {
      std::lock_guard lk(st.mu);
      rolled_back = st.foreign_seen;
      st.variables_saved = !rolled_back;
    }

    if (rolled_back) {
      if (sec.restore_locals) sec.restore_locals();
    } else {
      sec.body(n);  // speculative: the sequencer filters our shared writes
                    // until the grant is ours
    }

    for (;;) {
      std::unique_lock lk(st.mu);
      if (st.pending_rollback) {
        st.pending_rollback = false;
        st.variables_saved = false;
        rolled_back = true;
        lk.unlock();
        // Rollback on this thread (the paper's lines 22-26): restore local
        // memory, then let queued updates flow.
        for (std::size_t i = 0; i < sec.shared_writes.size(); ++i) {
          sys.poke(n, sec.shared_writes[i], saved_values[i]);
        }
        if (sec.restore_locals) sec.restore_locals();
        sys.resume_insharing(n);
        continue;
      }
      if (st.granted) break;
      st.cv.wait(lk, [&] { return st.granted || st.pending_rollback; });
    }

    if (rolled_back) {
      stats_.rollbacks.fetch_add(1, std::memory_order_relaxed);
      outcome.rolled_back = true;
      sec.body(n);  // re-run with the lock actually held
    } else {
      stats_.optimistic_successes.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lk(st.mu);
      st.variables_saved = false;
    }
  }

  sys.disarm_interrupt(n, lock_);
  sys.write(n, lock_, kLockFree);
  {
    std::lock_guard lk(st.mu);
    st.in_section = false;
  }
  return outcome;
}

}  // namespace optsync::rt
