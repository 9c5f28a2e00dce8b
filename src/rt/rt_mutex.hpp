// Optimistic mutual exclusion on the threaded runtime.
//
// The same Fig. 4/5 state machine as core::OptimisticMutex, but with the
// interrupt handler genuinely racing the requesting thread: the handler runs
// on the node's applier thread (where the sharing hardware would raise it),
// while the section body runs on the caller's thread. Synchronization
// between the two is the per-node state mutex + condition variable.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/usage_history.hpp"
#include "rt/rt_group.hpp"
#include "sync/lock.hpp"

namespace optsync::rt {

class RtOptimisticMutex {
 public:
  struct Config {
    bool enable_optimistic = true;
    double history_threshold = 0.30;
    double history_decay = 0.95;
  };

  RtOptimisticMutex(RtSystem& sys, VarId lock, Config cfg);
  RtOptimisticMutex(RtSystem& sys, VarId lock)
      : RtOptimisticMutex(sys, lock, Config{}) {}
  RtOptimisticMutex(const RtOptimisticMutex&) = delete;
  RtOptimisticMutex& operator=(const RtOptimisticMutex&) = delete;

  struct Section {
    /// Mutex-data variables the body writes (the rollback save list).
    std::vector<VarId> shared_writes;
    std::function<void()> save_locals;
    std::function<void()> restore_locals;
    /// Runs on the calling thread; re-run after a rollback, so must be
    /// re-runnable.
    std::function<void(NodeId)> body;
  };

  struct Outcome {
    bool used_optimistic = false;
    bool rolled_back = false;
  };

  /// Executes `section` on node `n` under the lock. Blocking call.
  Outcome execute(NodeId n, const Section& section);

  /// Snapshot of the counters in the unified sync::LockStatsView shape.
  /// The class cannot implement sync::Lock itself (it runs on real
  /// threads, not the simulator's coroutine scheduler) but it reports in
  /// the same vocabulary: executions == acquisitions here, since every
  /// completed execute() confirmed ownership exactly once.
  [[nodiscard]] sync::LockStatsView stats_view() const {
    sync::LockStatsView v;
    v.executions = stats_.executions.load(std::memory_order_relaxed);
    v.acquisitions = v.executions;
    v.releases = v.executions;
    v.optimistic_attempts =
        stats_.optimistic_attempts.load(std::memory_order_relaxed);
    v.optimistic_successes =
        stats_.optimistic_successes.load(std::memory_order_relaxed);
    v.rollbacks = stats_.rollbacks.load(std::memory_order_relaxed);
    v.regular_paths = stats_.regular_paths.load(std::memory_order_relaxed);
    return v;
  }

 private:
  struct Stats {
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> optimistic_attempts{0};
    std::atomic<std::uint64_t> optimistic_successes{0};
    std::atomic<std::uint64_t> rollbacks{0};
    std::atomic<std::uint64_t> regular_paths{0};
  };

  struct NodeState {
    explicit NodeState(double decay) : history(decay) {}
    std::mutex mu;
    std::condition_variable cv;
    core::UsageHistory history;  // guarded by mu
    bool in_section = false;
    bool variables_saved = false;
    bool pending_rollback = false;
    bool granted = false;
    /// Another node's grant arrived before variables_saved: the root is
    /// filtering this node's writes, so it must not count a speculation.
    bool foreign_seen = false;
  };

  NodeState& state(NodeId n);

  RtSystem* sys_;
  VarId lock_;
  Config cfg_;
  std::mutex states_mu_;
  std::unordered_map<NodeId, std::unique_ptr<NodeState>> states_;
  Stats stats_;
};

}  // namespace optsync::rt
