// The regular (non-optimistic) GWC queue lock (paper §2).
//
// A lock is an ordinary eagerly shared variable. A requester atomically
// writes -(its id) into the local copy; the sharing interface forwards the
// request to the group root, which grants immediately or queues the id.
// The grant (+id) and the free value propagate as sequenced group writes,
// so "a processor always receives exclusive access within one or one half
// round-trip time of the lock being freed" and grants always follow the
// previous holder's data writes.
//
// This is the standalone client used by workloads that manage the critical
// section themselves; OptimisticMutex::execute subsumes it when a prepared
// Section is available.
#pragma once

#include <vector>

#include "dsm/system.hpp"
#include "simkern/coro.hpp"
#include "sync/lock.hpp"

namespace optsync::sync {

class GwcQueueLock : public Lock {
 public:
  /// `lock` must be a lock variable of `sys`.
  GwcQueueLock(dsm::DsmSystem& sys, dsm::VarId lock);

  GwcQueueLock(const GwcQueueLock&) = delete;
  GwcQueueLock& operator=(const GwcQueueLock&) = delete;

  /// Requests the lock for node `n` and completes when the grant reaches
  /// the node's local memory. Use as: co_await lk.acquire(n).join();
  sim::Process acquire(dsm::NodeId n) override;

  /// Releases the lock (must follow the holder's last data write so GWC
  /// ordering carries data-before-release to every member).
  void release(dsm::NodeId n) override;

  /// True when node `n`'s local copy shows `n` as the holder.
  [[nodiscard]] bool held_by(dsm::NodeId n) const override;

  [[nodiscard]] dsm::VarId lock_var() const { return lock_; }

  /// Live counters (unified shape; the optimistic-path fields stay zero —
  /// this is the regular §2 protocol).
  [[nodiscard]] const LockStatsView& stats() const { return stats_; }
  [[nodiscard]] LockStatsView stats_view() const override { return stats_; }

 private:
  dsm::DsmSystem* sys_;
  dsm::VarId lock_;
  LockStatsView stats_;
};

/// Lock-set acquisition: requests every lock of `locks` — all in one
/// group, strictly ascending VarId — for node `n` with ONE message to the
/// group root, which grants them in order and queues the requester at the
/// first busy lock (dsm::GroupRoot::on_lock_set). Completes when every
/// grant has reached the node's local memory. GwcQueueLock is the one-lock
/// form of this client. Use as:
///   co_await sync::acquire_lock_set(sys, n, locks).join();
sim::Process acquire_lock_set(dsm::DsmSystem& sys, dsm::NodeId n,
                              std::vector<dsm::VarId> locks);

/// Releases a held lock set with one message (must follow the holder's
/// last data write, like GwcQueueLock::release).
void release_lock_set(dsm::DsmSystem& sys, dsm::NodeId n,
                      const std::vector<dsm::VarId>& locks);

}  // namespace optsync::sync
