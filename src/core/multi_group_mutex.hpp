// Mutual exclusion across multiple sharing groups (paper §2, last lines).
//
// "Mutual exclusion across multiple groups requires permissions from all the
// involved roots. Routing corresponding locking messages and data changes on
// the same paths through the roots guarantees a consistent view of variable
// updates."
//
// Each group's root manages its own queue locks; a cross-group critical
// section acquires every involved lock. Locks of one group that are
// adjacent in the global order (a shard's slot-stripe locks) travel as ONE
// lock-set request (sync::acquire_lock_set): a section pays one round trip
// per group, not per lock, and the root grants the set in ascending order.
//
// CANONICAL LOCK ORDER (deadlock-avoidance invariant): every multi-lock
// acquisition in the system — this mutex AND the OCC commit protocol in
// txn::TxnManager — acquires in strictly ascending lock VarId. This makes
// deadlock impossible regardless of how sections overlap or which path
// (pessimistic or optimistic) they take: the resource-ordering argument —
// a cycle in the wait-for graph would need some node to hold a
// higher-ordered lock while waiting for a lower one. The constructor
// sorts its input into this order and acquire() asserts it before every
// acquisition; any new multi-lock caller must follow the same order.
#pragma once

#include <vector>

#include "dsm/system.hpp"
#include "simkern/coro.hpp"
#include "sync/gwc_lock.hpp"
#include "sync/lock.hpp"

namespace optsync::core {

class MultiGroupMutex : public sync::Lock {
 public:
  /// `locks` may live in any number of distinct groups. They are reordered
  /// into the global acquisition order internally.
  MultiGroupMutex(dsm::DsmSystem& sys, std::vector<dsm::VarId> locks);

  MultiGroupMutex(const MultiGroupMutex&) = delete;
  MultiGroupMutex& operator=(const MultiGroupMutex&) = delete;

  /// Acquires every lock, in global order. The caller must be a member of
  /// every involved group. Use as: co_await m.acquire(n).join();
  sim::Process acquire(dsm::NodeId n) override;

  /// Releases every lock, in reverse order.
  void release(dsm::NodeId n) override;

  /// True when node `n` holds all the locks.
  [[nodiscard]] bool held_by(dsm::NodeId n) const override;

  [[nodiscard]] const std::vector<dsm::VarId>& locks() const {
    return ordered_;
  }


  /// Unified counters. The wait here is the whole-chain acquire latency
  /// (first request to last grant), not a per-constituent-lock figure.
  [[nodiscard]] const sync::LockStatsView& stats() const { return stats_; }
  [[nodiscard]] sync::LockStatsView stats_view() const override {
    return stats_;
  }

 private:
  sim::Process acquire_impl(dsm::NodeId n);

  dsm::DsmSystem* sys_;
  std::vector<dsm::VarId> ordered_;
  /// The lock-set requests acquire() sends, in order: maximal runs of
  /// same-group locks in the global order.
  std::vector<std::vector<dsm::VarId>> runs_;
  sync::LockStatsView stats_;
};

}  // namespace optsync::core
