#include "core/multi_group_mutex.hpp"

#include <algorithm>

#include "simkern/assert.hpp"

namespace optsync::core {

MultiGroupMutex::MultiGroupMutex(dsm::DsmSystem& sys,
                                 std::vector<dsm::VarId> locks)
    : sys_(&sys), ordered_(std::move(locks)) {
  OPTSYNC_EXPECT(!ordered_.empty());
  std::sort(ordered_.begin(), ordered_.end());
  OPTSYNC_EXPECT(std::adjacent_find(ordered_.begin(), ordered_.end()) ==
                 ordered_.end());  // no duplicate locks
  for (const dsm::VarId l : ordered_) {
    OPTSYNC_EXPECT(sys.var(l).kind == dsm::VarKind::kLock);
    // A run holds consecutive same-group locks only: merging across an
    // interleaved foreign lock would break the global order.
    if (runs_.empty() ||
        sys.var(runs_.back().back()).group != sys.var(l).group) {
      runs_.emplace_back();
    }
    runs_.back().push_back(l);
  }
}

sim::Process MultiGroupMutex::acquire(dsm::NodeId n) {
  // Validate synchronously — a coroutine would capture the violation in a
  // failed Process instead of throwing to the caller.
  //
  // The canonical-order invariant is re-asserted here (not only in the
  // constructor) so a future mutation of ordered_ cannot silently undo
  // the deadlock-avoidance argument documented in the header.
  OPTSYNC_EXPECT(std::is_sorted(ordered_.begin(), ordered_.end()));
  for (const dsm::VarId l : ordered_) {
    OPTSYNC_EXPECT(sys_->group(sys_->var(l).group).contains(n));
  }
  return acquire_impl(n);
}

sim::Process MultiGroupMutex::acquire_impl(dsm::NodeId n) {
  const sim::Time started = sys_->scheduler().now();
  for (const auto& run : runs_) {
    co_await sync::acquire_lock_set(*sys_, n, run).join();
  }
  ++stats_.acquisitions;
  const sim::Duration waited = sys_->scheduler().now() - started;
  stats_.total_wait_ns += waited;
  stats_.max_wait_ns = std::max(stats_.max_wait_ns, waited);
}

void MultiGroupMutex::release(dsm::NodeId n) {
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    sync::release_lock_set(*sys_, n, *it);
  }
  ++stats_.releases;
}

bool MultiGroupMutex::held_by(dsm::NodeId n) const {
  const auto& node = sys_->node(n);
  for (const dsm::VarId l : ordered_) {
    if (node.read(l) != dsm::lock_grant_value(n)) return false;
  }
  return true;
}

}  // namespace optsync::core
