#include "sync/gwc_lock.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::sync {

using dsm::lock_grant_value;
using dsm::lock_request_value;

GwcQueueLock::GwcQueueLock(dsm::DsmSystem& sys, dsm::VarId lock)
    : sys_(&sys), lock_(lock) {
  OPTSYNC_EXPECT(sys.var(lock).kind == dsm::VarKind::kLock);
}

sim::Process GwcQueueLock::acquire(dsm::NodeId n) {
  const sim::Time requested = sys_->scheduler().now();
  co_await acquire_lock_set(*sys_, n, std::vector<dsm::VarId>(1, lock_))
      .join();
  const sim::Duration waited = sys_->scheduler().now() - requested;
  ++stats_.acquisitions;
  stats_.total_wait_ns += waited;
  stats_.max_wait_ns = std::max(stats_.max_wait_ns, waited);
}

void GwcQueueLock::release(dsm::NodeId n) {
  release_lock_set(*sys_, n, {lock_});
  ++stats_.releases;
}

bool GwcQueueLock::held_by(dsm::NodeId n) const {
  return sys_->node(n).read(lock_) == lock_grant_value(n);
}

namespace {
sim::Process acquire_lock_set_impl(dsm::DsmSystem& sys, dsm::NodeId n,
                                   std::vector<dsm::VarId> locks) {
  auto& node = sys.node(n);
  auto* trc = sys.tracer();
  const telemetry::SpanContext octx =
      trc != nullptr ? trc->node_ctx(n) : telemetry::SpanContext{};
  telemetry::SpanId wait_span = 0;
  if (trc != nullptr && octx.valid()) {
    wait_span = trc->start_span(octx.trace, octx.span,
                                telemetry::SpanKind::kLockWait, n,
                                sys.scheduler().now());
    trc->set_node_parent(n, wait_span);
  }
  node.write_lock_set(locks, lock_request_value(n));
  if (wait_span != 0) trc->set_node_parent(n, octx.span);
  // Grants arrive in ascending order, so waiting lock by lock costs no
  // more than waiting for the last one.
  for (const dsm::VarId l : locks) {
    while (node.read(l) != lock_grant_value(n)) {
      co_await node.on_change(l).wait();
    }
  }
  if (wait_span != 0) trc->end_span(wait_span, sys.scheduler().now());
}
}  // namespace

sim::Process acquire_lock_set(dsm::DsmSystem& sys, dsm::NodeId n,
                              std::vector<dsm::VarId> locks) {
  // Validated synchronously — a coroutine would capture the violation in a
  // failed Process instead of throwing to the caller.
  OPTSYNC_EXPECT(sys.group(sys.check_lock_set(locks)).contains(n));
  for (const dsm::VarId l : locks) {
    OPTSYNC_EXPECT(sys.node(n).read(l) != lock_grant_value(n));  // no nesting
  }
  return acquire_lock_set_impl(sys, n, std::move(locks));
}

void release_lock_set(dsm::DsmSystem& sys, dsm::NodeId n,
                      const std::vector<dsm::VarId>& locks) {
  for (const dsm::VarId l : locks) {
    OPTSYNC_EXPECT(sys.node(n).read(l) == lock_grant_value(n));
  }
  sys.node(n).write_lock_set(locks, dsm::kLockFree);
}

}  // namespace optsync::sync
