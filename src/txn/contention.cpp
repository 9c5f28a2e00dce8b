#include "txn/contention.hpp"

#include <algorithm>

#include "simkern/assert.hpp"
#include "telemetry/tracer.hpp"

namespace optsync::txn {

ContentionManager::ContentionManager(dsm::DsmSystem& sys, ContentionConfig cfg)
    : sys_(&sys), cfg_(cfg), jitter_(cfg.seed) {
  OPTSYNC_EXPECT(cfg.backoff_base_ns >= 1);
  OPTSYNC_EXPECT(cfg.backoff_cap_ns >= cfg.backoff_base_ns);
}

sim::Duration ContentionManager::base_delay(std::uint32_t aborts) const {
  OPTSYNC_EXPECT(aborts >= 1);
  sim::Duration d = cfg_.backoff_base_ns;
  for (std::uint32_t k = 1; k < aborts && d < cfg_.backoff_cap_ns; ++k) {
    d *= 2;
  }
  return std::min(d, cfg_.backoff_cap_ns);
}

sim::Process ContentionManager::backoff(dsm::NodeId n, std::uint32_t aborts) {
  const double scale = 0.5 + 0.5 * jitter_.uniform01();
  const auto delay = std::max<sim::Duration>(
      1, static_cast<sim::Duration>(
             static_cast<double>(base_delay(aborts)) * scale));
  ++backoffs_;
  total_backoff_ns_ += delay;
  auto& sched = sys_->scheduler();
  const sim::Time began = sched.now();
  co_await sim::delay(sched, delay);
  if (auto* trc = sys_->tracer()) {
    if (const auto ctx = trc->node_ctx(n); ctx.valid()) {
      trc->record_span(ctx.trace, ctx.span, telemetry::SpanKind::kBackoff, n,
                       began, sched.now());
    }
  }
}

}  // namespace optsync::txn
