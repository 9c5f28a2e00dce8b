// Contention manager for the OCC transaction layer.
//
// Aborted transactions must not retry immediately: under a conflict burst
// every loser would re-speculate into the same window and abort again
// (livelock). The manager spaces retries with bounded exponential backoff
// plus deterministic jitter (the simulation stays a pure function of the
// seed), and after a configured abort budget it tells the caller to stop
// speculating and take the irrevocable fallback path — the legacy
// MultiGroupMutex pessimistic lock acquisition — so every transaction is
// guaranteed to finish (no starvation, however hot the keys).
#pragma once

#include <cstdint>

#include "dsm/system.hpp"
#include "simkern/coro.hpp"
#include "simkern/random.hpp"

namespace optsync::txn {

struct ContentionConfig {
  /// Aborts tolerated before should_fallback() escalates to the
  /// irrevocable (pessimistic) path. 0 escalates every transaction on its
  /// first attempt: the locked path under OCC-mode accounting.
  std::uint32_t max_aborts = 4;

  /// Backoff after the k-th abort: base << min(k-1, cap doublings), then
  /// scaled by jitter in [0.5, 1.0] so colliding retriers decorrelate.
  sim::Duration backoff_base_ns = 2'000;
  sim::Duration backoff_cap_ns = 64'000;

  std::uint64_t seed = 0xc0217e27ull;  ///< jitter stream seed
};

class ContentionManager {
 public:
  ContentionManager(dsm::DsmSystem& sys, ContentionConfig cfg);

  ContentionManager(const ContentionManager&) = delete;
  ContentionManager& operator=(const ContentionManager&) = delete;

  [[nodiscard]] const ContentionConfig& config() const { return cfg_; }

  /// True once `aborts` consecutive aborts exhausted the optimistic
  /// budget; the caller must take the irrevocable fallback.
  [[nodiscard]] bool should_fallback(std::uint32_t aborts) const {
    return aborts >= cfg_.max_aborts;
  }

  /// The (pre-jitter) delay after the `aborts`-th consecutive abort
  /// (aborts >= 1). Exposed for tests; backoff() applies jitter on top.
  [[nodiscard]] sim::Duration base_delay(std::uint32_t aborts) const;

  /// Sleeps node `n`'s transaction for the jittered backoff and records a
  /// kBackoff span. Use as: co_await cm.backoff(n, aborts).join();
  sim::Process backoff(dsm::NodeId n, std::uint32_t aborts);

  // --- counters (end-of-run reporting) ----------------------------------
  [[nodiscard]] std::uint64_t backoffs() const { return backoffs_; }
  [[nodiscard]] sim::Duration total_backoff_ns() const {
    return total_backoff_ns_;
  }
  [[nodiscard]] std::uint64_t fallbacks_signalled() const {
    return fallbacks_;
  }
  /// Caller reports each escalation so the counter matches reality.
  void note_fallback() { ++fallbacks_; }

 private:
  dsm::DsmSystem* sys_;
  ContentionConfig cfg_;
  sim::Rng jitter_;  ///< draws interleave deterministically across nodes
  std::uint64_t backoffs_ = 0;
  sim::Duration total_backoff_ns_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace optsync::txn
