// The per-node Sesame sharing interface + local memory.
//
// Models the paper's memory-sharing hardware: writes to shared variables are
// applied locally without stalling the CPU and a copy is sent to the group
// root; sequenced updates arriving from the root are applied in order.
// Implements the two mechanisms optimistic synchronization needs:
//   * interrupt-with-insharing-suspension on lock-variable changes (Fig. 5),
//   * hardware blocking of self-echoed mutex data (Fig. 6).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dsm/frame.hpp"
#include "dsm/types.hpp"
#include "simkern/coro.hpp"
#include "util/ring.hpp"

namespace optsync::dsm {

class DsmSystem;

class DsmNode {
 public:
  DsmNode(DsmSystem& sys, NodeId id);
  DsmNode(const DsmNode&) = delete;
  DsmNode& operator=(const DsmNode&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  /// Local read. Free of network cost — the point of eagersharing is that
  /// shared values are already in local memory when needed.
  [[nodiscard]] Word read(VarId v) const;

  /// Local write + eagershare: applies to local memory immediately (the CPU
  /// is not slowed) and ships the change to the group root for sequencing.
  void write(VarId v, Word value);

  /// Atomically swaps the local copy and issues the eagershare for the new
  /// value. Models Fig. 4 line 04: the swap and the request must be one
  /// operation lest a grant arriving in between be lost.
  Word atomic_exchange(VarId v, Word value);

  /// Sets every lock word of `locks` (one group, strictly ascending VarId)
  /// to `value` locally and eagershares them as ONE lock-set message
  /// (DsmSystem::share_out_lock_set) — a multi-stripe request or release.
  /// A one-lock set is exactly write().
  void write_lock_set(const std::vector<VarId>& locks, Word value);

  /// Direct local set with no sharing traffic; for initialization and tests.
  void poke(VarId v, Word value);

  // --- insharing control (Fig. 5) ------------------------------------
  /// Stops applying incoming sequenced updates; they queue in arrival order.
  void suspend_insharing();
  /// Resumes application; queued updates apply immediately, in order. If an
  /// interrupt fired during the drain suspends again, draining stops.
  void resume_insharing();
  [[nodiscard]] bool insharing_suspended() const { return suspended_; }

  // --- change interrupts ----------------------------------------------
  /// Handler invoked when a sequenced update to `v` arrives while armed.
  /// Invocation is atomically coupled with insharing suspension: the
  /// triggering value is applied, insharing is suspended, then the handler
  /// runs. The handler (or code it resumes) must call resume_insharing().
  using InterruptHandler = std::function<void(VarId, Word, NodeId origin)>;
  void arm_interrupt(VarId v, InterruptHandler handler);
  void disarm_interrupt(VarId v);
  [[nodiscard]] bool interrupt_armed(VarId v) const;

  /// Signal notified after any change to `v`'s local copy (local writes and
  /// applied root updates alike). Coroutines wait on it for lock grants.
  sim::Signal& on_change(VarId v);

  /// Per-node override of the Fig. 6 hardware blocking switch (defaults to
  /// the system config value).
  void set_hardware_blocking(bool enabled) { hw_blocking_ = enabled; }
  [[nodiscard]] bool hardware_blocking() const { return hw_blocking_; }

  // --- mutex-section occupancy ------------------------------------------
  /// A node models one instruction stream; overlapping critical sections on
  /// it — even under different locks — are the Fig. 4 nesting error.
  /// OptimisticMutex brackets executions with these.
  void enter_mutex_section();
  void exit_mutex_section();
  [[nodiscard]] bool in_mutex_section() const { return in_mutex_section_; }

  // --- substrate entry point -------------------------------------------
  /// A sequenced update from a group root arrives at this interface.
  void deliver(GroupId g, std::uint64_t seq, VarId v, Word value,
               NodeId origin);

  /// A whole multicast frame arrives: its writes are applied one by one in
  /// sequence order through deliver(), so an interrupt raised mid-frame
  /// (a lock grant riding with data) suspends insharing and queues the
  /// remainder of the frame exactly as it would queue later packets.
  void deliver_frame(GroupId g, const Frame& frame);

  struct Stats {
    std::uint64_t local_writes = 0;
    std::uint64_t updates_applied = 0;
    std::uint64_t echoes_dropped = 0;  ///< HW blocking drops (Fig. 6)
    std::uint64_t interrupts = 0;
    std::uint64_t queued_while_suspended = 0;
    std::uint64_t held_out_of_order = 0;  ///< parked by the delivery gate
    std::uint64_t stale_drops = 0;        ///< already-delivered seq discarded
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Sequence of root-ordered updates applied on this node for `g`
  /// (var, value, origin). Recorded for the GWC total-order property tests.
  struct AppliedUpdate {
    std::uint64_t seq;
    VarId var;
    Word value;
    NodeId origin;
  };
  [[nodiscard]] const std::vector<AppliedUpdate>& applied_log(GroupId g) const;
  void enable_applied_log(bool on) { log_applied_ = on; }

 private:
  friend class DsmSystem;

  struct Pending {
    GroupId group;
    std::uint64_t seq;
    VarId var;
    Word value;
    NodeId origin;
  };

  void accept(const Pending& p);
  void apply(const Pending& p);
  void ensure_capacity(VarId v);

  /// Per-group in-order delivery gate. GWC needs every member to apply a
  /// group's writes in sequence order; on a single root flow the transport
  /// already guarantees that (per-flow FIFO). An online root migration
  /// changes the flow mid-stream — old-root->member and new-root->member
  /// are different FIFO channels, and under faults a retransmitted pre-cut
  /// frame can land after a post-cut frame. The gate holds early arrivals
  /// until the gap closes, releasing them in sequence order, so the apply
  /// path (and GwcChecker) see one uninterrupted stream across the cut.
  struct GroupInorder {
    std::uint64_t next = 1;  ///< next expected delivery seq
    std::map<std::uint64_t, Pending> held;
  };

  /// The signal for `v` if one was ever requested, else nullptr. apply()
  /// notifies through this so vars nobody waits on never allocate a Signal
  /// (the hot path used to create one per written var).
  [[nodiscard]] sim::Signal* signal_if_any(VarId v) const {
    return v < signals_.size() ? signals_[v].get() : nullptr;
  }

  static constexpr std::uint32_t kNoInterrupt =
      std::numeric_limits<std::uint32_t>::max();

  DsmSystem* sys_;
  NodeId id_;
  std::vector<Word> memory_;
  bool suspended_ = false;
  bool draining_ = false;
  bool hw_blocking_ = true;
  bool in_mutex_section_ = false;
  util::Ring<Pending> inbox_;
  // Hot per-var/per-group state is indexed by the dense VarId/GroupId
  // directly (grown on demand) — the unordered_map hash+probe per applied
  // write was a measurable slice of the kernel's per-message cost. The
  // interrupt table is split: a 4-byte index per var into a small handler
  // vector, since only lock vars ever arm interrupts.
  std::vector<std::uint32_t> interrupt_idx_;  ///< kNoInterrupt = not armed
  std::vector<InterruptHandler> interrupt_handlers_;
  std::vector<std::uint32_t> interrupt_free_;
  std::vector<std::unique_ptr<sim::Signal>> signals_;
  std::vector<GroupInorder> inorder_;
  std::vector<std::uint64_t> last_seq_;
  std::unordered_map<GroupId, std::vector<AppliedUpdate>> applied_;
  bool log_applied_ = false;
  Stats stats_;
};

}  // namespace optsync::dsm
