// Protocol flight recorder: a fixed-capacity ring buffer of typed events.
//
// Every layer of the stack reports what it did — scheduler dispatch, network
// delivery, reliable-channel outcomes, root sequencing, member application,
// and OptimisticMutex state transitions — into one time-ordered stream. Two
// consumers exist today: the Chrome trace-event exporter (chrome_export.hpp)
// renders the stream for Perfetto, and the GWC invariant checker
// (gwc_checker.hpp) replays it to prove total-order and no-speculative-
// visibility properties after a fault soak.
//
// The buffer is a ring so a long simulation can fly with the recorder
// always on: when full, the oldest events fall off (counted in dropped()).
// Sinks see every event at record time, before any wraparound, so checkers
// never miss one. The simulation is single-threaded; no locking anywhere.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "simkern/time.hpp"

namespace optsync::trace {

enum class EventKind : std::uint8_t {
  kSchedDispatch,    ///< simkern popped and ran an event
  kNetDeliver,       ///< network delivered (or dropped/expired) a message
  kRootSequence,     ///< root stamped a group write with a sequence number
  kRootDropSpec,     ///< root filtered a speculative mutex-data write
  kNodeApply,        ///< member applied a sequenced write to its replica
  kEchoDrop,         ///< member hardware-blocked its own mutex-data echo
  kLockRequest,      ///< mutex issued a lock-request write
  kLockAcquire,      ///< mutex confirmed ownership (section entry)
  kLockRelease,      ///< mutex issued the release write
  kSpeculateBegin,   ///< optimistic path entered the section speculatively
  kSpeculateCommit,  ///< speculation survived: writes are legitimate
  kRollback,         ///< interrupt proved another holder: state restored
  kHistoryVeto,      ///< EWMA history predicted contention; regular path
  kFrameFlush,       ///< root shipped a multicast frame (seq = first seq,
                     ///< value = writes in the frame, label = flush cause)
};

[[nodiscard]] std::string_view event_kind_name(EventKind k);

/// One recorded event. Fields are overloaded per kind (see the emitters):
///   node   — acting node (member, mutex owner, or delivery destination)
///   group  — DSM group id, or 0 where meaningless
///   var    — DSM variable id, or source node for kNetDeliver
///   seq    — root sequence number (kRootSequence / kNodeApply / kEchoDrop)
///   value  — written word, or message bytes for kNetDeliver
///   origin — node whose write this is (sequencing/apply), or ~0u
///   label  — static string: var-kind or message tag ("lock", "mutex-data",
///            "data", "lock-down", "rel-ack", ...). Must outlive the
///            recorder; all call sites pass literals or interned names.
struct Event {
  sim::Time t = 0;
  EventKind kind = EventKind::kSchedDispatch;
  std::uint32_t node = 0;
  std::uint32_t group = 0;
  std::uint32_t var = 0;
  std::uint64_t seq = 0;
  std::int64_t value = 0;
  std::uint32_t origin = ~0u;
  /// kRootSequence of a mutex-data write: the datum's guard lock variable
  /// (~0u otherwise) — what the GWC checker filters the write against.
  std::uint32_t guard = ~0u;
  std::string_view label;
};

class Recorder {
 public:
  using Sink = std::function<void(const Event&)>;

  explicit Recorder(std::size_t capacity = 1 << 16);

  /// Appends an event; evicts the oldest when the ring is full. All sinks
  /// observe the event immediately, before eviction can lose it.
  void record(const Event& e);

  /// Registers a streaming consumer (e.g. the GWC checker).
  void add_sink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Visits retained events oldest-first.
  void for_each(const std::function<void(const Event&)>& fn) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Count of retained events matching a kind (test helper).
  [[nodiscard]] std::uint64_t count(EventKind k) const;

  void clear();

 private:
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Sink> sinks_;
};

}  // namespace optsync::trace
