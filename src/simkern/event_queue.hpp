// Priority queue of timed events with stable FIFO ordering and cancellation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simkern/time.hpp"
#include "util/small_fn.hpp"

namespace optsync::sim {

/// Identifies a scheduled event; usable to cancel it before it fires.
/// Encodes (generation << 32 | slot); generations start at 1, so a valid id
/// is never 0 — callers use 0 as their "no timer armed" sentinel.
using EventId = std::uint64_t;

/// Min-heap of events ordered by (time, insertion sequence).
///
/// The sequence tie-break makes the kernel fully deterministic: two events
/// scheduled for the same instant always fire in scheduling order, so a given
/// seed reproduces a simulation bit-for-bit.
///
/// Layout: heap entries are 24-byte PODs carrying only (time, seq, slot,
/// generation). Each slot's generation lives in a dense vector (4 bytes a
/// slot), so the liveness checks of the lazy top drop and of compaction
/// never touch a callback. Callbacks live in fixed pages of kPageSlots
/// 96-byte SmallFns that are never relocated: growing the table adds a
/// page instead of moving every pending callback into a doubled buffer, so
/// a pending event costs 100 bytes of slot plus its heap entry, and the
/// high-water mark is not inflated by an old and a new buffer being
/// resident at once. Free slots are recycled through a freelist, so push
/// and cancel are allocation-free O(1)/O(log n) at steady state — the
/// reliable channel arms one retransmit timer per transmission and cancels
/// one per ack, so both sit on the per-message hot path.
///
/// cancel() frees the slot (and destroys the callback) immediately; the
/// stale heap entry is dropped lazily at the top, and the heap is compacted
/// in place whenever dead entries outnumber live ones, so arm/cancel storms
/// cannot grow memory without bound (the old tombstone-set design leaked
/// every cancelled id that never reached the top).
///
/// Drain release: when the last live event is popped or cancelled while
/// more than one page exists, every page past the first goes back to the
/// allocator and the heap, generation and freelist vectors shrink with it,
/// so a burst of pending events (an open-loop plan scheduled up front) does
/// not stay resident after it has run. A slot index past the first page
/// can come back later for a different event, so the release raises a
/// queue-wide generation floor above every generation handed out so far
/// and every slot, retained or re-created, starts from it: no id from
/// before a release can ever cancel an event armed after it.
class EventQueue {
 public:
  using Callback = util::SmallFn<void()>;

  /// Inserts an event; returns an id usable with cancel().
  EventId push(Time when, Callback cb);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kNever when empty.
  /// Amortized O(log n): lazily discards dead entries at the top.
  [[nodiscard]] Time next_time();

  /// Removes and returns the earliest live event.
  /// Precondition: !empty().
  struct Popped {
    Time time;
    EventId id;
    Callback callback;
  };
  Popped pop();

  /// Drops all events; also the drain release (see Layout). Destroys every
  /// callback, keeps only the first page, shrinks the heap, generation and
  /// freelist vectors, and raises the generation floor above every
  /// generation handed out, so a stale id from before the clear can never
  /// cancel an event armed after it.
  void clear();

  // --- introspection (bounded-memory regression tests, kernel bench) ----
  /// Heap entries currently held, including dead ones awaiting compaction.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }
  /// Callback slots currently created: the high-water mark since the last
  /// drain release, rounded up to whole pages in memory.
  [[nodiscard]] std::size_t slot_count() const { return gens_.size(); }
  /// Cancelled entries still physically in the heap.
  [[nodiscard]] std::size_t dead_entries() const { return dead_in_heap_; }
  /// Bytes one pending event occupies: its callback, its generation and
  /// its heap entry.
  static constexpr std::size_t bytes_per_event() {
    return sizeof(Callback) + sizeof(std::uint32_t) + sizeof(Entry);
  }

  /// Callbacks per page. Pages are allocated whole and never move.
  static constexpr std::size_t kPageSlots = 4096;

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// a fires strictly before b.
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // 4-ary min-heap. Pops dominate the kernel (a same-time multicast burst
  // pushes with one comparison each — the parent's smaller seq stops the
  // sift immediately — but every pop sifts down the full depth), and a
  // 4-ary sift-down halves the depth of a binary one while reading its four
  // 24-byte children from at most two cache lines. Measured on the pop-
  // heavy dispatch mix: ~25% cheaper per event at 32k pending.
  static constexpr std::size_t kArity = 4;
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] Callback& callback(std::uint32_t slot) {
    return pages_[slot / kPageSlots][slot % kPageSlots];
  }

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return gens_[e.slot] == e.gen;
  }

  /// Bumps the slot's generation (invalidating its current id), destroys
  /// the callback, and returns the slot to the freelist.
  void free_slot(std::uint32_t slot);

  void drop_dead_top();
  void maybe_compact();

  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Callback[]>> pages_;
  std::vector<std::uint32_t> gens_;  // one per slot; pages_ holds the rest
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::size_t dead_in_heap_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t gen_floor_ = 1;  // generation of a newly created slot
};

}  // namespace optsync::sim
