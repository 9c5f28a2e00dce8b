#include "simkern/event_queue.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "simkern/assert.hpp"

namespace optsync::sim {

EventId EventQueue::push(Time when, Callback cb) {
  OPTSYNC_EXPECT(cb != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(gens_.size());
    if (slot % kPageSlots == 0) {
      pages_.push_back(std::make_unique_for_overwrite<Callback[]>(kPageSlots));
    }
    gens_.push_back(gen_floor_);
  }
  callback(slot) = std::move(cb);
  const std::uint32_t gen = gens_[slot];
  heap_.push_back(Entry{when, next_seq_++, slot, gen});
  sift_up(heap_.size() - 1);
  ++live_;
  return make_id(slot, gen);
}

void EventQueue::free_slot(std::uint32_t slot) {
  callback(slot) = nullptr;
  if (++gens_[slot] == 0) gens_[slot] = 1;  // ids are never 0; see EventId
  free_slots_.push_back(slot);
}

void EventQueue::clear() {
  std::uint32_t top = gen_floor_;
  for (const std::uint32_t g : gens_) top = std::max(top, g);
  gen_floor_ = top == UINT32_MAX ? 1 : top + 1;  // ids are never 0

  const std::size_t kept = std::min(gens_.size(), kPageSlots);
  pages_.resize(std::min<std::size_t>(pages_.size(), 1));
  for (std::uint32_t i = 0; i < kept; ++i) callback(i) = nullptr;
  gens_.assign(kept, gen_floor_);
  gens_.shrink_to_fit();
  free_slots_.resize(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    free_slots_[i] = static_cast<std::uint32_t>(kept - 1 - i);
  }
  free_slots_.shrink_to_fit();
  heap_.clear();
  heap_.shrink_to_fit();
  live_ = 0;
  dead_in_heap_ = 0;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffull);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= gens_.size() || gens_[slot] != gen) {
    return false;  // already fired, already cancelled, or never existed
  }
  // O(1): drop the callback and invalidate the slot now; the heap entry
  // becomes dead and is reclaimed lazily (top drop or compaction).
  free_slot(slot);
  --live_;
  ++dead_in_heap_;
  if (live_ == 0 && pages_.size() > 1) {
    clear();
  } else {
    maybe_compact();
  }
  return true;
}

void EventQueue::maybe_compact() {
  // Compact when dead entries dominate: bounds heap memory at ~2x the live
  // count under arm/cancel storms while keeping the amortized cost O(1)
  // per cancel (each compaction halves the heap, paid for by the cancels
  // that created the dead entries).
  if (dead_in_heap_ < 64 || dead_in_heap_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  // Bottom-up heapify: O(n), and n just halved.
  for (std::size_t i = heap_.size() / kArity + 1; i-- > 0;) sift_down(i);
  dead_in_heap_ = 0;
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    --dead_in_heap_;
  }
}

Time EventQueue::next_time() {
  if (live_ == 0) return kNever;
  drop_dead_top();
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  OPTSYNC_EXPECT(live_ > 0);
  drop_dead_top();
  const Entry e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  Popped out{e.time, make_id(e.slot, e.gen), std::move(callback(e.slot))};
  free_slot(e.slot);
  --live_;
  if (live_ == 0 && pages_.size() > 1) clear();
  return out;
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace optsync::sim
