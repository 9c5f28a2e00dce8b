#include "simkern/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "simkern/assert.hpp"
#include "simkern/random.hpp"

namespace optsync::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(30, [&] { fired.push_back(3); });
  q.push(10, [&] { fired.push_back(1); });
  q.push(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    q.push(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(7, [] {});
  auto popped = q.pop();
  EXPECT_EQ(popped.time, 7u);
  EXPECT_EQ(popped.id, id);
}

TEST(EventQueue, CancelPreventsDelivery) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(5, [&] { fired = true; });
  q.push(6, [] {});
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(5, [] {});
  q.push(9, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(5, [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelledTop) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(9, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 9u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.push(1, [] {});
  q.push(2, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.push(1, nullptr), ContractViolation);
}

// Regression: cancel used to scan the heap linearly, so retransmit-timer
// churn (every reliable-channel packet arms a timer that is almost always
// cancelled by its ack) was quadratic in pending timers. With the live-id
// set, cancelling most of a 10k+ backlog is effectively instant; the
// wall-clock bound below is ~100x slack for the O(1) implementation and
// hopeless for a linear scan (~10^10 comparisons).
TEST(EventQueue, CancelStormOverLargeBacklogIsFast) {
  constexpr int kBatches = 10;
  constexpr int kPerBatch = 10'000;
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(kPerBatch);
  int fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) {
    ids.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      // Far-future "timers"; one in a hundred survives its batch.
      ids.push_back(q.push(1'000'000 + b, [&fired] { ++fired; }));
    }
    for (int i = 0; i < kPerBatch; ++i) {
      if (i % 100 != 0) {
        EXPECT_TRUE(q.cancel(ids[static_cast<size_t>(i)]));
      }
    }
  }
  const auto cancel_done = std::chrono::steady_clock::now();
  EXPECT_EQ(q.size(), static_cast<size_t>(kBatches * kPerBatch / 100));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, kBatches * kPerBatch / 100);
  // Double-cancel after the drain: all ids are dead, none fire again.
  for (const EventId id : ids) EXPECT_FALSE(q.cancel(id));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      cancel_done - start);
  EXPECT_LT(elapsed.count(), 2'000) << "cancel looks superlinear";
}

TEST(EventQueue, CancelledBacklogDoesNotLeakIntoPopOrder) {
  Rng rng(7);
  EventQueue q;
  std::vector<EventId> live;
  std::vector<Time> expected;
  for (int i = 0; i < 20'000; ++i) {
    const Time t = rng.below(1'000);
    const EventId id = q.push(t, [] {});
    if (rng.below(4) == 0) {
      live.push_back(id);
      expected.push_back(t);
    } else {
      ASSERT_TRUE(q.cancel(id));
    }
  }
  EXPECT_EQ(q.size(), live.size());
  std::sort(expected.begin(), expected.end());
  for (const Time t : expected) {
    auto popped = q.pop();
    EXPECT_EQ(popped.time, t);
  }
  EXPECT_TRUE(q.empty());
}

// Regression: the old dual-hash-set queue kept every cancelled id in a
// tombstone set until its heap entry surfaced, so a long-running arm/cancel
// storm (retransmit timers over days of sim time) grew without bound even
// though the LIVE population stayed tiny. The slot-table queue destroys the
// callback at cancel and compacts the heap when dead entries outnumber live
// ones: after a million arm/cancel ops with <= 1024 live, every internal
// structure must still be sized by the live count, not the op count.
TEST(EventQueue, MillionOpArmCancelStormStaysBounded) {
  constexpr std::uint64_t kOps = 1'000'000;
  constexpr std::size_t kLive = 1024;
  EventQueue q;
  std::vector<EventId> live(kLive, 0);
  std::size_t peak_heap = 0;
  std::size_t peak_slots = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::size_t k = i % kLive;
    if (live[k] != 0) {
      ASSERT_TRUE(q.cancel(live[k]));
    }
    live[k] = q.push(static_cast<Time>(kOps + i), [] {});
    peak_heap = std::max(peak_heap, q.heap_entries());
    peak_slots = std::max(peak_slots, q.slot_count());
  }
  EXPECT_EQ(q.size(), kLive);
  // Slots are recycled through the freelist; the heap holds at most ~2x
  // live before compaction kicks in (plus the compaction threshold).
  EXPECT_LE(peak_slots, 4 * kLive);
  EXPECT_LE(peak_heap, 8 * kLive);
  // The survivors still pop in time order with their callbacks intact.
  int fired = 0;
  while (!q.empty()) {
    auto popped = q.pop();
    popped.callback();
    ++fired;
  }
  EXPECT_EQ(fired, static_cast<int>(kLive));
}

// Regression: clear() used to leave the cancelled-id bookkeeping behind, so
// an id armed BEFORE the clear could alias (and cancel) an unrelated event
// armed after it once the slot was reused. clear() now bumps every slot's
// generation: stale ids are dead forever.
TEST(EventQueue, StaleIdsFromBeforeClearCannotCancelNewEvents) {
  EventQueue q;
  std::vector<EventId> stale;
  for (int i = 0; i < 64; ++i) stale.push_back(q.push(10 + i, [] {}));
  q.clear();
  EXPECT_TRUE(q.empty());
  // Re-arm into the same (recycled) slots.
  bool fired[64] = {};
  std::vector<EventId> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.push_back(q.push(10 + i, [&fired, i] { fired[i] = true; }));
  }
  for (const EventId id : stale) EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 64u);
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(fired[i]) << i;
  // The fresh ids are spent now, and the stale ones still dead.
  for (const EventId id : fresh) EXPECT_FALSE(q.cancel(id));
  for (const EventId id : stale) EXPECT_FALSE(q.cancel(id));
}

// Ids never collide across slot reuse within a generation epoch: a slot
// freed by pop/cancel comes back with a new generation, so the old id's
// cancel misses even when the slot number matches.
TEST(EventQueue, RecycledSlotGetsFreshGeneration) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.pop().callback();          // slot freed by firing
  const EventId b = q.push(2, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));   // stale id: dead
  EXPECT_TRUE(q.cancel(b));    // fresh id: live
}

TEST(EventQueue, RandomizedOrderMatchesStableSort) {
  Rng rng(2024);
  EventQueue q;
  struct Expect {
    Time t;
    int tag;
  };
  std::vector<Expect> expected;
  for (int i = 0; i < 500; ++i) {
    const Time t = rng.below(50);  // many ties
    expected.push_back({t, i});
    q.push(t, [] {});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expect& a, const Expect& b) { return a.t < b.t; });
  for (const auto& e : expected) {
    auto popped = q.pop();
    EXPECT_EQ(popped.time, e.t);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace optsync::sim
