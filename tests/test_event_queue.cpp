#include "simkern/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "simkern/assert.hpp"
#include "simkern/random.hpp"

namespace optsync::sim {
namespace {

// A pending event's callback is the queue's per-event cost: the 88-byte
// inline buffer plus the ops pointer, with no padding between them.
static_assert(sizeof(EventQueue::Callback) <= 96);

constexpr std::size_t kPage = EventQueue::kPageSlots;

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
// armed after it once the slot was reused. clear() now raises the queue's
// generation floor above every id handed out: stale ids are dead forever.
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

// Callbacks live in fixed pages; a backlog spanning three of them must pop
// in exact (time, seq) order with every capture intact (nothing is lost or
// mixed up when the table grows by a page).
TEST(EventQueue, ThreePagesOfPendingEventsPopInOrderWithCaptures) {
  constexpr std::size_t kEvents = 3 * kPage;
  Rng rng(19);
  EventQueue q;
  struct Expect {
    Time t;
    std::uint64_t tag;
  };
  std::vector<Expect> expected;
  std::vector<std::uint64_t> fired;
  fired.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    const Time t = rng.below(2'000);  // many ties
    const std::uint64_t tag = i;
    // A capture large enough to fill most of the inline buffer.
    const std::array<std::uint64_t, 8> payload = {tag,     tag + 1, tag + 2,
                                                  tag + 3, tag + 4, tag + 5,
                                                  tag + 6, tag ^ 0x5a5a};
    expected.push_back({t, tag});
    q.push(t, [&fired, payload] {
      for (std::size_t k = 0; k < 7; ++k) {
        if (payload[k] != payload[0] + k) return;
      }
      if (payload[7] != (payload[0] ^ 0x5a5a)) return;
      fired.push_back(payload[0]);
    });
  }
  EXPECT_EQ(q.slot_count(), kEvents);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expect& a, const Expect& b) { return a.t < b.t; });
  for (const auto& e : expected) {
    auto popped = q.pop();
    ASSERT_EQ(popped.time, e.t);
    popped.callback();
    ASSERT_EQ(fired.back(), e.tag);
  }
  EXPECT_EQ(fired.size(), kEvents);
  EXPECT_TRUE(q.empty());
}

// Drain release: once the last live event of a multi-page backlog is popped
// or cancelled, the table is back to one page and the heap is empty.
TEST(EventQueue, DrainedQueueIsBackToOnePage) {
  EventQueue q;
  for (std::size_t i = 0; i < 2 * kPage + kPage / 2; ++i) {
    q.push(static_cast<Time>(i), [] {});
  }
  EXPECT_EQ(q.slot_count(), 2 * kPage + kPage / 2);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(q.slot_count(), kPage);
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_EQ(q.dead_entries(), 0u);

  // The cancel path drains the same way, dead heap entries included.
  std::vector<EventId> ids;
  for (std::size_t i = 0; i < 2 * kPage + 1; ++i) {
    ids.push_back(q.push(static_cast<Time>(1'000 + i), [] {}));
  }
  EXPECT_EQ(q.slot_count(), 2 * kPage + 1);
  for (const EventId id : ids) ASSERT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slot_count(), kPage);
  EXPECT_EQ(q.heap_entries(), 0u);
  EXPECT_EQ(q.dead_entries(), 0u);
  EXPECT_EQ(q.next_time(), kNever);

  // A one-page queue keeps its table when it drains.
  q.push(5, [] {});
  q.pop().callback();
  EXPECT_EQ(q.slot_count(), kPage);
}

// Ids from before a drain release or a clear() — fired or cancelled — are
// dead for good: cancel() misses them, and no event armed afterwards gets
// one of them back, also once the table has re-grown past its first page
// (slot indices past the first page are re-created under new generations).
TEST(EventQueue, IdsFromBeforeAReleaseNeverAliasLaterEvents) {
  EventQueue q;
  std::vector<EventId> stale;
  auto arm_backlog = [&](std::size_t n, Time base) {
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(q.push(base + static_cast<Time>(i), [] {}));
    }
    return ids;
  };

  // Release by pops, then by cancels: half the backlog fires, the rest is
  // cancelled, and the last cancel releases the extra pages.
  auto ids = arm_backlog(3 * kPage, 100);
  for (std::size_t i = 0; i < ids.size() / 2; ++i) q.pop().callback();
  for (std::size_t i = ids.size() / 2; i < ids.size(); ++i) {
    ASSERT_TRUE(q.cancel(ids[i]));
  }
  ASSERT_EQ(q.slot_count(), kPage);
  stale.insert(stale.end(), ids.begin(), ids.end());

  // Re-grow past one page and release again by popping everything.
  ids = arm_backlog(2 * kPage + 7, 200'000);
  for (const EventId id : stale) ASSERT_FALSE(q.cancel(id));
  ASSERT_EQ(q.size(), 2 * kPage + 7);
  while (!q.empty()) q.pop().callback();
  ASSERT_EQ(q.slot_count(), kPage);
  stale.insert(stale.end(), ids.begin(), ids.end());

  // clear() with live events takes the same path.
  ids = arm_backlog(kPage + 1, 400'000);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slot_count(), kPage);
  EXPECT_EQ(q.heap_entries(), 0u);
  stale.insert(stale.end(), ids.begin(), ids.end());

  // The fresh backlog re-grows past the first page; nothing stale may
  // cancel it, and none of its ids repeats a stale one.
  std::vector<int> fired(3 * kPage, 0);
  std::vector<EventId> fresh;
  for (std::size_t i = 0; i < fired.size(); ++i) {
    fresh.push_back(q.push(600'000 + static_cast<Time>(i),
                           [&fired, i] { ++fired[i]; }));
  }
  const std::unordered_set<EventId> old(stale.begin(), stale.end());
  for (const EventId id : fresh) ASSERT_EQ(old.count(id), 0u);
  for (const EventId id : stale) ASSERT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), fired.size());
  while (!q.empty()) q.pop().callback();
  for (std::size_t i = 0; i < fired.size(); ++i) ASSERT_EQ(fired[i], 1) << i;
  for (const EventId id : fresh) EXPECT_FALSE(q.cancel(id));
}

}  // namespace
}  // namespace optsync::sim
