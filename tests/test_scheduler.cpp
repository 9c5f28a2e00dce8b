#include "simkern/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simkern/assert.hpp"

namespace optsync::sim {
namespace {

TEST(Scheduler, TimeStartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, AdvancesToEventTime) {
  Scheduler s;
  Time seen = kNever;
  s.at(100, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(s.now(), 100u);
}

TEST(Scheduler, AfterIsRelativeToNow) {
  Scheduler s;
  Time seen = 0;
  s.at(50, [&] { s.after(25, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 75u);
}

TEST(Scheduler, SchedulingInThePastRejected) {
  Scheduler s;
  s.at(100, [] {});
  s.run();
  EXPECT_THROW(s.at(50, [] {}), ContractViolation);
}

TEST(Scheduler, RunReturnsEventCount) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.after(static_cast<Duration>(i), [] {});
  EXPECT_EQ(s.run(), 7u);
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(Scheduler, StepRunsOneEvent) {
  Scheduler s;
  int fired = 0;
  s.after(1, [&] { ++fired; });
  s.after(2, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, StopEndsRunEarly) {
  Scheduler s;
  int fired = 0;
  s.after(1, [&] {
    ++fired;
    s.stop();
  });
  s.after(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending(), 1u);
  s.run();  // resumes after stop
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  for (Time t : {10u, 20u, 30u, 40u}) {
    s.at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  s.run_until(25);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(s.now(), 25u);  // clock parked at the deadline
  s.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 20, 30, 40}));
}

TEST(Scheduler, RunUntilIncludesDeadlineEvents) {
  Scheduler s;
  bool fired = false;
  s.at(25, [&] { fired = true; });
  s.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelStopsPendingEvent) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.after(10, [&] { fired = true; });
  s.after(20, [] {});
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CascadedEventsKeepDeterministicOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(5, [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(3); });
  });
  s.at(5, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, ManyEventsProcessInOrder) {
  Scheduler s;
  Time last = 0;
  bool monotonic = true;
  for (int i = 1000; i > 0; --i) {
    s.at(static_cast<Time>(i), [&, i] {
      if (static_cast<Time>(i) < last) monotonic = false;
      last = static_cast<Time>(i);
    });
  }
  s.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(last, 1000u);
}

// --- housekeeping events ------------------------------------------------
// Samplers and control loops arm through after_housekeeping() and re-arm
// only while busy(): pending housekeeping must not count as real work, or
// the loops keep each other alive and run() never returns.

TEST(Scheduler, HousekeepingAloneIsNotBusy) {
  Scheduler s;
  EXPECT_FALSE(s.busy());
  s.after_housekeeping(10, [] {});
  EXPECT_FALSE(s.busy());
  EXPECT_FALSE(s.idle());
  EXPECT_EQ(s.pending(), 1u);
  s.after(20, [] {});
  EXPECT_TRUE(s.busy());
  s.run_until(15);  // the housekeeping event fires; the real one remains
  EXPECT_TRUE(s.busy());
  s.run();
  EXPECT_FALSE(s.busy());
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, TwoReArmingHousekeepingLoopsLetRunDrain) {
  Scheduler s;
  for (Time t = 10; t <= 100; t += 10) s.at(t, [] {});
  struct Loop {
    Scheduler* s;
    Duration interval;
    int ticks = 0;
    void arm() {
      s->after_housekeeping(interval, [this] {
        ++ticks;
        // The tick cap only turns a broken busy() into a failure, not a hang.
        if (s->busy() && ticks < 1000) arm();
      });
    }
  };
  Loop a{&s, 7};
  Loop b{&s, 11};
  a.arm();
  b.arm();
  s.run();  // returns: neither loop counts the other as work
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.busy());
  // Each loop ticks through the real work and stops one interval past it.
  EXPECT_EQ(a.ticks, 15);  // 7, 14, ..., 105
  EXPECT_EQ(b.ticks, 10);  // 11, 22, ..., 110
  EXPECT_EQ(s.now(), 110u);
}

TEST(Scheduler, CancelHousekeepingOnAFiredIdLeavesBusyCorrect) {
  Scheduler s;
  const EventId fired = s.after_housekeeping(5, [] {});
  s.after(10, [] {});
  s.run_until(6);
  EXPECT_FALSE(s.cancel_housekeeping(fired));
  EXPECT_TRUE(s.busy());
  // One live housekeeping event: the stale cancel above must not have
  // uncounted it, or it would now pass for real work.
  const EventId live = s.after_housekeeping(20, [] {});
  s.run_until(15);
  EXPECT_FALSE(s.busy());
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.cancel_housekeeping(fired));
  EXPECT_FALSE(s.busy());
  EXPECT_TRUE(s.cancel_housekeeping(live));
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.busy());
}

}  // namespace
}  // namespace optsync::sim
