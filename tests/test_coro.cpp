#include "simkern/coro.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace optsync::sim {
namespace {

Process simple_delayer(Scheduler& s, Duration d, Time* seen) {
  co_await delay(s, d);
  *seen = s.now();
}

TEST(Coro, ProcessStartsEagerly) {
  Scheduler s;
  bool started = false;
  auto body = [&](Scheduler& sched) -> Process {
    started = true;
    co_await delay(sched, 1);
  };
  auto p = body(s);
  EXPECT_TRUE(started);  // ran to its first suspension synchronously
  EXPECT_FALSE(p.done());
  s.run();
  EXPECT_TRUE(p.done());
}

TEST(Coro, DelayResumesAtRightTime) {
  Scheduler s;
  Time seen = 0;
  auto p = simple_delayer(s, 250, &seen);
  s.run();
  EXPECT_EQ(seen, 250u);
  EXPECT_TRUE(p.done());
}

Process chain(Scheduler& s, std::vector<Time>* marks) {
  co_await delay(s, 10);
  marks->push_back(s.now());
  co_await delay(s, 10);
  marks->push_back(s.now());
  co_await delay(s, 10);
  marks->push_back(s.now());
}

TEST(Coro, SequentialDelaysAccumulate) {
  Scheduler s;
  std::vector<Time> marks;
  auto p = chain(s, &marks);
  s.run();
  EXPECT_EQ(marks, (std::vector<Time>{10, 20, 30}));
}

Process joiner(Scheduler& s, Process& other, Time* joined_at) {
  co_await other.join();
  *joined_at = s.now();
}

TEST(Coro, JoinWaitsForCompletion) {
  Scheduler s;
  Time seen = 0;
  Time joined_at = 0;
  auto p1 = simple_delayer(s, 100, &seen);
  auto p2 = joiner(s, p1, &joined_at);
  s.run();
  EXPECT_EQ(joined_at, 100u);
}

TEST(Coro, JoinOnCompletedProcessReturnsImmediately) {
  Scheduler s;
  Time seen = 0;
  auto p1 = simple_delayer(s, 5, &seen);
  s.run();
  ASSERT_TRUE(p1.done());
  Time joined_at = kNever;
  auto p2 = joiner(s, p1, &joined_at);
  s.run();
  EXPECT_EQ(joined_at, 5u);
}

Process thrower(Scheduler& s) {
  co_await delay(s, 10);
  throw std::runtime_error("boom");
}

TEST(Coro, ExceptionCapturedAndRethrown) {
  Scheduler s;
  auto p = thrower(s);
  s.run();
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.rethrow_if_failed(), std::runtime_error);
}

Process join_thrower(Scheduler&, Process& other, bool* caught) {
  try {
    co_await other.join();
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(Coro, JoinPropagatesException) {
  Scheduler s;
  bool caught = false;
  auto p1 = thrower(s);
  auto p2 = join_thrower(s, p1, &caught);
  s.run();
  EXPECT_TRUE(caught);
  p2.rethrow_if_failed();
}

Process wait_on(Signal& sig, int* wakes) {
  co_await sig.wait();
  ++*wakes;
  co_await sig.wait();
  ++*wakes;
}

TEST(Coro, SignalWakesAllWaiters) {
  Scheduler s;
  Signal sig(s);
  int wakes = 0;
  auto p1 = wait_on(sig, &wakes);
  auto p2 = wait_on(sig, &wakes);
  s.run();
  EXPECT_EQ(wakes, 0);
  EXPECT_EQ(sig.waiter_count(), 2u);
  sig.notify_all();
  s.run();
  EXPECT_EQ(wakes, 2);  // each woke once, re-armed
  sig.notify_all();
  s.run();
  EXPECT_EQ(wakes, 4);
  EXPECT_TRUE(p1.done());
  EXPECT_TRUE(p2.done());
}

TEST(Coro, NotifyWithNoWaitersIsNoop) {
  Scheduler s;
  Signal sig(s);
  sig.notify_all();
  EXPECT_TRUE(s.idle());
}

Process pred_waiter(Scheduler& s, Signal& sig, const int& value, int want,
                    Time* woke_at) {
  while (value != want) co_await sig.wait();
  *woke_at = s.now();
}

TEST(Coro, PredicateLoopIdiom) {
  Scheduler s;
  Signal sig(s);
  int value = 0;
  Time woke_at = kNever;
  auto p = pred_waiter(s, sig, value, 3, &woke_at);
  for (int i = 1; i <= 3; ++i) {
    s.after(static_cast<Duration>(10 * i) - s.now(), [&, i] {
      value = i;
      sig.notify_all();
    });
    s.run();
  }
  EXPECT_EQ(woke_at, 30u);
  EXPECT_TRUE(p.done());
}

TEST(Coro, DefaultConstructedProcessIsInert) {
  Process p;
  EXPECT_FALSE(p.done());
  EXPECT_FALSE(p.failed());
  p.rethrow_if_failed();  // no-op
}

TEST(Coro, DroppingTheHandleDoesNotCancel) {
  // Simulated programs run to completion like real ones; the Process
  // handle is only an observer.
  Scheduler s;
  bool finished = false;
  // The closure must outlive its coroutine: the frame reads `finished`
  // through the closure object, so only the Process handle leaves scope.
  auto run = [&](Scheduler& sched) -> Process {
    co_await delay(sched, 50);
    finished = true;
  };
  {
    auto p = run(s);
    // p goes out of scope here, before the coroutine resumes.
  }
  s.run();
  EXPECT_TRUE(finished);
}

TEST(Coro, ExceptionBeforeFirstSuspensionIsCaptured) {
  Scheduler s;
  auto boom = [](Scheduler& sched) -> Process {
    (void)sched;
    throw std::runtime_error("early");
    co_return;  // unreachable; makes this a coroutine
  };
  auto p = boom(s);
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.rethrow_if_failed(), std::runtime_error);
}

TEST(Coro, ManyProcessesInterleaveDeterministically) {
  Scheduler s;
  std::vector<int> order;
  std::vector<Process> procs;
  auto make = [&](int id, Duration d) -> Process {
    co_await delay(s, d);
    order.push_back(id);
  };
  for (int i = 0; i < 10; ++i) {
    procs.push_back(make(i, static_cast<Duration>(100 - i * 10)));
  }
  s.run();
  const std::vector<int> expect{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
}

}  // namespace
}  // namespace optsync::sim
