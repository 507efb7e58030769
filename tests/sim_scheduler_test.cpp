// Unit tests for the discrete-event core: virtual time, task spawning,
// channels, sync primitives, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rpcoib::sim {
namespace {

Task sleeper(Scheduler& s, Dur d, std::vector<int>& log, int id) {
  co_await delay(s, d);
  log.push_back(id);
}

TEST(Scheduler, EventsRunInTimeOrder) {
  Scheduler s;
  std::vector<int> log;
  s.spawn(sleeper(s, micros(30), log, 3));
  s.spawn(sleeper(s, micros(10), log, 1));
  s.spawn(sleeper(s, micros(20), log, 2));
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), micros(30));
}

TEST(Scheduler, SameTimeEventsAreFifo) {
  Scheduler s;
  std::vector<int> log;
  for (int i = 0; i < 5; ++i) s.spawn(sleeper(s, micros(10), log, i));
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CallbacksInPastClampToNow) {
  Scheduler s;
  bool ran = false;
  s.call_after(micros(5), [&] {
    s.call_at(0, [&] { ran = true; });  // in the past
  });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), micros(5));
}

Task thrower(Scheduler& s) {
  co_await delay(s, micros(1));
  throw std::runtime_error("boom");
}

TEST(Task, UnjoinedExceptionPropagatesToRun) {
  Scheduler s;
  s.spawn(thrower(s));
  EXPECT_THROW(s.run(), std::runtime_error);
}

Co<int> add_later(Scheduler& s, int a, int b) {
  co_await delay(s, micros(7));
  co_return a + b;
}

Co<int> add_twice(Scheduler& s, int a) {
  const int x = co_await add_later(s, a, 1);
  const int y = co_await add_later(s, x, 10);
  co_return y;
}

Task nested_driver(Scheduler& s, int& out) {
  out = co_await add_twice(s, 5);
}

TEST(Co, NestedAwaitablesComposeAndReturnValues) {
  Scheduler s;
  int out = 0;
  s.spawn(nested_driver(s, out));
  s.run();
  EXPECT_EQ(out, 16);
  EXPECT_EQ(s.now(), micros(14));
}

Co<int> co_thrower(Scheduler& s) {
  co_await delay(s, micros(1));
  throw std::logic_error("inner");
}

Task co_catch_driver(Scheduler& s, bool& caught) {
  try {
    (void)co_await co_thrower(s);
  } catch (const std::logic_error&) {
    caught = true;
  }
}

TEST(Co, ExceptionsPropagateThroughAwait) {
  Scheduler s;
  bool caught = false;
  s.spawn(co_catch_driver(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

Task producer(Scheduler& s, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await delay(s, micros(10));
    ch.push(i);
  }
  ch.close();
}

Task consumer(Scheduler& s, Channel<int>& ch, std::vector<int>& got) {
  (void)s;
  try {
    for (;;) got.push_back(co_await ch.recv());
  } catch (const ChannelClosed&) {
  }
}

TEST(Channel, DeliversInOrderAndSignalsClose) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<int> got;
  s.spawn(consumer(s, ch, got));
  s.spawn(producer(s, ch, 4));
  s.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Channel, TryRecvNonBlocking) {
  Scheduler s;
  Channel<int> ch(s);
  int v = -1;
  EXPECT_FALSE(ch.try_recv(v));
  ch.push(42);
  EXPECT_TRUE(ch.try_recv(v));
  EXPECT_EQ(v, 42);
}

Task worker_with_sem(Scheduler& s, Semaphore& sem, int& concurrent, int& peak) {
  co_await sem.acquire();
  ++concurrent;
  peak = std::max(peak, concurrent);
  co_await delay(s, micros(50));
  --concurrent;
  sem.release();
}

TEST(Semaphore, BoundsConcurrency) {
  Scheduler s;
  Semaphore sem(s, 2);
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 6; ++i) s.spawn(worker_with_sem(s, sem, concurrent, peak));
  s.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(concurrent, 0);
  // 6 workers, 2 at a time, 50us each => 150us.
  EXPECT_EQ(s.now(), micros(150));
}

Task event_waiter(Scheduler& s, SimEvent& ev, Time& woke) {
  (void)s;
  co_await ev.wait();
  woke = s.now();
}

Task event_setter(Scheduler& s, SimEvent& ev) {
  co_await delay(s, micros(33));
  ev.set();
}

TEST(SimEvent, WakesAllWaitersAtSetTime) {
  Scheduler s;
  SimEvent ev(s);
  Time w1 = 0, w2 = 0;
  s.spawn(event_waiter(s, ev, w1));
  s.spawn(event_waiter(s, ev, w2));
  s.spawn(event_setter(s, ev));
  s.run();
  EXPECT_EQ(w1, micros(33));
  EXPECT_EQ(w2, micros(33));
}

Task timed_waiter(Scheduler& s, SimEvent& ev, Dur timeout, int& resumes, bool& ok,
                  bool& idle_at_wake) {
  ok = co_await ev.wait_for(timeout);
  ++resumes;
  idle_at_wake = s.idle();
}

TEST(SimEvent, SatisfiedTimedWaitLeavesNothingQueued) {
  Scheduler s;
  SimEvent ev(s);
  int resumes = 0;
  bool ok = false, idle_at_wake = false;
  s.spawn(timed_waiter(s, ev, seconds(5), resumes, ok, idle_at_wake));
  s.spawn(event_setter(s, ev));
  s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(resumes, 1);
  EXPECT_TRUE(idle_at_wake);  // the 5 s timer left with the wait
  EXPECT_EQ(s.queued(), 0u);
  // Two spawns, the setter's delay, the waiter's wakeup; no timer event,
  // and the clock stops at the set, not at the dead deadline.
  EXPECT_EQ(s.events_processed(), 4u);
  EXPECT_EQ(s.now(), micros(33));
}

TEST(SimEvent, TimerFiringFirstResumesExactlyOnce) {
  Scheduler s;
  SimEvent ev(s);
  int resumes = 0;
  bool ok = true, idle_at_wake = false;
  s.spawn(timed_waiter(s, ev, micros(5), resumes, ok, idle_at_wake));
  s.spawn(event_setter(s, ev));  // sets at 33 us, after the deadline
  s.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(resumes, 1);
  EXPECT_TRUE(ev.is_set());
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.now(), micros(33));
}

Task timed_wait_loop(Scheduler& s, int rounds, int& satisfied, std::size_t& peak_queued) {
  for (int i = 0; i < rounds; ++i) {
    SimEvent ev(s);
    s.call_after(micros(1), [&ev] { ev.set(); });
    const bool ok = co_await ev.wait_for(seconds(5));
    if (ok) ++satisfied;
    peak_queued = std::max(peak_queued, s.queued());
  }
}

TEST(SimEvent, SatisfiedTimedWaitsKeepQueueBounded) {
  constexpr int kRounds = 100'000;
  Scheduler s;
  int satisfied = 0;
  std::size_t peak_queued = 0;
  s.spawn(timed_wait_loop(s, kRounds, satisfied, peak_queued));
  s.run();
  EXPECT_EQ(satisfied, kRounds);
  EXPECT_LE(peak_queued, 2u);  // a constant, not one dead timer per round
  EXPECT_EQ(s.queued(), 0u);
  EXPECT_EQ(s.events_processed(), 2u * kRounds + 1);  // spawn, then set + wakeup per round
  EXPECT_EQ(s.now(), micros(kRounds));
}

TEST(Scheduler, FifoTieBreakAcrossKindsCancelAndSlotReuse) {
  Scheduler s;
  std::vector<int> log;
  s.call_at(micros(10), [&] { log.push_back(0); });
  const TimerId dead = s.call_at(micros(10), [&] { log.push_back(-1); });
  // Its resume_at(10 us) is scheduled when the task first runs at 0, so
  // it queues behind every call_at made before run().
  s.spawn(sleeper(s, micros(10), log, 1));
  s.call_at(micros(10), [&] { log.push_back(2); });
  s.cancel(dead);
  s.cancel(dead);  // a second cancel is a no-op
  s.call_at(micros(10), [&] { log.push_back(3); });
  s.call_at(micros(1), [&] {
    // This callback's slot is free while it runs: the next call_at reuses
    // it, and its later seq still queues it behind every earlier 10 us event.
    s.call_at(micros(10), [&] { log.push_back(4); });
    const TimerId gone = s.call_at(micros(10), [&] { log.push_back(-2); });
    s.cancel(gone);
    s.call_at(micros(10), [&] { log.push_back(5); });
  });
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 2, 3, 1, 4, 5}));
  // The spawn, the 1 us callback and six live 10 us events; no cancelled one.
  EXPECT_EQ(s.events_processed(), 8u);
  EXPECT_EQ(s.now(), micros(10));
  EXPECT_TRUE(s.idle());
}

struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&& o) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
};

TEST(Scheduler, ClosuresRunOnceWithoutCopies) {
  Scheduler s;
  int copies = 0, small_runs = 0, large_runs = 0;
  s.call_after(micros(1), [c = CopyCounter(&copies), &small_runs] { ++small_runs; });
  // Past the inline buffer: parked on the heap, still never copied.
  std::array<char, 2 * Callback::kInline> pad{};
  s.call_after(micros(2), [c = CopyCounter(&copies), pad, &large_runs] {
    large_runs += 1 + pad[0];
  });
  s.run();
  EXPECT_EQ(small_runs, 1);
  EXPECT_EQ(large_runs, 1);
  EXPECT_EQ(copies, 0);
}

Task wg_member(Scheduler& s, WaitGroup& wg, Dur d) {
  co_await delay(s, d);
  wg.done();
}

Task wg_waiter(Scheduler& s, WaitGroup& wg, Time& done_at) {
  (void)s;
  co_await wg.wait();
  done_at = s.now();
}

TEST(WaitGroup, WaitsForAllMembers) {
  Scheduler s;
  WaitGroup wg(s);
  Time done_at = 0;
  wg.add(3);
  s.spawn(wg_member(s, wg, micros(10)));
  s.spawn(wg_member(s, wg, micros(99)));
  s.spawn(wg_member(s, wg, micros(50)));
  s.spawn(wg_waiter(s, wg, done_at));
  s.run();
  EXPECT_EQ(done_at, micros(99));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_below(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, SkewsTowardLowKeys) {
  Rng r(42);
  ZipfianGenerator z(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.next(r)];
  // Key 0 must be far more popular than the median key.
  EXPECT_GT(counts[0], 20 * counts[500] + 1);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 100000);
}

// Determinism: two identical simulations produce identical event traces.
Task noisy(Scheduler& s, Rng& rng, std::vector<Time>& trace, Channel<int>& ch, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await delay(s, rng.next_below(100) + 1);
    trace.push_back(s.now());
    ch.push(i);
    (void)co_await ch.recv();
  }
}

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler s;
    Rng rng(seed);
    Channel<int> ch(s);
    std::vector<Time> trace;
    for (int i = 0; i < 4; ++i) s.spawn(noisy(s, rng, trace, ch, 25));
    s.run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

}  // namespace
}  // namespace rpcoib::sim
