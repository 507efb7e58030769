// Edge-case tests for the simulation core: run_until boundaries, channel
// close with queued items, semaphore fairness under churn, wait-group
// reuse, drain semantics and order, scheduler termination, host resources,
// and the coroutine frame recycler.
#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <numeric>
#include <vector>

#include "cluster/host.hpp"
#include "net/testbed.hpp"
#include "sim/channel.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rpcoib::sim {
namespace {

TEST(SchedulerEdge, RunUntilIsExclusiveOfDeadline) {
  Scheduler s;
  bool at_10 = false, at_20 = false;
  s.call_at(micros(10), [&] { at_10 = true; });
  s.call_at(micros(20), [&] { at_20 = true; });
  s.run_until(micros(20));
  EXPECT_TRUE(at_10);
  EXPECT_FALSE(at_20);  // deadline exclusive
  s.run_until(micros(21));
  EXPECT_TRUE(at_20);
}

TEST(SchedulerEdge, StepOnEmptyQueueReturnsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(SchedulerEdge, TerminatedSchedulerIgnoresNewEvents) {
  Scheduler s;
  s.drain_tasks();
  EXPECT_TRUE(s.terminated());
  bool ran = false;
  s.call_at(micros(5), [&] { ran = true; });
  s.run();
  EXPECT_FALSE(ran);
}

Task forever_waiter(Channel<int>& ch, bool& got) {
  (void)co_await ch.recv();
  got = true;
}

TEST(SchedulerEdge, DrainDestroysSuspendedTasks) {
  Scheduler s;
  Channel<int> ch(s);
  bool got = false;
  s.spawn(forever_waiter(ch, got));
  s.run();
  EXPECT_EQ(s.live_task_count(), 1u);
  s.drain_tasks();
  EXPECT_EQ(s.live_task_count(), 0u);
  EXPECT_FALSE(got);
}

// Logs its id when the frame holding it is destroyed; id 1 also spawns a
// task from its destructor.
struct DrainMarker {
  Scheduler* sched;
  std::vector<int>* log;
  int id;
  ~DrainMarker();
};

Task parked(Scheduler& s, std::vector<int>& log, int id) {
  DrainMarker m{&s, &log, id};
  co_await std::suspend_always{};
}

DrainMarker::~DrainMarker() {
  log->push_back(id);
  if (id == 1) sched->spawn(parked(*sched, *log, 9));
}

TEST(SchedulerEdge, DrainDestroysTasksInSpawnOrder) {
  Scheduler s;
  std::vector<int> log;
  // Free a few unspawned frames first, so that (with frames recycled LIFO)
  // the spawned tasks do not sit at ascending addresses.
  for (int i = 0; i < 3; ++i) {
    Task unspawned = parked(s, log, -1);
  }
  for (const int id : {0, 1, 2, 3, 4}) s.spawn(parked(s, log, id));
  s.run();
  ASSERT_TRUE(log.empty());  // the unspawned frames never started: no marker
  EXPECT_EQ(s.live_task_count(), 5u);
  s.drain_tasks();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
  // The task spawned during the drain never started, and was destroyed too.
  EXPECT_EQ(s.live_task_count(), 0u);
}

Task drain_consumer(Channel<int>& ch, std::vector<int>& got) {
  try {
    for (;;) got.push_back(co_await ch.recv());
  } catch (const ChannelClosed&) {
  }
}

TEST(ChannelEdge, CloseDeliversQueuedItemsFirst) {
  Scheduler s;
  Channel<int> ch(s);
  ch.push(1);
  ch.push(2);
  ch.close();
  std::vector<int> got;
  s.spawn(drain_consumer(ch, got));
  s.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

Task recv_one(Channel<int>& ch, bool& closed_seen) {
  try {
    (void)co_await ch.recv();
  } catch (const ChannelClosed&) {
    closed_seen = true;
  }
}

TEST(ChannelEdge, CloseWakesBlockedReceiverWithException) {
  Scheduler s;
  Channel<int> ch(s);
  bool closed_seen = false;
  s.spawn(recv_one(ch, closed_seen));
  s.call_after(micros(5), [&] { ch.close(); });
  s.run();
  EXPECT_TRUE(closed_seen);
}

TEST(ChannelEdge, RecvOnClosedEmptyChannelThrowsImmediately) {
  Scheduler s;
  Channel<int> ch(s);
  ch.close();
  bool closed_seen = false;
  s.spawn(recv_one(ch, closed_seen));
  s.run();
  EXPECT_TRUE(closed_seen);
}

Task sem_user(Scheduler& s, Semaphore& sem, std::vector<int>& order, int id) {
  co_await sem.acquire();
  order.push_back(id);
  co_await delay(s, micros(10));
  sem.release();
}

TEST(SemaphoreEdge, FifoOrderUnderContention) {
  Scheduler s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) s.spawn(sem_user(s, sem, order, i));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SemaphoreEdge, TryAcquireNeverBlocks) {
  Scheduler s;
  Semaphore sem(s, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

Task wg_user(WaitGroup& wg) {
  wg.done();
  co_return;
}

TEST(WaitGroupEdge, ReusableAfterCompletion) {
  Scheduler s;
  WaitGroup wg(s);
  wg.add(1);
  s.spawn(wg_user(wg));
  s.run();
  EXPECT_EQ(wg.pending(), 0);
  wg.add(2);
  EXPECT_EQ(wg.pending(), 2);
  s.spawn(wg_user(wg));
  s.spawn(wg_user(wg));
  s.run();
  EXPECT_EQ(wg.pending(), 0);
}

Task disk_user(cluster::Host& h, std::size_t bytes, sim::Time& done_at) {
  co_await h.disk_io(bytes);
  done_at = h.sched().now();
}

TEST(HostEdge, DiskIoSerializesConcurrentAccess) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  cluster::Host& h = tb.host(0);
  sim::Time t1 = 0, t2 = 0;
  // Two concurrent 11 MB reads at 110 MB/s: 100 ms each, serialized.
  s.spawn(disk_user(h, 11'000'000, t1));
  s.spawn(disk_user(h, 11'000'000, t2));
  s.run();
  const double first = std::min(to_ms(t1), to_ms(t2));
  const double second = std::max(to_ms(t1), to_ms(t2));
  EXPECT_NEAR(first, 100.0, 2.0);
  EXPECT_NEAR(second, 200.0, 4.0);
}

Task core_user(cluster::Host& h, Dur d, int& running, int& peak) {
  co_await h.compute(0);  // zero-charge shortcut must not touch cores
  ++running;
  peak = std::max(peak, running);
  co_await h.compute(d);
  --running;
}

TEST(HostEdge, ComputeBoundedByCoreCount) {
  Scheduler s;
  net::TestbedConfig cfg = net::Testbed::cluster_b();
  cfg.cores_per_node = 2;
  net::Testbed tb(s, cfg);
  cluster::Host& h = tb.host(0);
  int running = 0, peak = 0;
  for (int i = 0; i < 6; ++i) s.spawn(core_user(h, micros(100), running, peak));
  s.run();
  // 6 jobs x 100us on 2 cores: 300us, never more than 2 in flight inside
  // compute (the counter brackets compute, so peak counts waiters too —
  // assert the makespan instead).
  EXPECT_EQ(s.now(), micros(300));
}

// Reference CPU charge: the acquire/delay/release coroutine that
// Host::compute replaced.
Co<void> reference_compute(Scheduler& s, Semaphore& cores, Dur d) {
  if (d > 0) {
    co_await cores.acquire();
    co_await delay(s, d);
    cores.release();
  }
  co_return;
}

struct ResumeRecord {
  int worker;
  int step;
  Time at;
  bool operator==(const ResumeRecord&) const = default;
};

// A seeded mix of charges (some zero; whole multiples of 10 us, so charges
// end together) and same-time yields; every resume is logged with its
// virtual time.
template <typename Charge>
Task charge_worker(Scheduler& s, Charge charge, int id, std::vector<ResumeRecord>& log) {
  Rng rng(1000 + id);
  for (int i = 0; i < 40; ++i) {
    const Dur d = micros(10 * rng.next_below(4));
    co_await charge(d);
    log.push_back({id, 2 * i, s.now()});
    if (rng.next_below(3) == 0) {
      co_await yield(s);
      log.push_back({id, 2 * i + 1, s.now()});
    }
  }
}

struct ChargeRun {
  std::vector<ResumeRecord> log;
  Time end = 0;
  std::uint64_t events = 0;
};

template <typename MakeCharge>
ChargeRun run_charges(MakeCharge make_charge) {
  Scheduler s;
  net::TestbedConfig cfg = net::Testbed::cluster_b();
  cfg.cores_per_node = 2;
  net::Testbed tb(s, cfg);
  Semaphore ref_cores(s, 2);
  ChargeRun r;
  auto charge = make_charge(s, tb.host(0), ref_cores);
  for (int id = 0; id < 6; ++id) s.spawn(charge_worker(s, charge, id, r.log));
  s.run();
  r.end = s.now();
  r.events = s.events_processed();
  return r;
}

TEST(HostEdge, ComputeMatchesAcquireDelayReleaseCoroutine) {
  const ChargeRun host = run_charges([](Scheduler&, cluster::Host& h, Semaphore&) {
    return [&h](Dur d) { return h.compute(d); };
  });
  const ChargeRun ref = run_charges([](Scheduler& s, cluster::Host&, Semaphore& cores) {
    return [&s, &cores](Dur d) { return reference_compute(s, cores, d); };
  });
  ASSERT_GT(host.log.size(), 240u);
  EXPECT_EQ(host.log, ref.log);
  EXPECT_EQ(host.end, ref.end);
  EXPECT_EQ(host.events, ref.events);
}

// --- Frame recycler (compiled out under ASan, where these skip) ---

Co<int> leaf(int x) { co_return x + 1; }

Co<int> nested(Scheduler& s, int x) {
  co_await delay(s, micros(1));
  const int a = co_await leaf(x);
  const int b = co_await leaf(a);
  co_return b;
}

Task burst(Scheduler& s, int calls, int& sum) {
  for (int i = 0; i < calls; ++i) sum += co_await nested(s, i);
}

TEST(FrameRecycler, SecondIdenticalBurstTakesNoFrameFromTheHeap) {
  if (!kFrameRecycling) GTEST_SKIP() << "frame recycling is compiled out under ASan";
  Scheduler s;
  int sum = 0;
  // Four tasks in flight at once, so several frames of each size are live.
  const auto run_burst = [&] {
    for (int t = 0; t < 4; ++t) s.spawn(burst(s, 8, sum));
    s.run();
  };
  run_burst();
  const FrameStats first = frame_stats();
  run_burst();
  EXPECT_EQ(frame_stats().fresh, first.fresh);
  EXPECT_EQ(frame_stats().cached, first.cached);
  EXPECT_EQ(sum, 2 * 4 * (8 * 2 + 28));  // each call returns i + 2
}

Co<int> big_frame(Scheduler& s, int seed) {
  std::array<unsigned char, 2 * kMaxRecycledFrame> scratch;
  scratch.fill(static_cast<unsigned char>(seed));
  co_await delay(s, micros(1));  // scratch lives across it, so in the frame
  co_return std::accumulate(scratch.begin(), scratch.end(), 0);
}

Task call_big(Scheduler& s, int& out) { out = co_await big_frame(s, 1); }

TEST(FrameRecycler, FrameOverTheLargestClassGoesToTheHeap) {
  if (!kFrameRecycling) GTEST_SKIP() << "frame recycling is compiled out under ASan";
  Scheduler s;
  int out = 0;
  const FrameStats before = frame_stats();
  s.spawn(call_big(s, out));
  s.run();
  EXPECT_EQ(out, static_cast<int>(2 * kMaxRecycledFrame));
  const FrameStats after = frame_stats();
  EXPECT_EQ(after.oversize, before.oversize + 1);
  // The oversize frame went back to the heap; only the task's frame is kept.
  EXPECT_LE(after.cached, before.cached + 1);
  s.spawn(call_big(s, out));
  s.run();
  EXPECT_EQ(frame_stats().oversize, before.oversize + 2);
}

Task suspend_forever() { co_await std::suspend_always{}; }

TEST(FrameRecycler, TaskDestroyedByDrainReturnsItsFrame) {
  if (!kFrameRecycling) GTEST_SKIP() << "frame recycling is compiled out under ASan";
  Scheduler s;
  s.spawn(suspend_forever());
  s.run();
  const FrameStats before = frame_stats();
  s.drain_tasks();
  EXPECT_EQ(frame_stats().cached, before.cached + 1);
}

}  // namespace
}  // namespace rpcoib::sim
