// Synchronization primitives for simulated processes.
//
// These mirror the java.util.concurrent pieces the Hadoop RPC threads use:
// counting semaphores (handler slots), mutexes (connection tables), one-shot
// events (connection setup latches), and wait-groups (job barriers).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rpcoib::sim {

/// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Scheduler& sched, std::int64_t initial) : sched_(sched), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct AcquireAwaiter {
    Semaphore& sem;
    bool await_ready() const noexcept { return sem.count_ > 0; }
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back({h, 0}); }
    void await_resume() const noexcept { --sem.count_; }
  };

  AcquireAwaiter acquire() { return AcquireAwaiter{*this}; }

  /// Hold one unit for `d` of virtual time, then release it: acquire,
  /// delay, release without a coroutine frame. Queues FIFO with acquire()
  /// waiters; `d` == 0 returns at once without touching the count.
  struct HoldAwaiter {
    Semaphore& sem;
    Dur d;
    bool await_ready() const noexcept { return d == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      if (sem.count_ <= 0) {
        sem.waiters_.push_back({h, d});
        return;
      }
      --sem.count_;
      sem.release_after(d, h);
    }
    void await_resume() const noexcept {}
  };

  HoldAwaiter hold(Dur d) { return HoldAwaiter{*this, d}; }

  bool try_acquire() {
    if (count_ <= 0) return false;
    --count_;
    return true;
  }

  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      // The waiter decrements on resume; reserve its slot now so another
      // same-tick acquire cannot starve it.
      --count_;
      if (w.hold != 0) {
        // A holder keeps the reserved unit and starts its hold when woken.
        sched_.call_at(sched_.now(), [this, w] { release_after(w.hold, w.h); });
      } else {
        sched_.call_at(sched_.now(), [this, h = w.h] {
          ++count_;  // hand the reserved slot back just before the waiter takes it
          h.resume();
        });
      }
    }
  }

  std::int64_t available() const { return count_; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    Dur hold;  // nonzero: a hold() waiter; 0: an acquire() waiter
  };

  /// End a hold: after `d`, release the unit, then resume the holder.
  void release_after(Dur d, std::coroutine_handle<> h) {
    sched_.call_after(d, [this, h] {
      release();
      h.resume();
    });
  }

  Scheduler& sched_;
  std::int64_t count_;
  std::deque<Waiter> waiters_;
};

/// Mutual exclusion for simulated threads. Non-recursive.
class SimMutex {
 public:
  explicit SimMutex(Scheduler& sched) : sem_(sched, 1) {}

  auto lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }
  bool try_lock() { return sem_.try_acquire(); }

 private:
  Semaphore sem_;
};

/// RAII lock guard usable after `co_await mutex.lock()`.
class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& m) : m_(&m) {}
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;
  SimLockGuard(SimLockGuard&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
  ~SimLockGuard() {
    if (m_) m_->unlock();
  }

 private:
  SimMutex* m_;
};

/// Coroutines waiting with a deadline, in arrival order. wake_all() posts
/// every waiter and cancels its timer; a timer that fires first takes its
/// waiter off the list and resumes it, so no waiter is resumed twice and
/// no timer outlives its wait.
class TimedWaiters {
 public:
  explicit TimedWaiters(Scheduler& sched) : sched_(sched) {}
  TimedWaiters(const TimedWaiters&) = delete;
  TimedWaiters& operator=(const TimedWaiters&) = delete;

  void add(std::coroutine_handle<> h, Dur timeout) {
    const TimerId timer = sched_.call_after(timeout, [this, h] {
      std::erase_if(list_, [h](const Waiter& w) { return w.h == h; });
      h.resume();
    });
    list_.push_back({h, timer});
  }

  void wake_all() {
    for (const Waiter& w : list_) {
      sched_.cancel(w.timer);
      sched_.post(w.h);
    }
    list_.clear();  // keeps capacity: later waits do not allocate
  }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    TimerId timer;
  };
  Scheduler& sched_;
  std::vector<Waiter> list_;
};

/// One-shot event: processes wait until someone calls set().
class SimEvent {
 public:
  explicit SimEvent(Scheduler& sched) : sched_(sched), timed_waiters_(sched) {}
  SimEvent(const SimEvent&) = delete;
  SimEvent& operator=(const SimEvent&) = delete;

  struct WaitAwaiter {
    SimEvent& ev;
    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{*this}; }

  /// Wait with a deadline: resumes with `true` as soon as the event is
  /// set, or with `false` once `timeout` elapses first. set() cancels the
  /// timer of every waiter it wakes.
  struct TimedWaitAwaiter {
    SimEvent& ev;
    Dur timeout;

    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) { ev.timed_waiters_.add(h, timeout); }
    bool await_resume() const noexcept { return ev.set_; }
  };

  TimedWaitAwaiter wait_for(Dur timeout) { return TimedWaitAwaiter{*this, timeout}; }

  /// wait_for(timeout) when `timeout` > 0, else an unbounded wait(): for
  /// callers whose timeout is optional. Resumes with `true` once set.
  struct BoundedWaitAwaiter {
    SimEvent& ev;
    Dur timeout;

    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (timeout <= 0) return ev.wait().await_suspend(h);
      ev.wait_for(timeout).await_suspend(h);
    }
    bool await_resume() const noexcept { return ev.set_; }
  };

  BoundedWaitAwaiter wait_up_to(Dur timeout) { return {*this, timeout}; }

  void set() {
    if (set_) return;
    set_ = true;
    for (std::coroutine_handle<> w : waiters_) sched_.post(w);
    waiters_.clear();
    timed_waiters_.wake_all();
  }

  bool is_set() const { return set_; }

 private:
  Scheduler& sched_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
  TimedWaiters timed_waiters_;
};

/// Barrier counting completions, e.g. "all reduce tasks finished".
class WaitGroup {
 public:
  explicit WaitGroup(Scheduler& sched) : sched_(sched) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::int64_t n = 1) { count_ += n; }

  void done() {
    if (--count_ <= 0) {
      for (std::coroutine_handle<> w : waiters_) sched_.post(w);
      waiters_.clear();
    }
  }

  struct WaitAwaiter {
    WaitGroup& wg;
    bool await_ready() const noexcept { return wg.count_ <= 0; }
    void await_suspend(std::coroutine_handle<> h) { wg.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{*this}; }

  std::int64_t pending() const { return count_; }

 private:
  Scheduler& sched_;
  std::int64_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace rpcoib::sim
