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
#include <memory>
#include <optional>
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
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
    void await_resume() const noexcept { --sem.count_; }
  };

  AcquireAwaiter acquire() { return AcquireAwaiter{*this}; }

  bool try_acquire() {
    if (count_ <= 0) return false;
    --count_;
    return true;
  }

  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      std::coroutine_handle<> w = waiters_.front();
      waiters_.pop_front();
      // The waiter decrements on resume; reserve its slot now so another
      // same-tick acquire cannot starve it.
      --count_;
      sched_.call_at(sched_.now(), [this, w] {
        ++count_;  // hand the reserved slot back just before the waiter takes it
        w.resume();
      });
    }
  }

  std::int64_t available() const { return count_; }

 private:
  Scheduler& sched_;
  std::int64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
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

/// One-shot event: processes wait until someone calls set().
class SimEvent {
 public:
  explicit SimEvent(Scheduler& sched) : sched_(sched) {}
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
  /// set, or with `false` once `timeout` elapses first. The per-waiter
  /// `woken` flag makes set() and the timer callback mutually exclusive,
  /// so a coroutine is never resumed twice.
  struct TimedWaitAwaiter {
    SimEvent& ev;
    Dur timeout;
    std::shared_ptr<bool> woken = std::make_shared<bool>(false);

    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      ev.timed_waiters_.emplace_back(h, woken);
      ev.sched_.call_after(timeout, [h, flag = woken] {
        if (*flag) return;  // set() beat the timer
        *flag = true;
        h.resume();
      });
    }
    bool await_resume() const noexcept { return ev.set_; }
  };

  TimedWaitAwaiter wait_for(Dur timeout) { return TimedWaitAwaiter{*this, timeout}; }

  /// wait_for(timeout) when `timeout` > 0, else an unbounded wait(): for
  /// callers whose timeout is optional. Resumes with `true` once set.
  struct BoundedWaitAwaiter {
    SimEvent& ev;
    Dur timeout;
    std::optional<TimedWaitAwaiter> timed;

    bool await_ready() const noexcept { return ev.set_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (timeout <= 0) return ev.wait().await_suspend(h);
      timed.emplace(ev.wait_for(timeout));
      timed->await_suspend(h);
    }
    bool await_resume() const noexcept { return ev.set_; }
  };

  BoundedWaitAwaiter wait_up_to(Dur timeout) { return {*this, timeout, std::nullopt}; }

  void set() {
    if (set_) return;
    set_ = true;
    for (std::coroutine_handle<> w : waiters_) sched_.post(w);
    waiters_.clear();
    for (auto& [w, flag] : timed_waiters_) {
      if (*flag) continue;  // already resumed by its timer
      *flag = true;
      sched_.post(w);
    }
    timed_waiters_.clear();
  }

  bool is_set() const { return set_; }

 private:
  Scheduler& sched_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::pair<std::coroutine_handle<>, std::shared_ptr<bool>>> timed_waiters_;
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
