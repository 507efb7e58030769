// Coroutine types for simulated processes.
//
// Two layers, mirroring how the Java threads in Hadoop decompose:
//
//  * `Task`  — a top-level detached process (a simulated thread). Created by
//    calling a coroutine returning `Task` and handing it to
//    `Scheduler::spawn`. The frame self-destroys at completion; completion
//    and failure are observable through the `JoinHandle`.
//  * `Co<T>` — a nested awaitable computation (an ordinary function call
//    that may block in virtual time). Lazily started when awaited, resumes
//    its awaiter by symmetric transfer, RAII-owned by the awaiting frame.
//
// CODEBASE RULE (GCC 12 workaround): never pass a temporary with a
// non-trivial destructor as an argument inside a statement containing
// co_await — GCC 12.2 double-destroys such temporaries when the awaited
// coroutine suspends (observed as a double-free under ASan). Hoist them to
// named locals first:
//     net::Bytes wire = out.take_pending();
//     co_await sock->write(wire);                 // OK
//     co_await sock->write(out.take_pending());   // WRONG: double-free
// Trivially destructible temporaries (spans, ints, net::Address) are safe.
//
// Second GCC 12 landmine: never use a co_await expression directly inside a
// branch condition — GCC 12.2 lays out the coroutine frame inconsistently
// between the ramp and the actor (off by 8 bytes; resumes read garbage
// resume indices and hit ud2). Hoist the result to a named local:
//     const bool ok = co_await gate.take(d);
//     if (!ok) break;                             // OK
//     if (!co_await gate.take(d)) break;          // WRONG: frame miscompile
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/frame_pool.hpp"
#include "sim/scheduler.hpp"

namespace rpcoib::sim {

namespace detail {

/// Shared between a running Task's promise and any JoinHandles.
struct TaskState {
  Scheduler* sched = nullptr;
  bool done = false;
  std::exception_ptr ex;
  bool ex_observed = false;
  std::vector<std::coroutine_handle<>> waiters;
};

}  // namespace detail

/// Handle for joining a spawned Task. Copyable; all copies observe the same
/// completion. `co_await handle` suspends until the task finishes and
/// rethrows its uncaught exception, if any.
class JoinHandle {
 public:
  JoinHandle() = default;
  explicit JoinHandle(std::shared_ptr<detail::TaskState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  bool done() const { return st_ && st_->done; }
  bool failed() const { return st_ && st_->ex != nullptr; }

  struct Awaiter {
    std::shared_ptr<detail::TaskState> st;
    bool await_ready() const noexcept { return st->done; }
    void await_suspend(std::coroutine_handle<> h) const { st->waiters.push_back(h); }
    void await_resume() const {
      if (st->ex) {
        st->ex_observed = true;
        std::rethrow_exception(st->ex);
      }
    }
  };
  Awaiter operator co_await() const { return Awaiter{st_}; }

 private:
  std::shared_ptr<detail::TaskState> st_;
};

/// Top-level simulated process. Move-only; ownership passes to the
/// Scheduler on spawn.
class Task {
 public:
  struct promise_type : detail::RecycledFrame {
    std::shared_ptr<detail::TaskState> st = std::make_shared<detail::TaskState>();
    TaskLink link;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        // Grab the shared state before the frame dies.
        std::shared_ptr<detail::TaskState> st = h.promise().st;
        st->sched->unregister_task(h.promise().link);
        h.destroy();
        st->done = true;
        for (std::coroutine_handle<> w : st->waiters) st->sched->post(w);
        st->waiters.clear();
        if (st->ex && st.use_count() == 1) {
          // Nobody holds a JoinHandle: surface the failure loudly.
          st->sched->report_failure(st->ex);
        }
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { st->ex = std::current_exception(); }
  };

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();  // spawned tasks have released the handle
  }

 private:
  friend class Scheduler;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  std::coroutine_handle<promise_type> release(Scheduler& sched) {
    h_.promise().st->sched = &sched;
    h_.promise().link.frame = h_;
    sched.register_task(h_.promise().link);
    return std::exchange(h_, nullptr);
  }

  std::coroutine_handle<promise_type> h_;
};

inline JoinHandle Scheduler::spawn(Task task) {
  std::coroutine_handle<Task::promise_type> h = task.release(*this);
  JoinHandle jh(h.promise().st);
  post(h);
  return jh;
}

inline JoinHandle Scheduler::spawn_after(Dur d, Task task) {
  std::coroutine_handle<Task::promise_type> h = task.release(*this);
  JoinHandle jh(h.promise().st);
  resume_after(d, h);
  return jh;
}

namespace detail {

template <typename T>
struct CoPromiseBase : RecycledFrame {
  std::coroutine_handle<> cont;
  std::exception_ptr ex;
  std::optional<T> value;

  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  void unhandled_exception() { ex = std::current_exception(); }
  T take() {
    if (ex) std::rethrow_exception(ex);
    return std::move(*value);
  }
};

template <>
struct CoPromiseBase<void> : RecycledFrame {
  std::coroutine_handle<> cont;
  std::exception_ptr ex;

  void return_void() {}
  void unhandled_exception() { ex = std::current_exception(); }
  void take() {
    if (ex) std::rethrow_exception(ex);
  }
};

}  // namespace detail

/// Nested awaitable computation returning T. Must be co_awaited exactly once
/// (it is lazy: the body does not run until awaited).
template <typename T = void>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase<T> {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        std::coroutine_handle<> c = h.promise().cont;
        return c ? c : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
  };

  Co(Co&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Co& operator=(Co&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().cont = cont;
    return h_;  // start the lazy coroutine now
  }
  T await_resume() { return h_.promise().take(); }

 private:
  explicit Co(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

}  // namespace rpcoib::sim
