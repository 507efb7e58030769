// Coroutine types for simulated processes.
//
// Two layers, mirroring how the Java threads in Hadoop decompose:
//
//  * `Task`  — a top-level detached process (a simulated thread). Created by
//    calling a coroutine returning `Task` and handing it to
//    `Scheduler::spawn`. Fire-and-forget: nothing joins it; the frame
//    self-destroys at completion, and an uncaught exception aborts
//    `Scheduler::run`.
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
#include <optional>
#include <utility>

#include "sim/frame_pool.hpp"
#include "sim/scheduler.hpp"

namespace rpcoib::sim {

/// Top-level simulated process. Move-only; ownership passes to the
/// Scheduler on spawn.
class Task {
 public:
  struct promise_type : detail::RecycledFrame {
    Scheduler* sched = nullptr;
    TaskLink link;
    std::exception_ptr ex;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        // Take what outlives the frame before it dies.
        Scheduler* sched = h.promise().sched;
        std::exception_ptr ex = std::move(h.promise().ex);
        sched->unregister_task(h.promise().link);
        h.destroy();
        if (ex) sched->report_failure(std::move(ex));
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { ex = std::current_exception(); }
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
    h_.promise().sched = &sched;
    h_.promise().link.frame = h_;
    sched.register_task(h_.promise().link);
    return std::exchange(h_, nullptr);
  }

  std::coroutine_handle<promise_type> h_;
};

inline void Scheduler::spawn(Task task) { post(task.release(*this)); }

inline void Scheduler::spawn_after(Dur d, Task task) { resume_after(d, task.release(*this)); }

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
