// Discrete-event scheduler: the single source of virtual time.
//
// Every simulated Hadoop thread (caller, Connection, Listener, Reader,
// Handler, Responder, heartbeat loop, ...) is a coroutine whose suspension
// points are registered here. Events at equal timestamps run in FIFO order
// of insertion, which makes whole-cluster runs bit-for-bit deterministic.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rpcoib::sim {

class Task;

/// Move-only `void()` callable for scheduled callbacks. Closures up to
/// kInline bytes live inside the object (no allocation); larger ones go to
/// the heap. Unlike std::function it never copies what it holds.
class Callback {
 public:
  static constexpr std::size_t kInline = 48;

  Callback() = default;
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Callback> && std::is_invocable_v<std::decay_t<F>&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }
  Callback(Callback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  /// Destroy the held closure (if any), leaving the Callback empty.
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct, destroy source
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInline && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }
  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }};
  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*static_cast<Fn**>(src)); },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); }};

  // Pointer-aligned, so a parked slot (Callback + two ids) is 64 B.
  alignas(void*) unsigned char buf_[kInline];
  const Ops* ops_ = nullptr;
};

/// A live top-level task's place in its scheduler's spawn-order list. It
/// is embedded in the Task promise, so registering a task allocates
/// nothing.
struct TaskLink {
  TaskLink* prev = nullptr;
  TaskLink* next = nullptr;
  std::coroutine_handle<> frame;
};

/// Names one call_at() callback so it can be cancelled before it runs.
/// Stale ids (the callback already ran or was cancelled) cancel nothing.
struct TimerId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule a (non-empty) callback at absolute virtual time `t`
  /// (clamped to `now()` if in the past). The returned id cancels it.
  TimerId call_at(Time t, Callback fn);

  /// Schedule a callback after `d` has elapsed.
  TimerId call_after(Dur d, Callback fn) { return call_at(now_ + d, std::move(fn)); }

  /// Withdraw a callback that has not run yet: it never runs, is not
  /// counted in events_processed() and does not advance now(). No-op for
  /// a callback that already ran or was cancelled.
  void cancel(TimerId id);

  /// Resume a suspended coroutine at absolute time `t`.
  void resume_at(Time t, std::coroutine_handle<> h);

  /// Resume a suspended coroutine after `d`.
  void resume_after(Dur d, std::coroutine_handle<> h) { resume_at(now_ + d, h); }

  /// Resume a suspended coroutine at the current time (after already-queued
  /// same-time events).
  void post(std::coroutine_handle<> h) { resume_at(now_, h); }

  /// Launch a top-level simulated process. The coroutine starts at the
  /// current virtual time; its frame is destroyed automatically when it
  /// finishes. Nothing joins it: an uncaught exception aborts run().
  void spawn(Task task);

  /// Launch a process at a future time.
  void spawn_after(Dur d, Task task);

  /// Run until no events remain. Rethrows the first exception that escaped
  /// any spawned process.
  void run();

  /// Run until virtual time reaches `deadline` (exclusive) or the queue
  /// drains. Returns true if events remain.
  bool run_until(Time deadline);

  /// Process a single event. Returns false if the queue was empty.
  bool step();

  std::uint64_t events_processed() const { return processed_; }
  /// True when no live event is queued (cancelled timers do not count).
  bool idle() const { return heap_.size() == dead_; }
  /// Heap entries held, cancelled ones not yet swept included (a cancel
  /// that leaves them outnumbering the live ones sweeps them all).
  std::size_t queued() const { return heap_.size(); }

  /// Called by the Task machinery when a detached process dies with an
  /// uncaught exception. The first failure aborts `run()`.
  void report_failure(std::exception_ptr ex);

  /// Terminal teardown: destroy the frames of all still-suspended
  /// top-level tasks (e.g. server loops blocked on an accept channel) in
  /// spawn order, tasks spawned by those destructors included, drop
  /// queued events, and put the scheduler in a terminated state in
  /// which further scheduling is ignored — destructors running afterwards
  /// may still try to wake waiters whose frames are now gone. Call only
  /// when the simulation is finished, while the objects those tasks
  /// reference are still alive; use a fresh Scheduler per experiment.
  void drain_tasks();

  bool terminated() const { return terminated_; }

  // Task-frame registry (managed by Task/spawn machinery).
  void register_task(TaskLink& t) {
    t.prev = tasks_.prev;
    t.next = &tasks_;
    tasks_.prev->next = &t;
    tasks_.prev = &t;
    ++live_tasks_;
  }
  void unregister_task(TaskLink& t) {
    t.prev->next = t.next;
    t.next->prev = t.prev;
    --live_tasks_;
  }
  std::size_t live_task_count() const { return live_tasks_; }

 private:
  // A heap entry is plain data: the coroutine to resume, or (frame null)
  // the slot parking a call_at() closure. Ties at equal `at` go to the
  // lower `seq`, i.e. FIFO in order of scheduling.
  struct Entry {
    Time at;
    std::uint64_t seq;
    void* frame;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) <= 32);
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  // A closure parked for its heap entry. A cancelled slot holds an empty
  // `fn` and returns to the free list only once its entry leaves the heap;
  // `gen` advances at each reuse so stale TimerIds miss.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = 0;
  };
  static_assert(sizeof(Slot) == 64);
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  void push(Time t, void* frame, std::uint32_t slot);
  void free_slot(std::uint32_t slot);
  bool cancelled(const Entry& e) const { return e.frame == nullptr && !slots_[e.slot].fn; }
  /// Pop cancelled entries off the top; true if a live event remains.
  bool skip_cancelled();
  /// Sweep every cancelled entry out of the heap and re-heapify.
  void compact();

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Entry> heap_;
  std::size_t dead_ = 0;  // cancelled entries still in heap_
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::exception_ptr failure_;
  TaskLink tasks_{&tasks_, &tasks_, {}};  // sentinel of the live tasks, in spawn order
  std::size_t live_tasks_ = 0;
  bool terminated_ = false;
};

/// Awaitable that suspends the current coroutine for `d` of virtual time.
/// Usage: `co_await delay(sched, micros(10));`
struct DelayAwaiter {
  Scheduler& sched;
  Dur d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { sched.resume_after(d, h); }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Scheduler& sched, Dur d) { return {sched, d}; }

/// Yield to other same-time events, then continue.
inline DelayAwaiter yield(Scheduler& sched) { return {sched, 0}; }

}  // namespace rpcoib::sim
