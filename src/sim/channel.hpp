// FIFO mailbox connecting simulated processes.
//
// The building block for every queue in the reproduced stack: the RPC
// server's call queue, the Responder's response queue, socket receive
// buffers, verbs completion queues, heartbeat inboxes. Unbounded by
// default (Hadoop's queues are large and the paper never hits the caps);
// `BoundedChannel` adds back-pressure where a bound matters.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/scheduler.hpp"

namespace rpcoib::sim {

/// Thrown by recv() when the channel is closed and drained.
class ChannelClosed : public std::runtime_error {
 public:
  ChannelClosed() : std::runtime_error("channel closed") {}
};

template <typename T>
class Channel {
 public:
  explicit Channel(Scheduler& sched) : sched_(sched) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueue an item; wakes one waiting receiver, FIFO.
  void push(T item) {
    items_.push_back(std::move(item));
    wake_one();
  }

  /// Close the channel. Pending items may still be received; further
  /// recv() on an empty channel throws ChannelClosed.
  void close() {
    closed_ = true;
    while (!waiters_.empty()) {
      std::coroutine_handle<> w = waiters_.front();
      waiters_.pop_front();
      ++reserved_;
      sched_.post(w);
    }
  }

  bool closed() const { return closed_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  struct RecvAwaiter {
    Channel& ch;
    bool await_ready() const noexcept {
      return ch.items_.size() > ch.reserved_ || (ch.closed_ && ch.waiters_.empty());
    }
    void await_suspend(std::coroutine_handle<> h) { ch.waiters_.push_back(h); }
    T await_resume() {
      if (ch.reserved_ > 0) --ch.reserved_;
      if (ch.items_.empty()) throw ChannelClosed();
      T v = std::move(ch.items_.front());
      ch.items_.pop_front();
      return v;
    }
  };

  /// Receive the next item, blocking in virtual time. Throws ChannelClosed
  /// if the channel closes while (or before) waiting with nothing queued.
  RecvAwaiter recv() { return RecvAwaiter{*this}; }

  /// Non-blocking receive.
  bool try_recv(T& out) {
    if (items_.size() <= reserved_) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  void wake_one() {
    if (!waiters_.empty()) {
      std::coroutine_handle<> w = waiters_.front();
      waiters_.pop_front();
      ++reserved_;  // the new item is spoken for
      sched_.post(w);
    }
  }

  Scheduler& sched_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::size_t reserved_ = 0;  // items claimed by scheduled-but-unresumed waiters
  bool closed_ = false;
};

}  // namespace rpcoib::sim
