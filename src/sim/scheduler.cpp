#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rpcoib::sim {

Scheduler::~Scheduler() {
  // Queued closures may own objects whose destructors schedule or cancel:
  // refuse the former and empty the table before destroying them.
  terminated_ = true;
  std::vector<Slot> parked = std::exchange(slots_, {});
}

void Scheduler::push(Time t, void* frame, std::uint32_t slot) {
  if (t < now_) t = now_;
  heap_.push_back(Entry{t, seq_++, frame, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

TimerId Scheduler::call_at(Time t, Callback fn) {
  if (terminated_) return {kNoSlot, 0};  // post-drain scheduling is ignored (see drain_tasks)
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  push(t, nullptr, slot);
  return {slot, slots_[slot].gen};
}

void Scheduler::resume_at(Time t, std::coroutine_handle<> h) {
  if (terminated_) return;
  push(t, h.address(), kNoSlot);
}

void Scheduler::cancel(TimerId id) {
  if (id.slot >= slots_.size() || slots_[id.slot].gen != id.gen || !slots_[id.slot].fn) return;
  slots_[id.slot].fn.reset();
  ++dead_;
  if (dead_ > heap_.size() - dead_) compact();  // dead entries outnumber live ones
}

void Scheduler::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::skip_cancelled() {
  while (!heap_.empty() && cancelled(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    free_slot(heap_.back().slot);
    heap_.pop_back();
    --dead_;
  }
  return !heap_.empty();
}

void Scheduler::compact() {
  std::erase_if(heap_, [this](const Entry& e) {
    if (!cancelled(e)) return false;
    free_slot(e.slot);
    return true;
  });
  dead_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

bool Scheduler::step() {
  if (!skip_cancelled()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry ev = heap_.back();
  heap_.pop_back();
  now_ = ev.at;
  ++processed_;
  if (ev.frame != nullptr) {
    std::coroutine_handle<>::from_address(ev.frame).resume();
  } else {
    // Move the closure out first: it may schedule more callbacks, which
    // can grow slots_ or reuse this slot.
    Callback fn = std::move(slots_[ev.slot].fn);
    free_slot(ev.slot);
    fn();
  }
  if (failure_) {
    std::exception_ptr ex = std::exchange(failure_, nullptr);
    std::rethrow_exception(ex);
  }
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

bool Scheduler::run_until(Time deadline) {
  while (skip_cancelled() && heap_.front().at < deadline) {
    step();
  }
  return !idle();
}

void Scheduler::report_failure(std::exception_ptr ex) {
  if (!failure_) failure_ = std::move(ex);
}

void Scheduler::drain_tasks() {
  terminated_ = true;
  // Destroying a frame may spawn tasks (appended, so destroyed in turn) or
  // finish others (unlinked), so always take the current first one.
  while (tasks_.next != &tasks_) {
    TaskLink& t = *tasks_.next;
    unregister_task(t);
    t.frame.destroy();
  }
  heap_.clear();
  dead_ = 0;
  free_head_ = kNoSlot;
  // As in the destructor: empty the table before destroying its closures.
  std::vector<Slot> parked = std::exchange(slots_, {});
}

}  // namespace rpcoib::sim
