#include "sim/frame_pool.hpp"

#include <iterator>

namespace rpcoib::sim {
namespace detail {
namespace {

std::size_t class_bytes(std::size_t cls) { return (cls + 1) * kFrameClass; }

// Returns the thread's cached frames to the heap at thread exit; frames
// freed after that go straight to the heap.
struct Reaper {
  bool armed = false;
  ~Reaper() {
    FramePool& fp = t_frames;
    for (std::size_t c = 0; c < std::size(fp.heads); ++c) {
      while (FreeFrame* f = fp.heads[c]) {
        fp.heads[c] = f->next;
        ::operator delete(f, class_bytes(c));
      }
    }
    fp.state = FramePool::kReaped;
  }
};
thread_local Reaper t_reaper;

}  // namespace

void* frame_alloc_slow(std::size_t n) {
  FramePool& fp = t_frames;
  if (n > kMaxRecycledFrame) {
    ++fp.oversize;
    return ::operator new(n);
  }
  ++fp.fresh;
  return ::operator new(class_bytes(frame_class(n)));
}

void frame_free_slow(void* p, std::size_t n) noexcept {
  FramePool& fp = t_frames;
  if (n > kMaxRecycledFrame) {
    ::operator delete(p, n);
    return;
  }
  const std::size_t cls = frame_class(n);
  if (fp.state == FramePool::kReaped) {
    ::operator delete(p, class_bytes(cls));
    return;
  }
  t_reaper.armed = true;  // first use on this thread registers its destructor
  fp.state = FramePool::kArmed;
  fp.heads[cls] = ::new (p) FreeFrame{fp.heads[cls]};
}

}  // namespace detail

FrameStats frame_stats() {
  const detail::FramePool& fp = detail::t_frames;
  FrameStats s{fp.fresh, fp.oversize, 0};
  for (const detail::FreeFrame* head : fp.heads) {
    for (const detail::FreeFrame* f = head; f != nullptr; f = f->next) ++s.cached;
  }
  return s;
}

}  // namespace rpcoib::sim
