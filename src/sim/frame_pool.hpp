// Recycled coroutine frames.
//
// Every Co<T> call and every Task takes a frame from the allocator, and the
// frame sizes repeat: one per coroutine function. The promises of both
// therefore allocate here instead: frames up to kMaxRecycledFrame bytes are
// rounded up to a 64 B size class and reused LIFO from a thread-local free
// list per class; larger frames go to ::operator new. The free lists are
// returned to the heap when the thread exits.
//
// Under AddressSanitizer the recycler is compiled out (kFrameRecycling is
// false), so every frame comes from the heap again and a use of a destroyed
// frame is still reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define RPCOIB_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RPCOIB_SIM_ASAN 1
#endif
#endif

namespace rpcoib::sim {

#ifdef RPCOIB_SIM_ASAN
inline constexpr bool kFrameRecycling = false;
#else
inline constexpr bool kFrameRecycling = true;
#endif

inline constexpr std::size_t kFrameClass = 64;
inline constexpr std::size_t kMaxRecycledFrame = 4096;

/// The calling thread's recycler counters.
struct FrameStats {
  std::uint64_t fresh = 0;     // recyclable frames taken from ::operator new
  std::uint64_t oversize = 0;  // frames above kMaxRecycledFrame
  std::size_t cached = 0;      // blocks on the free lists now
};
FrameStats frame_stats();

namespace detail {

struct FreeFrame {
  FreeFrame* next;
};

struct FramePool {
  enum State : std::uint8_t { kUnarmed, kArmed, kReaped };
  FreeFrame* heads[kMaxRecycledFrame / kFrameClass] = {};
  std::uint64_t fresh = 0;
  std::uint64_t oversize = 0;
  State state = kUnarmed;  // kArmed once the thread-exit reaper is registered
};
inline constinit thread_local FramePool t_frames;

// Slow paths (frame_pool.cpp): a fresh or oversize frame, and the first
// free on a thread whose reaper is not armed yet, or has already run.
void* frame_alloc_slow(std::size_t n);
void frame_free_slow(void* p, std::size_t n) noexcept;

inline std::size_t frame_class(std::size_t n) { return (n - 1) / kFrameClass; }

inline void* frame_alloc(std::size_t n) {
  FramePool& fp = t_frames;
  if (n <= kMaxRecycledFrame) {
    FreeFrame*& head = fp.heads[frame_class(n)];
    if (FreeFrame* f = head) {
      head = f->next;
      return f;
    }
  }
  return frame_alloc_slow(n);
}

inline void frame_free(void* p, std::size_t n) noexcept {
  FramePool& fp = t_frames;
  if (n > kMaxRecycledFrame || fp.state != FramePool::kArmed) {
    frame_free_slow(p, n);
    return;
  }
  FreeFrame*& head = fp.heads[frame_class(n)];
  head = ::new (p) FreeFrame{head};
}

/// Base of the Task and Co promise types: their frames come from the
/// recycler (the compiler passes the frame size to both operators).
struct RecycledFrame {
#ifndef RPCOIB_SIM_ASAN
  static void* operator new(std::size_t n) { return frame_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept { frame_free(p, n); }
#endif
};

}  // namespace detail
}  // namespace rpcoib::sim
