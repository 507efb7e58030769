// Reference kernel: fixed work that is not simulator code, run in short
// slices inside each measured phase (measure_until in bench.hpp). The
// workload's host time is then stated in units of what the same core did
// over the same seconds. On a shared VM a core's speed drifts by 20-30%
// with other tenants' load; the workload and the reference drift
// together, their ratio much less.
//
// The work is the core of a discrete-event scheduler: pop the earliest of
// 262,144 timestamped events (4 MiB) from a binary min-heap and re-arm it
// at a pseudo-random later time. Of the kernels tried (random copies over
// a 12 MiB arena, pointer chases over 512 KiB-64 MiB, integer hashing,
// virtual calls, 1,024 distinct small functions, heaps of 8 Ki-1 Mi
// events), event heaps tracked the workloads' speed most closely from one
// repetition to the next, and this size balanced rpc_small (which slows
// less than it under load) against hbase_mixed (which slows more).
#include <algorithm>
#include <functional>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kEvents = 262144;

// xorshift64: the same sequence in every process.
std::uint64_t next(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

Reference::Reference() {
  heap_.reserve(kEvents);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    heap_.push_back(Ev{next(rng_) % 4096, i});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
}

double Reference::run(std::size_t steps) {
  const double t0 = host_now_s();
  for (std::size_t i = 0; i < steps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Ev& e = heap_.back();
    sum_ += e.id;
    e.at += 1 + next(rng_) % 4096;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  const double dt = host_now_s() - t0;
  // Use the result, so the loop cannot be optimised away.
  if (sum_ == 1) throw std::logic_error("reference kernel: impossible checksum");
  return dt;
}

Reference& reference() {
  static Reference r;
  return r;
}

}  // namespace perfbench
