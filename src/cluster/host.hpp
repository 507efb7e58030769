// A simulated compute node.
//
// Matches the paper's testbed nodes: dual quad-core Xeon (8 cores), one HCA
// per network. Simulated Java threads occupy cores through `compute()`;
// anything CPU-bound therefore queues when all cores are busy, which is
// what produces handler saturation in the Fig. 5(b) throughput curves.
#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "cluster/cost_model.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace rpcoib::trace {
class TraceCollector;
}  // namespace rpcoib::trace

namespace rpcoib::cluster {

/// Index of a host within its cluster.
using HostId = int;

class Host {
 public:
  Host(sim::Scheduler& sched, HostId id, std::string name, int cores, CostModel cost,
       sim::Rng rng)
      : sched_(sched),
        id_(id),
        name_(std::move(name)),
        cost_(cost),
        rng_(rng),
        cores_(sched, cores) {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Scheduler& sched() const { return sched_; }
  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  const CostModel& cost() const { return cost_; }
  sim::Rng& rng() { return rng_; }

  /// Tracing sink for everything running on this host (null = untraced).
  trace::TraceCollector* tracer() const { return tracer_; }
  void set_tracer(trace::TraceCollector* t) { tracer_ = t; }

  /// Occupy one CPU core for `d` of virtual time (queueing if all cores
  /// are busy). Zero-duration charges return immediately without touching
  /// the core semaphore. An awaiter, not a coroutine: a charge allocates
  /// no frame.
  sim::Semaphore::HoldAwaiter compute(sim::Dur d) { return cores_.hold(d); }

  /// Simulated disk: sequential bandwidth of the testbed's single HDD.
  sim::Dur disk_time(std::size_t bytes) const {
    return sim::from_us(static_cast<double>(bytes) / disk_bw_gbps_ / 1000.0);
  }

  /// Serialized disk access: reads and writes share the single spindle,
  /// so concurrent tasks' I/O queues (the dominant contention in the
  /// paper's Sort runs with 12 task slots per node and one HDD).
  sim::Co<void> disk_io(std::size_t bytes) {
    const sim::Time start = std::max(sched_.now(), disk_free_);
    const sim::Time done = start + disk_time(bytes);
    disk_free_ = done;
    co_await sim::delay(sched_, done - sched_.now());
  }

 private:
  sim::Scheduler& sched_;
  HostId id_;
  std::string name_;
  CostModel cost_;
  sim::Rng rng_;
  sim::Semaphore cores_;
  trace::TraceCollector* tracer_ = nullptr;
  double disk_bw_gbps_ = 0.11;  // ~110 MB/s HDD, per the testbed's single disk
  sim::Time disk_free_ = 0;
};

}  // namespace rpcoib::cluster
