// Shared types of the repository benchmark.
//
// Each workload drives the simulator through its public APIs. One call to
// Workload::run() is one repetition: it builds a fresh testbed, warms it,
// runs the measured phase, checks every result and tears down. Virtual
// (simulated) time comes from the scheduler clock; host time from
// std::chrono::steady_clock around the benchmark's own calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rpc/writable.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using rpcoib::sim::Dur;
using rpcoib::sim::Time;

inline double host_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency slot of an op that failed.
inline constexpr Dur kFailed = ~Dur{0};

/// Run the scheduler until `pending` reaches zero. Throws if the event
/// queue drains first, i.e. a simulated process never finished.
template <typename Count>
void step_until(rpcoib::sim::Scheduler& s, const Count& pending, const std::string& what) {
  while (pending > 0 && s.step()) {
  }
  if (pending > 0) throw std::runtime_error(what);
}

/// Opens the benchmark-owned root span of one op and arms it as the
/// ambient parent of the call the caller co_awaits next, with no
/// suspension in between. Returns 0 when the run is untraced.
inline rpcoib::trace::SpanId open_root(rpcoib::trace::TraceCollector* tr, const char* name,
                                       int host) {
  if (tr == nullptr) return 0;
  const rpcoib::trace::SpanId id = tr->begin_span(name, rpcoib::trace::Kind::kInternal,
                                                  rpcoib::trace::Category::kOther, {}, host);
  tr->set_ambient(tr->context_of(id));
  return id;
}

/// Fixed reference work (reference.cpp): the event heap of a
/// discrete-event scheduler, popped and re-armed once per step. Every step
/// does the same kind of work, so its host time per step measures the
/// core's speed at the moment, not the simulator's.
class Reference {
 public:
  Reference();
  /// Runs `steps` steps; returns their host seconds.
  double run(std::size_t steps);

 private:
  struct Ev {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Ev& o) const { return at > o.at; }
  };

  std::vector<Ev> heap_;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t sum_ = 0;
};

/// The process's one reference kernel, built on first use.
Reference& reference();

struct RunOptions {
  std::uint64_t seed = 1;
  /// Traced run: every operation gets a benchmark-owned root span.
  rpcoib::trace::TraceCollector* tracer = nullptr;
  /// Run only the first `op_limit` operations of the generated inputs.
  std::size_t op_limit = std::numeric_limits<std::size_t>::max();
  /// Self-test: perturb one expected value so the output checks must fire.
  bool inject_mismatch = false;
};

struct RunResult {
  /// Virtual latency of every operation that completed correctly, in op
  /// order of the generated inputs (ops that failed are absent).
  std::vector<Dur> lat_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused, errored or wrong-result operations
  Dur measured_virtual = 0;  // virtual length of the measured phase
  Dur offered_virtual = 0;   // open loop: from the phase start to the last due time
  double payload_bytes = 0;  // useful bytes moved by correct operations
  double setup_host_s = 0;   // rep start -> measured phase start
  /// Measured phase, without the reference slices (measure_until).
  double measured_host_s = 0;
  /// Reference kernel time per step, over the measured phase's slices.
  double ref_step_host_ns = 0;
  std::uint64_t events = 0;  // scheduler events in the measured phase
  /// Exact per-layer counts read from public stats after the run.
  std::map<std::string, double> counts;
  /// Traced runs: the root span of each operation, in op order.
  std::vector<rpcoib::trace::SpanId> roots;
  /// First correctness failure, for the log.
  std::string first_error;
};

/// Runs a measured phase like step_until, and every 20 ms of host time
/// interleaves a slice of the reference kernel (about 1.6 ms). Sets
/// r.measured_host_s to the phase's host time without the slices, and
/// r.ref_step_host_ns to the reference's time per step over them.
template <typename Count>
void measure_until(rpcoib::sim::Scheduler& s, const Count& pending, const std::string& what,
                   RunResult& r) {
  constexpr double kSliceS = 0.02;
  constexpr std::size_t kRefSteps = 4096;
  Reference& ref = reference();
  double ref_s = 0;
  std::size_t ref_steps = 0;
  const double t0 = host_now_s();
  double next_slice = t0 + kSliceS;
  std::uint64_t n = 0;
  while (pending > 0 && s.step()) {
    if (++n % 256 == 0 && host_now_s() >= next_slice) {
      ref_s += ref.run(kRefSteps);
      ref_steps += kRefSteps;
      next_slice = host_now_s() + kSliceS;
    }
  }
  const double t1 = host_now_s();
  if (pending > 0) throw std::runtime_error(what);
  r.measured_host_s = t1 - t0 - ref_s;
  if (ref_steps == 0) {  // a phase shorter than one slice
    ref_s = ref.run(kRefSteps);
    ref_steps = kRefSteps;
  }
  r.ref_step_host_ns = ref_s * 1e9 / static_cast<double>(ref_steps);
}

/// A message shape the workload puts on the wire, for the host-cost probes.
struct MessageShape {
  std::string method;  // calls of one method share a shadow-pool history
  std::unique_ptr<rpcoib::rpc::Writable> msg;
  std::unique_ptr<rpcoib::rpc::Writable> blank;  // read_fields target
  double weight = 1;                             // share of calls
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual RunResult run(const RunOptions& opt) = 0;
  /// The request/response messages of the workload, weighted by their
  /// share of its calls.
  virtual std::vector<MessageShape> message_shapes() const = 0;
  /// Whether the workload is an open loop (latency timed from schedule).
  virtual bool open_loop() const = 0;
  /// Ops in the prefix of the inputs that the traced run replays: enough
  /// for the split, small enough to keep every span in memory.
  virtual std::size_t traced_ops() const = 0;
};

std::unique_ptr<Workload> make_rpc_small();
std::unique_ptr<Workload> make_hdfs_ingest();
std::unique_ptr<Workload> make_hbase_mixed();

/// rpc_small's offered-rate ladder: the highest rate (Kops/s) on a fixed
/// step where p99 <= limit and delivery >= 99% of offered.
struct LadderResult {
  double slo_kops = 0;
  int rungs = 0;
  std::string log;
};
LadderResult rpc_small_slo_ladder(std::uint64_t seed);

// Host-cost probes over public functions (probes.cpp).
double probe_dispatch_host_ns();
double probe_ser_host_ns(const std::vector<MessageShape>& shapes);
double probe_pool_host_ns(const std::vector<MessageShape>& shapes);

/// Nearest-rank percentile of an unsorted sample, in microseconds.
double percentile_us(std::vector<Dur> v, double q);

}  // namespace perfbench
