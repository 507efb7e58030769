// Host-cost probes: timed loops over single public functions, run on the
// workload's own message shapes. Each reports host nanoseconds per
// operation as the median of several trials.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "cluster/cost_model.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace perfbench {

namespace {

namespace sim = rpcoib::sim;
namespace rpc = rpcoib::rpc;
namespace oib = rpcoib::oib;

constexpr int kTrials = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Shape indices drawn by weight, so the loops see the workload's mix.
std::vector<std::size_t> weighted_sequence(const std::vector<MessageShape>& shapes,
                                           std::size_t n) {
  double total = 0;
  for (const MessageShape& m : shapes) total += m.weight;
  sim::Rng rng(0x70726f6265);
  std::vector<std::size_t> seq(n);
  for (std::size_t& k : seq) {
    double u = rng.next_double() * total;
    k = 0;
    while (k + 1 < shapes.size() && u >= shapes[k].weight) u -= shapes[k++].weight;
  }
  return seq;
}

sim::Task hop(sim::Scheduler& s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) co_await sim::delay(s, 1);
}

}  // namespace

double probe_dispatch_host_ns() {
  // One coroutine re-arming itself: each event is one resume_at + step.
  constexpr std::size_t kEvents = 1'000'000;
  std::vector<double> trials;
  for (int t = 0; t < kTrials; ++t) {
    sim::Scheduler s;
    s.spawn(hop(s, kEvents));
    const double t0 = host_now_s();
    while (s.step()) {
    }
    const double dt = host_now_s() - t0;
    trials.push_back(dt * 1e9 / static_cast<double>(s.events_processed()));
  }
  return median(trials);
}

double probe_ser_host_ns(const std::vector<MessageShape>& shapes) {
  // Writable::write into a fresh DataOutputBuffer (Algorithm 1 growth
  // included), then read_fields back, per message.
  constexpr std::size_t kMessages = 200'000;
  const rpcoib::cluster::CostModel cm{};
  const std::vector<std::size_t> seq = weighted_sequence(shapes, 4096);
  std::vector<double> trials;
  for (int t = 0; t < kTrials; ++t) {
    const double t0 = host_now_s();
    for (std::size_t i = 0; i < kMessages; ++i) {
      const MessageShape& m = shapes[seq[i % seq.size()]];
      rpc::DataOutputBuffer out(cm);
      m.msg->write(out);
      rpc::DataInputBuffer in(cm, out.data());
      m.blank->read_fields(in);
    }
    trials.push_back((host_now_s() - t0) * 1e9 / static_cast<double>(kMessages));
  }
  return median(trials);
}

double probe_pool_host_ns(const std::vector<MessageShape>& shapes) {
  // ShadowPool::acquire_for + release_for per message, with the serialized
  // size of each shape as the bytes used (Section III-C's history rule).
  constexpr std::size_t kPairs = 1'000'000;
  const rpcoib::cluster::CostModel cm{};
  std::vector<std::size_t> sizes;
  std::vector<rpc::MethodKey> keys;
  for (const MessageShape& m : shapes) {
    rpc::DataOutputBuffer out(cm);
    m.msg->write(out);
    sizes.push_back(out.length());
    keys.push_back(rpc::MethodKey{"bench", m.method});
  }
  const std::vector<std::size_t> seq = weighted_sequence(shapes, 4096);

  sim::Scheduler s;
  rpcoib::net::Testbed tb(s, rpcoib::net::Testbed::cluster_b());
  oib::RpcEngine engine(tb, oib::EngineConfig{.mode = oib::RpcMode::kRpcoIB});
  oib::NativeBufferPool native(tb.host(0), engine.verbs(), oib::PoolConfig{});
  s.spawn([](oib::NativeBufferPool& p) -> sim::Task { co_await p.initialize(); }(native));
  s.run();
  oib::ShadowPool shadow(native);

  std::vector<double> trials;
  for (int t = 0; t < kTrials; ++t) {
    const double t0 = host_now_s();
    for (std::size_t i = 0; i < kPairs; ++i) {
      const std::size_t k = seq[i % seq.size()];
      oib::NativeBuffer* buf = shadow.acquire_for(keys[k]);
      shadow.release_for(keys[k], buf, sizes[k]);
    }
    trials.push_back((host_now_s() - t0) * 1e9 / static_cast<double>(kPairs));
  }
  s.drain_tasks();
  return median(trials);
}

}  // namespace perfbench
