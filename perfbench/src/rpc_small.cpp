// rpc_small: open-loop small-message RPC over RPCoIB.
//
// 64 simulated clients on hosts 1-8 of Cluster B send seeded Poisson
// arrivals to one RPCoIB echo server (8 handlers, 1 shard, every plane
// off) on host 0. Payload sizes follow Fig. 3's size locality; the 32 KB
// class is above the 4 KB eager threshold and takes the rendezvous path.
// Latency is timed from each call's scheduled send time.
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "net/testbed.hpp"
#include "rpcoib/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace perfbench {

namespace {

namespace rpc = rpcoib::rpc;
namespace oib = rpcoib::oib;
namespace sim = rpcoib::sim;
namespace trace = rpcoib::trace;

constexpr double kRate = 110e3;  // offered ops per virtual second
constexpr std::size_t kOps = 100000;
constexpr int kClients = 64;
constexpr rpcoib::net::Address kServer{0, 9090};
const rpc::MethodKey kEcho{"bench.EchoProtocol", "echo"};

// Fig. 3 size locality: 60% 512 B, 20% 64 B, 15% 2 KB, 5% 32 KB.
constexpr std::uint32_t kSizes[] = {512, 64, 2048, 32768};
constexpr double kSizeCdf[] = {0.60, 0.80, 0.95, 1.0};

struct Op {
  Time at = 0;  // due time, relative to the start of the measured phase
  std::uint32_t size = 0;
  std::uint16_t client = 0;
};

std::vector<Op> generate(std::uint64_t seed, double rate, std::size_t n) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5253);
  std::vector<Op> ops(n);
  double t = 0;
  for (Op& op : ops) {
    t += rng.next_exponential(1e9 / rate);
    op.at = static_cast<Time>(t);
    op.client = static_cast<std::uint16_t>(rng.next_below(kClients));
    const double u = rng.next_double();
    std::size_t k = 0;
    while (u >= kSizeCdf[k]) ++k;
    op.size = kSizes[k];
  }
  return ops;
}

/// Deterministic payload of op `i`: the echo check compares every byte.
rpcoib::net::Bytes payload(std::uint32_t i, std::uint32_t size) {
  rpcoib::net::Bytes b(size);
  std::uint32_t x = i * 2654435761u + 1;
  for (auto& byte : b) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<rpcoib::net::Byte>(x >> 24);
  }
  return b;
}

struct Ctx {
  sim::Scheduler& s;
  std::vector<std::unique_ptr<rpc::RpcClient>>& clients;
  const std::vector<Op>& ops;
  trace::TraceCollector* tr;
  bool inject_mismatch;
  Time t0 = 0;
  std::size_t pending = 0;  // measured calls not yet completed
  std::size_t warm_pending = 0;
  bool late = false;
  Time last_done = 0;
  std::vector<Dur> lat{};  // per op; kFailed when the op failed
  std::vector<trace::SpanId> roots{};
  std::uint64_t failed = 0;
  double payload_bytes = 0;
  std::string first_error{};
};

sim::Task call_op(Ctx& c, std::uint32_t i) {
  const Op& op = c.ops[i];
  const Time due = c.t0 + op.at;
  if (c.s.now() != due) c.late = true;
  rpc::RpcClient& client = *c.clients[op.client];
  rpc::BytesWritable req(payload(i, op.size));
  rpc::BytesWritable resp;
  const trace::SpanId root = open_root(c.tr, "bench.echo", client.host().id());
  std::string error;
  try {
    co_await client.call(kServer, kEcho, req, &resp);
  } catch (const std::exception& e) {
    error = std::string("echo failed: ") + e.what();
  }
  if (c.tr != nullptr) {
    c.tr->end_span(root);
    c.roots[i] = root;
  }
  if (error.empty()) {
    if (c.inject_mismatch && i == 0) req.value[0] ^= 1;
    if (resp.value != req.value) error = "echo returned different bytes";
  }
  if (error.empty()) {
    c.lat[i] = c.s.now() - due;
    c.payload_bytes += op.size;
  } else {
    ++c.failed;
    if (c.first_error.empty()) c.first_error = "op " + std::to_string(i) + ": " + error;
  }
  c.last_done = std::max(c.last_done, c.s.now());
  --c.pending;
}

/// The open-loop generator: launches each call at its due time, without
/// waiting for earlier calls.
sim::Task generator(Ctx& c) {
  for (std::uint32_t i = 0; i < c.ops.size(); ++i) {
    const Time due = c.t0 + c.ops[i].at;
    if (due > c.s.now()) co_await sim::delay(c.s, due - c.s.now());
    c.s.spawn(call_op(c, i));
  }
}

/// Warm-up: one call of each size class per client, so QP bootstrap and
/// pool history are paid before timing starts.
sim::Task warm_client(Ctx& c, rpc::RpcClient& client) {
  for (std::uint32_t size : kSizes) {
    rpc::BytesWritable req(payload(0, size));
    rpc::BytesWritable resp;
    co_await client.call(kServer, kEcho, req, &resp);
  }
  --c.warm_pending;
}

void register_echo(rpc::RpcServer& server) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> sim::Co<void> {
        rpc::BytesWritable p;
        p.read_fields(in);
        p.write(out);
        co_return;
      });
}

Counts snapshot(oib::RpcEngine& engine, rpc::RpcServer& server,
                const std::vector<std::unique_ptr<rpc::RpcClient>>& clients) {
  Counts c = empty_counts();
  add_profiles(c, engine.aggregated_profiles());
  add_server_stats(c, server.stats());
  for (const auto& cl : clients) {
    add_client_stats(c, cl->stats());
    add_pool_stats(c, dynamic_cast<oib::RdmaRpcClient&>(*cl).pool().native().stats());
  }
  add_pool_stats(c, dynamic_cast<oib::RdmaRpcServer&>(server).pool().native().stats());
  return c;
}

RunResult run_open_loop(double rate, std::size_t n_ops, const RunOptions& opt) {
  const double rep_start = host_now_s();
  RunResult r;
  const std::vector<Op> all = generate(opt.seed, rate, n_ops);
  const std::vector<Op> ops(all.begin(),
                            all.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(opt.op_limit, all.size())));

  sim::Scheduler s;
  rpcoib::net::TestbedConfig tcfg = rpcoib::net::Testbed::cluster_b();
  tcfg.seed = opt.seed;
  rpcoib::net::Testbed tb(s, tcfg);
  if (opt.tracer != nullptr) {
    opt.tracer->bind(&s);
    opt.tracer->set_enabled(false);  // set-up and warm-up run untraced
    tb.set_tracer(opt.tracer);
  }
  oib::EngineConfig ecfg;
  ecfg.mode = oib::RpcMode::kRpcoIB;
  ecfg.server_handlers = 8;
  ecfg.server_shards = 1;
  oib::RpcEngine engine(tb, ecfg);
  std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(0), kServer);
  register_echo(*server);
  server->start();
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (int i = 0; i < kClients; ++i) clients.push_back(engine.make_client(tb.host(1 + i % 8)));

  Ctx c{s, clients, ops, opt.tracer, opt.inject_mismatch};
  c.lat.assign(ops.size(), kFailed);
  c.roots.assign(ops.size(), 0);
  c.warm_pending = clients.size();
  for (auto& cl : clients) s.spawn(warm_client(c, *cl));
  step_until(s, c.warm_pending, "rpc_small: warm-up did not finish");
  if (opt.tracer != nullptr) opt.tracer->set_enabled(true);
  const Counts before = snapshot(engine, *server, clients);

  const double m0 = host_now_s();
  r.setup_host_s = m0 - rep_start;
  const std::uint64_t e0 = s.events_processed();
  c.t0 = s.now() + sim::micros(10);
  c.last_done = c.t0;
  c.pending = ops.size();
  s.spawn(generator(c));
  measure_until(s, c.pending, "rpc_small: calls never completed", r);
  r.events = s.events_processed() - e0;
  if (c.late) throw std::runtime_error("rpc_small: open-loop generator ran late");

  r.counts = delta(snapshot(engine, *server, clients), before);
  r.attempted = ops.size();
  r.failed = c.failed;
  r.first_error = c.first_error;
  r.measured_virtual = c.last_done - c.t0;
  r.offered_virtual = ops.empty() ? 0 : ops.back().at;
  r.payload_bytes = c.payload_bytes;
  for (Dur d : c.lat) {
    if (d != kFailed) r.lat_ns.push_back(d);
  }
  if (opt.tracer != nullptr) r.roots = c.roots;

  server->stop();
  s.drain_tasks();
  if (opt.tracer != nullptr) tb.set_tracer(nullptr);
  return r;
}

class RpcSmall final : public Workload {
 public:
  RunResult run(const RunOptions& opt) override { return run_open_loop(kRate, kOps, opt); }

  std::vector<MessageShape> message_shapes() const override {
    std::vector<MessageShape> shapes;
    double prev = 0;
    for (std::size_t k = 0; k < std::size(kSizes); ++k) {
      MessageShape m;
      m.method = kEcho.method;
      m.msg = std::make_unique<rpc::BytesWritable>(payload(static_cast<std::uint32_t>(k),
                                                           kSizes[k]));
      m.blank = std::make_unique<rpc::BytesWritable>();
      m.weight = kSizeCdf[k] - prev;
      prev = kSizeCdf[k];
      shapes.push_back(std::move(m));
    }
    return shapes;
  }

  bool open_loop() const override { return true; }
  std::size_t traced_ops() const override { return 20000; }
};

}  // namespace

std::unique_ptr<Workload> make_rpc_small() { return std::make_unique<RpcSmall>(); }

LadderResult rpc_small_slo_ladder(std::uint64_t seed) {
  // Fixed 2.5 Kops/s ladder. Climb from 110 Kops/s until a rung misses
  // (p99 > 200 us or delivery < 99% of offered); if 110 misses, descend.
  constexpr double kStep = 2.5e3;
  constexpr double kStart = 110e3;
  constexpr double kP99LimitUs = 200;
  constexpr std::size_t kRungOps = 40000;
  LadderResult out;
  std::ostringstream log;
  auto meets = [&](double rate) {
    RunOptions opt;
    opt.seed = seed;
    const RunResult r = run_open_loop(rate, kRungOps, opt);
    ++out.rungs;
    const double p99 = r.lat_ns.empty() ? 1e18 : percentile_us(r.lat_ns, 0.99);
    // Delivered over offered: the schedule's span against the span to the
    // last completion, which a growing backlog stretches.
    const double delivery =
        static_cast<double>(r.offered_virtual) / static_cast<double>(r.measured_virtual);
    const bool ok = r.failed == 0 && p99 <= kP99LimitUs && delivery >= 0.99;
    log << "  rung " << rate / 1e3 << " Kops/s: p99 " << p99 << " us, delivery "
        << 100 * delivery << "% -> " << (ok ? "meets" : "misses") << "\n";
    return ok;
  };
  double rate = kStart;
  if (meets(rate)) {
    while (meets(rate + kStep)) rate += kStep;
    out.slo_kops = rate / 1e3;
  } else {
    while (rate > kStep && !meets(rate - kStep)) rate -= kStep;
    out.slo_kops = rate > kStep ? (rate - kStep) / 1e3 : 0;
  }
  out.log = log.str();
  return out;
}

}  // namespace perfbench
