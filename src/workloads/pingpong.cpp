#include "workloads/pingpong.hpp"

#include <memory>

#include "metrics/metrics.hpp"
#include "net/testbed.hpp"
#include "rpc/resilience.hpp"

namespace rpcoib::workloads {

namespace {

using net::Address;
using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Scheduler;
using sim::Task;

constexpr Address kBenchAddr{0, 9090};
const rpc::MethodKey kPingPong{"bench.PingPongProtocol", "pingpong"};

Task latency_client(rpc::RpcClient& client, Address addr, std::size_t payload, int warmup,
                    int iters, metrics::Histogram& hist) {
  net::Bytes data(payload, net::Byte{0x5A});
  rpc::BytesWritable req(data);
  for (int i = 0; i < warmup + iters; ++i) {
    rpc::BytesWritable resp;
    const sim::Time t0 = client.host().sched().now();
    co_await client.call(addr, kPingPong, req, &resp);
    if (i >= warmup) hist.add(sim::to_us(client.host().sched().now() - t0));
  }
}

struct ThroughputCounter {
  std::uint64_t ops = 0;
  sim::Time deadline = 0;
};

Task throughput_client(rpc::RpcClient& client, Address addr, std::size_t payload,
                       ThroughputCounter& counter) {
  net::Bytes data(payload, net::Byte{0x5A});
  rpc::BytesWritable req(data);
  while (client.host().sched().now() < counter.deadline) {
    rpc::BytesWritable resp;
    co_await client.call(addr, kPingPong, req, &resp);
    if (client.host().sched().now() <= counter.deadline) ++counter.ops;
  }
}

}  // namespace

void register_pingpong(rpc::RpcServer& server) {
  server.dispatcher().register_method<rpc::BytesWritable>(
      "bench.PingPongProtocol", "pingpong",
      [](rpc::BytesWritable& payload) { return std::move(payload); });
}

std::vector<LatencyResult> run_latency(RpcMode mode, const std::vector<std::size_t>& payloads,
                                       int warmup, int iters, std::uint64_t seed,
                                       trace::TraceCollector* collector) {
  std::vector<LatencyResult> results;
  for (std::size_t payload : payloads) {
    Scheduler s;
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.seed = seed;
    Testbed tb(s, cfg);
    tb.set_tracer(collector);
    RpcEngine engine(tb, EngineConfig{.mode = mode});
    std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(0), kBenchAddr);
    register_pingpong(*server);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(1));

    metrics::Histogram hist;
    s.spawn(latency_client(*client, kBenchAddr, payload, warmup, iters, hist));
    s.run_until(sim::seconds(120));

    results.push_back(LatencyResult{payload, hist.summary().mean(), hist.quantile(0.99)});
    server->stop();
    s.drain_tasks();
  }
  return results;
}

std::vector<ThroughputResult> run_throughput(RpcMode mode, const std::vector<int>& client_counts,
                                             int handlers, std::size_t payload,
                                             int duration_ms, std::uint64_t seed, int shards,
                                             std::string* last_report) {
  std::vector<ThroughputResult> results;
  for (int n_clients : client_counts) {
    Scheduler s;
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.seed = seed;
    Testbed tb(s, cfg);
    EngineConfig ecfg;
    ecfg.mode = mode;
    ecfg.server_handlers = handlers;
    ecfg.server_shards = shards;
    RpcEngine engine(tb, ecfg);
    std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(0), kBenchAddr);
    register_pingpong(*server);
    server->start();

    // The multiple clients are "distributed uniformly over 8 nodes".
    std::vector<std::unique_ptr<rpc::RpcClient>> clients;
    std::vector<std::unique_ptr<ThroughputCounter>> counters;
    for (int i = 0; i < n_clients; ++i) {
      cluster::Host& host = tb.host(1 + i % 8);
      clients.push_back(engine.make_client(host));
      counters.push_back(std::make_unique<ThroughputCounter>());
    }
    // Warm up connections/history, then measure a fixed virtual window.
    const sim::Time t_start = sim::millis(50);
    const sim::Time t_end = t_start + sim::millis(static_cast<std::uint64_t>(duration_ms));
    for (int i = 0; i < n_clients; ++i) {
      counters[static_cast<std::size_t>(i)]->deadline = t_end;
      s.spawn(throughput_client(*clients[static_cast<std::size_t>(i)], kBenchAddr, payload,
                                *counters[static_cast<std::size_t>(i)]));
    }
    s.run_until(t_end + sim::seconds(2));

    std::uint64_t total_ops = 0;
    for (const auto& c : counters) total_ops += c->ops;
    // Ops counted only inside [0, t_end); normalize by the full window the
    // clients were active (includes connect+warmup skew, which is small).
    const double secs = sim::to_sec(t_end);
    results.push_back(ThroughputResult{n_clients, total_ops / secs / 1000.0});
    if (last_report != nullptr && n_clients == client_counts.back()) {
      // Per-shard shard.* rows for the bench artifact (taken before stop()
      // so no dropped-on-stop noise lands in the dispatch counters).
      *last_report = rpc::resilience_report(clients.front()->stats(), nullptr,
                                            &server->stats());
    }
    server->stop();
    s.drain_tasks();
  }
  return results;
}

double run_shared_throughput(RpcMode mode, const rpc::BatchConfig& batch, int callers,
                             int shared_clients, std::size_t payload, int duration_ms,
                             std::uint64_t seed) {
  Scheduler s;
  net::TestbedConfig cfg = Testbed::cluster_b();
  cfg.seed = seed;
  Testbed tb(s, cfg);
  EngineConfig ecfg;
  ecfg.mode = mode;
  ecfg.batch = batch;
  RpcEngine engine(tb, ecfg);
  std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(0), kBenchAddr);
  register_pingpong(*server);
  server->start();

  // Callers multiplex round-robin over the shared client objects (and so
  // over their per-server connections), spread across distinct hosts.
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (int i = 0; i < shared_clients; ++i) {
    clients.push_back(engine.make_client(tb.host(1 + i % 8)));
  }
  std::vector<std::unique_ptr<ThroughputCounter>> counters;
  const sim::Time t_end = sim::millis(50) + sim::millis(static_cast<std::uint64_t>(duration_ms));
  for (int i = 0; i < callers; ++i) {
    counters.push_back(std::make_unique<ThroughputCounter>());
    counters.back()->deadline = t_end;
    rpc::RpcClient& client = *clients[static_cast<std::size_t>(i % shared_clients)];
    s.spawn(throughput_client(client, kBenchAddr, payload, *counters.back()));
  }
  s.run_until(t_end + sim::seconds(2));

  std::uint64_t total_ops = 0;
  for (const auto& c : counters) total_ops += c->ops;
  server->stop();
  s.drain_tasks();
  return static_cast<double>(total_ops) / sim::to_sec(t_end) / 1000.0;
}

double run_alloc_ratio(RpcMode mode, std::size_t payload, int iters) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = mode});
  std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(0), kBenchAddr);
  register_pingpong(*server);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(1));

  metrics::Histogram hist;
  s.spawn(latency_client(*client, kBenchAddr, payload, 1, iters, hist));
  s.run_until(sim::seconds(300));

  const rpc::RpcStats& st = server->stats();
  const double ratio = st.recv_total_us.sum() > 0 ? st.recv_alloc_us.sum() / st.recv_total_us.sum()
                                                  : 0.0;
  server->stop();
  s.drain_tasks();
  return ratio;
}

}  // namespace rpcoib::workloads
