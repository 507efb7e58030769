// Ablation: the eager/rendezvous threshold (Section III-D's tunable).
//
// Sweeps the switch point and reports warm ping-pong latency at payloads
// around it: small messages should ride send/recv; large ones RDMA read.
#include <iostream>
#include <memory>
#include <vector>

#include "metrics/table.hpp"
#include "net/testbed.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"
#include "workloads/pingpong.hpp"

using namespace rpcoib;

namespace {

double warm_latency(std::size_t threshold, std::size_t payload) {
  sim::Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());

  const oib::EngineConfig cfg{.eager_threshold = threshold};
  oib::RdmaRpcServer server(tb.host(0), tb.sockets(), stack, {0, 9090}, cfg);
  workloads::register_pingpong(server);
  server.start();
  oib::RdmaRpcClient client(tb.host(1), tb.sockets(), stack, cfg);

  static const rpc::MethodKey kPP{"bench.PingPongProtocol", "pingpong"};
  double warm_us = 0;
  s.spawn([](oib::RdmaRpcClient& c, std::size_t n, double& out) -> sim::Task {
    net::Bytes data(n, net::Byte{1});
    rpc::BytesWritable req(data);
    for (int i = 0; i < 8; ++i) {
      rpc::BytesWritable resp;
      const sim::Time t0 = c.host().sched().now();
      co_await c.call({0, 9090}, kPP, req, &resp);
      if (i == 7) out = sim::to_us(c.host().sched().now() - t0);
    }
  }(client, payload, warm_us));
  s.run_until(sim::seconds(60));
  client.close_connections();
  server.stop();
  s.drain_tasks();
  return warm_us;
}

}  // namespace

int main() {
  const std::vector<std::size_t> thresholds = {1024, 4096, 16384, 65536};
  const std::vector<std::size_t> payloads = {512, 2048, 8192, 32768, 131072};

  metrics::print_banner(std::cout,
                        "Ablation: eager/rendezvous threshold sweep (warm RTT, us)");
  std::vector<std::string> header = {"Payload \\ Threshold"};
  for (std::size_t t : thresholds) header.push_back(std::to_string(t) + "B");
  metrics::Table t(header);
  for (std::size_t p : payloads) {
    std::vector<std::string> row = {std::to_string(p) + "B"};
    for (std::size_t th : thresholds) {
      row.push_back(metrics::Table::num(warm_latency(th, p), 1));
    }
    t.row(std::move(row));
  }
  t.print(std::cout);

  std::cout << "\nExpected: below the threshold latency is flat-ish (eager copy);\n"
               "above it the rendezvous adds a control round trip but avoids\n"
               "oversized eager buffers — the crossover justifies a KB-scale\n"
               "default (Section III-D).\n";
  return 0;
}
