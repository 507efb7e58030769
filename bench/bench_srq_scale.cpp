// Receive-memory scaling of the RPCoIB server: registered receive-ring
// bytes and small-call latency as the connection count sweeps 4 -> 256,
// legacy per-QP rings vs the shared receive queue. The per-QP rings pin
// O(connections) registered memory; the SRQ pins one server-wide ring and
// must stay flat across the sweep at equal latency.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "net/testbed.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"

namespace {

using rpcoib::net::Address;
using rpcoib::net::Testbed;
using rpcoib::sim::Scheduler;
namespace oib = rpcoib::oib;
namespace rpc = rpcoib::rpc;
namespace sim = rpcoib::sim;
namespace net = rpcoib::net;
namespace cluster = rpcoib::cluster;
namespace verbs = rpcoib::verbs;

constexpr Address kAddr{1, 9600};
const rpc::MethodKey kEcho{"bench.SrqProtocol", "echo"};

struct Result {
  std::uint64_t ring_bytes_peak = 0;
  double mean_us = 0;
  bool complete = false;
};

Result run_one(std::size_t srq_depth, int conns, int calls_per_conn) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  oib::EngineConfig scfg;
  scfg.pool.srq_depth = srq_depth;  // 0 selects the legacy per-QP rings
  oib::RdmaRpcServer server(tb.host(1), tb.sockets(), stack, kAddr, scfg);
  rpcoib::bench::register_echo(server, kEcho);
  server.start();

  oib::EngineConfig ccfg;
  ccfg.pool.buffers_per_class = 2;  // hundreds of client pools: keep each small
  static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::unique_ptr<oib::RdmaRpcClient>> clients;
  clients.reserve(static_cast<std::size_t>(conns));
  double total_us = 0;
  int done = 0;
  for (int i = 0; i < conns; ++i) {
    clients.push_back(std::make_unique<oib::RdmaRpcClient>(
        tb.host(kClientHosts[i % 8]), tb.sockets(), stack, ccfg));
    s.spawn(rpcoib::bench::echo_client(s, *clients.back(), kAddr, kEcho, sim::micros(200) * i,
                                       calls_per_conn, total_us, done));
  }
  s.run_until(sim::seconds(600));

  Result r;
  r.complete = done == conns * calls_per_conn;
  r.ring_bytes_peak = server.stats().recv_ring_bytes_peak;
  r.mean_us = done > 0 ? total_us / done : 0;
  for (auto& c : clients) c->close_connections();
  server.stop();
  s.drain_tasks();
  return r;
}

struct Row {
  const char* mode;
  int conns;
  Result res;
};

}  // namespace

int main(int argc, char** argv) {
  using rpcoib::metrics::Table;
  namespace bench = rpcoib::bench;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut);

  constexpr int kCallsPerConn = 4;
  const int kConns[] = {4, 16, 64, 256};

  rpcoib::metrics::print_banner(
      std::cout, "Registered receive-ring bytes vs connections: per-QP rings vs SRQ");

  std::vector<Row> rows;
  for (const int conns : kConns) {
    rows.push_back({"perqp", conns, run_one(/*srq_depth=*/0, conns, kCallsPerConn)});
  }
  for (const int conns : kConns) {
    rows.push_back({"srq", conns, run_one(/*srq_depth=*/64, conns, kCallsPerConn)});
  }

  Table t({"Mode", "Conns", "RingPeak(KB)", "Mean us", "Complete"});
  bench::Json json("srq_scale");
  bool ok = true;
  for (const Row& r : rows) {
    t.row({r.mode, std::to_string(r.conns),
           Table::num(static_cast<double>(r.res.ring_bytes_peak) / 1024.0, 0),
           Table::num(r.res.mean_us, 1), r.res.complete ? "yes" : "NO"});
    json.row({{"mode", r.mode}, {"conns", r.conns}, {"ring_bytes_peak", r.res.ring_bytes_peak},
              {"mean_us", r.res.mean_us}});
    ok = ok && r.res.complete;
  }
  t.print(std::cout);
  std::cout << "\nThe SRQ posts one server-wide ring refilled at a low watermark, so its\n"
               "registered receive memory is flat in the connection count; per-QP rings\n"
               "pin a full ring per accepted connection.\n";

  if (!bench::write_out(args.json_out, json.str())) return 1;
  return ok ? 0 : 1;
}
