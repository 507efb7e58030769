// Connection scaling of the UD datagram eager path: registered receive
// memory and small-call latency as the client count sweeps 4 -> 16384,
// RC/SRQ baseline vs UD. The RC baseline holds its shared receive ring
// flat but still pins a QP and connection state per client; the UD path
// serves every client from a fixed pool of datagram endpoints, so its
// registered receive memory must stay flat across the whole sweep at
// comparable small-call latency (paper Section V scalability argument).
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

constexpr Address kAddr{1, 9700};
const rpc::MethodKey kEcho{"bench.UdProtocol", "echo"};

struct Result {
  std::uint64_t ring_bytes_peak = 0;
  std::uint64_t ud_datagrams = 0;
  double mean_us = 0;
  bool complete = false;
};

Result run_one(bool ud, int conns, int calls_per_conn) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());

  // Sessions on both ends: the UD path is lossy by contract, so real
  // deployments always ride the durable-session plane. The table cap is
  // provisioned for the sweep's client count — per-session state is a few
  // words, which is exactly the flat-state story this bench measures.
  oib::EngineConfig scfg;
  scfg.session.enabled = true;
  scfg.session.table_cap = 32768;

  // The datagram path is lossy even on a fault-free fabric: a burst that
  // overruns the fixed endpoint rings is silently dropped, and the client's
  // retry resends it. The server runs no retry cache (no overload knob), so
  // a retried call may run its handler twice; the echo is idempotent, so
  // that is safe. Every client therefore runs the retry policy; the RC
  // baseline gets the same policy so the latency comparison is
  // apples-to-apples (it never fires there).
  oib::EngineConfig ccfg = scfg;
  ccfg.retry.call_timeout = sim::millis(200);
  ccfg.retry.max_retries = 10;
  ccfg.retry.backoff_base = sim::millis(10);

  scfg.ud.enabled = ud;
  // Provisioned for the top of the sweep: ring depth is a property of the
  // endpoint pool, not of the client count, so it is identical for every
  // row — the flat-memory claim is that this line never has to change as
  // clients grow, only as burst depth does.
  scfg.ud.recv_depth = 256;
  oib::RdmaRpcServer server(tb.host(1), tb.sockets(), stack, kAddr, scfg);
  rpcoib::bench::register_echo(server, kEcho);
  server.start();

  ccfg.ud.enabled = ud;
  // Thousands of client pools in one process: keep each tiny. Ring slots
  // beyond the prealloc classes demand-allocate once at bootstrap (the
  // uncounted warmup call absorbs the registration cost).
  ccfg.pool.buffers_per_class = 1;
  ccfg.pool.prealloc_max_class = 1024;
  ccfg.pool.recv_depth = 2;
  ccfg.ud.client_recv_depth = 2;
  static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::unique_ptr<oib::RdmaRpcClient>> clients;
  clients.reserve(static_cast<std::size_t>(conns));
  double total_us = 0;
  int done = 0;
  for (int i = 0; i < conns; ++i) {
    clients.push_back(std::make_unique<oib::RdmaRpcClient>(
        tb.host(kClientHosts[i % 8]), tb.sockets(), stack, ccfg));
    s.spawn(rpcoib::bench::echo_client(s, *clients.back(), kAddr, kEcho, sim::micros(50) * i,
                                       calls_per_conn, total_us, done));
  }
  s.run_until(sim::seconds(3600));

  Result r;
  r.complete = done == conns * calls_per_conn;
  r.ring_bytes_peak = server.stats().recv_ring_bytes_peak;
  r.ud_datagrams = server.stats().ud_calls_received;
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
  const int kConns[] = {4, 64, 1024, 4096, 16384};

  rpcoib::metrics::print_banner(
      std::cout,
      "Registered receive memory vs clients: RC/SRQ baseline vs UD datagram eager path");

  std::vector<Row> rows;
  for (const int conns : kConns) {
    rows.push_back({"rc", conns, run_one(/*ud=*/false, conns, kCallsPerConn)});
  }
  for (const int conns : kConns) {
    rows.push_back({"ud", conns, run_one(/*ud=*/true, conns, kCallsPerConn)});
  }

  Table t({"Mode", "Conns", "RingPeak(KB)", "B/conn", "Mean us", "Complete"});
  bench::Json json("ud_scale");
  bool ok = true;
  for (const Row& r : rows) {
    t.row({r.mode, std::to_string(r.conns),
           Table::num(static_cast<double>(r.res.ring_bytes_peak) / 1024.0, 0),
           Table::num(static_cast<double>(r.res.ring_bytes_peak) / r.conns, 0),
           Table::num(r.res.mean_us, 1), r.res.complete ? "yes" : "NO"});
    json.row({{"mode", r.mode}, {"conns", r.conns}, {"ring_bytes_peak", r.res.ring_bytes_peak},
              {"ud_datagrams", r.res.ud_datagrams}, {"mean_us", r.res.mean_us}});
    ok = ok && r.res.complete;
  }
  t.print(std::cout);
  std::cout << "\nThe UD path serves every client from a fixed pool of datagram endpoints\n"
               "whose rings are sized by the pool, not the client count; its registered\n"
               "receive memory must stay flat from 4 to 16384 clients. The RC baseline\n"
               "shares one SRQ ring but still pins a QP per accepted connection.\n";

  if (!bench::write_out(args.json_out, json.str())) return 1;
  return ok ? 0 : 1;
}
