// Small-message coalescing throughput: 16 caller tasks multiplexed over 4
// shared client objects, 64-byte payloads — the many-waiters-per-connection
// regime where Hadoop's RPC congestion collapses into per-call syscalls.
// Compares batching off (seed behavior) vs on (adaptive coalescing) on the
// socket transport and on RPCoIB.
#include <iostream>
#include <string>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "workloads/pingpong.hpp"

namespace {
struct Row {
  const char* transport;
  double plain_kops;
  double batched_kops;
  double ratio() const { return plain_kops > 0 ? batched_kops / plain_kops : 0.0; }
};
}  // namespace

int main(int argc, char** argv) {
  using namespace rpcoib;
  using oib::RpcMode;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut);

  constexpr int kCallers = 16;
  constexpr int kSharedClients = 2;
  constexpr std::size_t kPayload = 64;
  constexpr int kWindowMs = 60;

  metrics::print_banner(
      std::cout, "Small-message coalescing: 16 callers / 2 shared clients, 64B (Kops/sec)");

  rpc::BatchConfig off;  // default: disabled
  rpc::BatchConfig on;
  on.enabled = true;

  Row rows[2] = {
      {"RPC-IPoIB",
       workloads::run_shared_throughput(RpcMode::kSocketIPoIB, off, kCallers, kSharedClients,
                                        kPayload, kWindowMs),
       workloads::run_shared_throughput(RpcMode::kSocketIPoIB, on, kCallers, kSharedClients,
                                        kPayload, kWindowMs)},
      {"RPCoIB",
       workloads::run_shared_throughput(RpcMode::kRpcoIB, off, kCallers, kSharedClients,
                                        kPayload, kWindowMs),
       workloads::run_shared_throughput(RpcMode::kRpcoIB, on, kCallers, kSharedClients,
                                        kPayload, kWindowMs)},
  };

  metrics::Table t({"Transport", "Plain", "Batched", "Batched/Plain"});
  bench::Json json("fig5_batched");
  for (const Row& r : rows) {
    t.row({r.transport, metrics::Table::num(r.plain_kops, 1),
           metrics::Table::num(r.batched_kops, 1), metrics::Table::num(r.ratio(), 2)});
    json.row({{"transport", r.transport}, {"plain_kops", r.plain_kops},
              {"batched_kops", r.batched_kops}, {"ratio", r.ratio()}});
  }
  t.print(std::cout);
  std::cout << "\nCoalescing amortizes per-message framing/syscall cost across the calls\n"
               "queued behind a shared connection; off-by-default, wire-identical when off.\n";

  return bench::write_out(args.json_out, json.str()) ? 0 : 1;
}
