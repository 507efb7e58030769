// Figure 5(b): RPC throughput — single server (8 handlers), 8-64
// concurrent clients distributed over 8 nodes, 512-byte payloads.
//
// Paper endpoints: RPCoIB peak ~135.22 Kops/sec, +82% over RPC-10GigE and
// +64% over RPC-IPoIB at the peak.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "workloads/pingpong.hpp"

int main(int argc, char** argv) {
  using namespace rpcoib;
  using oib::RpcMode;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut | bench::kReportOut);

  const std::vector<int> clients = {8, 16, 24, 32, 40, 48, 56, 64};

  metrics::print_banner(std::cout,
                        "Figure 5(b): RPC Throughput, 512B payload, 8 handlers (Kops/sec)");

  constexpr int kWindowMs = 60;  // virtual measurement window per point
  std::vector<workloads::ThroughputResult> tengige =
      workloads::run_throughput(RpcMode::kSocket10GigE, clients, 8, 512, kWindowMs);
  std::vector<workloads::ThroughputResult> ipoib =
      workloads::run_throughput(RpcMode::kSocketIPoIB, clients, 8, 512, kWindowMs);
  std::vector<workloads::ThroughputResult> rpcoib =
      workloads::run_throughput(RpcMode::kRpcoIB, clients, 8, 512, kWindowMs);

  metrics::Table t({"Clients", "RPC-10GigE", "RPC-IPoIB(32Gbps)", "RPCoIB(32Gbps)"});
  // --json-out=FILE: machine-readable copy of both tables for the CI
  // benchmark-regression gate (ci/check_bench.py).
  bench::Json json("fig5_throughput");
  double peak_10ge = 0, peak_ipoib = 0, peak_rdma = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    t.row({std::to_string(clients[i]), metrics::Table::num(tengige[i].kops, 1),
           metrics::Table::num(ipoib[i].kops, 1), metrics::Table::num(rpcoib[i].kops, 1)});
    json.row({{"clients", clients[i]}, {"tengige_kops", tengige[i].kops},
              {"ipoib_kops", ipoib[i].kops}, {"rpcoib_kops", rpcoib[i].kops}});
    peak_10ge = std::max(peak_10ge, tengige[i].kops);
    peak_ipoib = std::max(peak_ipoib, ipoib[i].kops);
    peak_rdma = std::max(peak_rdma, rpcoib[i].kops);
  }
  t.print(std::cout);

  std::cout << "\nPeaks: RPCoIB " << metrics::Table::num(peak_rdma, 2) << " Kops/s ("
            << metrics::Table::pct((peak_rdma / peak_10ge - 1.0) * 100.0, 0) << " vs 10GigE, "
            << metrics::Table::pct((peak_rdma / peak_ipoib - 1.0) * 100.0, 0) << " vs IPoIB)\n"
            << "Paper: RPCoIB peak 135.22 Kops/s; +82% vs 10GigE; +64% vs IPoIB.\n";

  // Shard-scaling sweep (server.shards): same workload at the two highest
  // client counts, server receive/dispatch sharded 1-8 ways. The serial
  // Reader/CQ loop is the unsharded server's throughput cap, so peak
  // Kops/s should climb with the shard count; ci/check_bench.py gates the
  // 4-shard over 1-shard ratio.
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  const std::vector<int> shard_clients = {32, 64};
  metrics::print_banner(std::cout, "Shard scaling: peak Kops/sec vs server.shards");
  metrics::Table st({"Shards", "RPC-IPoIB(32Gbps)", "RPCoIB(32Gbps)"});
  std::vector<double> shard_peak_rpcoib;
  std::string shard_report;  // 4-shard RPCoIB resilience report (artifact)
  for (int shards : shard_counts) {
    std::string* report = shards == 4 ? &shard_report : nullptr;
    std::vector<workloads::ThroughputResult> si = workloads::run_throughput(
        RpcMode::kSocketIPoIB, shard_clients, 8, 512, kWindowMs, 1, shards);
    std::vector<workloads::ThroughputResult> sr = workloads::run_throughput(
        RpcMode::kRpcoIB, shard_clients, 8, 512, kWindowMs, 1, shards, report);
    double pi = 0, pr = 0;
    for (const auto& r : si) pi = std::max(pi, r.kops);
    for (const auto& r : sr) pr = std::max(pr, r.kops);
    shard_peak_rpcoib.push_back(pr);
    json.row({{"shards", shards}, {"ipoib_kops", pi}, {"rpcoib_kops", pr}}, "shard_rows");
    st.row({std::to_string(shards), metrics::Table::num(pi, 1), metrics::Table::num(pr, 1)});
  }
  st.print(std::cout);
  std::cout << "4-shard / 1-shard RPCoIB peak: "
            << metrics::Table::num(shard_peak_rpcoib[2] / shard_peak_rpcoib[0], 2) << "x\n";

  // --report-out=FILE: the 4-shard RPCoIB resilience report with the
  // per-shard shard.* counter rows (uploaded as a CI artifact).
  if (!bench::write_out(args.report_out, shard_report)) return 1;
  return bench::write_out(args.json_out, json.str()) ? 0 : 1;
}
