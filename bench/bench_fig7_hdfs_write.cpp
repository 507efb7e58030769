// Figure 7: Integrated evaluation on HDFS Write.
//
// 32 DataNodes, replication 3, single client writing 1-5 GB files, seven
// configurations crossing the HDFS data path (1GigE / IPoIB / HDFSoIB)
// with the Hadoop RPC path (1GigE / IPoIB / RPCoIB).
//
// Paper: HDFSoIB-RPCoIB ~10% below HDFSoIB-RPC(IPoIB); socket data paths
// ordered 1GigE >> IPoIB > HDFSoIB.
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "workloads/hadoop_jobs.hpp"

int main(int argc, char** argv) {
  using namespace rpcoib;
  using hdfs::DataMode;
  using oib::RpcMode;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut);

  struct Config {
    DataMode data;
    RpcMode rpc;
    const char* label;
    bool streamed = false;
  };
  const std::vector<Config> configs = {
      {DataMode::kSocket1GigE, RpcMode::kSocket1GigE, "HDFS(1GigE)-RPC(1GigE)"},
      {DataMode::kSocket1GigE, RpcMode::kRpcoIB, "HDFS(1GigE)-RPCoIB"},
      {DataMode::kSocketIPoIB, RpcMode::kSocketIPoIB, "HDFS(IPoIB)-RPC(IPoIB)"},
      {DataMode::kSocketIPoIB, RpcMode::kRpcoIB, "HDFS(IPoIB)-RPCoIB"},
      {DataMode::kRdma, RpcMode::kSocket1GigE, "HDFSoIB-RPC(1GigE)"},
      {DataMode::kRdma, RpcMode::kSocketIPoIB, "HDFSoIB-RPC(IPoIB)"},
      {DataMode::kRdma, RpcMode::kRpcoIB, "HDFSoIB-RPCoIB"},
      // Beyond the paper: same stack with the pipelined bulk-streaming
      // subsystem carrying the 64 MB blocks instead of one-shot rendezvous.
      {DataMode::kRdma, RpcMode::kRpcoIB, "HDFSoIB-RPCoIB-streamed", true},
  };

  metrics::print_banner(std::cout,
                        "Figure 7: HDFS Write time (s), 32 DataNodes, replication 3");

  std::vector<std::string> header = {"Configuration"};
  for (int gb = 1; gb <= 5; ++gb) header.push_back(std::to_string(gb) + " GB");
  metrics::Table t(header);

  // --json-out=FILE: machine-readable copy of the table for the CI
  // benchmark-regression gate (ci/check_bench.py).
  bench::Json json("fig7_hdfs_write");

  double oib_ipoib_5g = 0, oib_rdma_5g = 0, oib_stream_5g = 0;
  for (const Config& c : configs) {
    workloads::HdfsWriteSetup setup;
    setup.stream.enabled = c.streamed;
    std::vector<std::string> row = {c.label};
    for (int gb = 1; gb <= 5; ++gb) {
      const double secs = workloads::run_hdfs_write(
          c.data, c.rpc, static_cast<std::uint64_t>(gb) << 30, setup);
      row.push_back(metrics::Table::num(secs, 2));
      json.row({{"config", c.label}, {"gb", gb}, {"secs", secs}});
      if (gb == 5 && c.data == DataMode::kRdma) {
        if (c.rpc == RpcMode::kSocketIPoIB) oib_ipoib_5g = secs;
        if (c.rpc == RpcMode::kRpcoIB && !c.streamed) oib_rdma_5g = secs;
        if (c.streamed) oib_stream_5g = secs;
      }
    }
    t.row(std::move(row));
  }
  t.print(std::cout);

  if (oib_ipoib_5g > 0) {
    std::cout << "\nHDFSoIB-RPCoIB vs HDFSoIB-RPC(IPoIB) at 5GB: "
              << metrics::Table::pct((1.0 - oib_rdma_5g / oib_ipoib_5g) * 100.0)
              << " (paper: ~10%)\n";
  }
  if (oib_stream_5g > 0 && oib_rdma_5g > 0) {
    std::cout << "streamed vs one-shot HDFSoIB-RPCoIB at 5GB: "
              << metrics::Table::num(oib_rdma_5g / oib_stream_5g, 2) << "x faster\n";
  }

  return bench::write_out(args.json_out, json.str()) ? 0 : 1;
}
