// Figure 8: HBase throughput under YCSB — 100% Get, 100% Put, 50/50 mix —
// for five configurations crossing the HBase transport with Hadoop RPC.
//
// Paper setup: 16 region servers, 16 clients, 1 KB records, 100K-300K
// records, 640K operations. This bench runs at 1/10th of those counts
// (one core simulates all 33 nodes); the memstore flush threshold is
// scaled identically so per-operation flush/WAL rates match. Paper:
// HBaseoIB-RPCoIB beats HBaseoIB-RPC(IPoIB) by +16% (Put), +6% (Get),
// +24% (mix).
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "workloads/hadoop_jobs.hpp"

int main(int argc, char** argv) {
  using namespace rpcoib;
  using hbase::HBaseMode;
  using oib::RpcMode;
  // The scale divisor (default 10) divides the paper's operation and
  // record counts; the largest leaves one record in the smallest table.
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut, /*max_scale=*/100000);
  const std::uint64_t scale = args.scale > 0 ? static_cast<std::uint64_t>(args.scale) : 10;
  const std::uint64_t ops = 640000 / scale;

  struct Config {
    HBaseMode hbase;
    RpcMode rpc;
    const char* label;
  };
  const std::vector<Config> configs = {
      {HBaseMode::kSocket1GigE, RpcMode::kSocket1GigE, "HBase(1GigE)-RPC(1GigE)"},
      {HBaseMode::kRdma, RpcMode::kSocket1GigE, "HBaseoIB-RPC(1GigE)"},
      {HBaseMode::kSocketIPoIB, RpcMode::kSocketIPoIB, "HBase(IPoIB)-RPC(IPoIB)"},
      {HBaseMode::kRdma, RpcMode::kSocketIPoIB, "HBaseoIB-RPC(IPoIB)"},
      {HBaseMode::kRdma, RpcMode::kRpcoIB, "HBaseoIB-RPCoIB"},
  };
  struct Mix {
    double read_prop;
    const char* name;
    const char* slug;  // stable key for the JSON rows / CI gate
    const char* paper;
  };
  const std::vector<Mix> mixes = {{1.0, "100% Get", "get", "+6%"},
                                  {0.0, "100% Put", "put", "+16%"},
                                  {0.5, "50% Get / 50% Put", "mixed", "+24%"}};
  const std::vector<std::uint64_t> record_counts = {100000 / scale, 200000 / scale,
                                                    300000 / scale};

  // --json-out=FILE: machine-readable copy of the tables for the CI
  // benchmark-regression gate (ci/check_bench.py).
  bench::Json json("fig8_hbase");
  json.scalar({"scale", scale});

  for (const Mix& mix : mixes) {
    metrics::print_banner(std::cout, std::string("Figure 8: YCSB ") + mix.name +
                                         " throughput (Kops/sec), ops=" +
                                         std::to_string(ops));
    std::vector<std::string> header = {"Configuration"};
    for (std::uint64_t rc : record_counts) header.push_back(std::to_string(rc) + " recs");
    metrics::Table t(header);
    double base = 0, best = 0;
    for (const Config& c : configs) {
      std::vector<std::string> row = {c.label};
      for (std::uint64_t rc : record_counts) {
        const workloads::HBaseRunResult r =
            workloads::run_hbase_ycsb(c.hbase, c.rpc, rc, ops, mix.read_prop);
        row.push_back(metrics::Table::num(r.throughput_kops, 1));
        json.row({{"mix", mix.slug}, {"config", c.label}, {"records", rc},
                  {"kops", r.throughput_kops}});
        if (rc == record_counts.back()) {
          if (c.hbase == HBaseMode::kRdma && c.rpc == RpcMode::kSocketIPoIB) {
            base = r.throughput_kops;
          }
          if (c.hbase == HBaseMode::kRdma && c.rpc == RpcMode::kRpcoIB) {
            best = r.throughput_kops;
          }
        }
      }
      t.row(std::move(row));
    }
    t.print(std::cout);
    if (base > 0) {
      std::cout << "HBaseoIB-RPCoIB vs HBaseoIB-RPC(IPoIB): "
                << metrics::Table::pct((best / base - 1.0) * 100.0) << " (paper: " << mix.paper
                << ")\n";
    }
  }

  return bench::write_out(args.json_out, json.str()) ? 0 : 1;
}
