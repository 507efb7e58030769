// Figure 5(a): RPC ping-pong latency, single server / single client,
// payload sizes 1 B - 4 KB, Cluster B.
//
// Paper endpoints: RPCoIB 39 us @1 B and ~52 us @4 KB; 42-49% below
// RPC-10GigE and 46-50% below RPC-IPoIB across the sweep; 1.42-2.48x
// speedup over RPC-1GigE (1GigE shown here for completeness although the
// paper omits it from the figure).
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "workloads/pingpong.hpp"

int main(int argc, char** argv) {
  using namespace rpcoib;
  using oib::RpcMode;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut | bench::kTraceOut);

  const std::vector<std::size_t> payloads = {1, 4, 16, 64, 256, 1024, 4096};

  metrics::print_banner(std::cout, "Figure 5(a): Ping-Pong Latency, Cluster B (us)");

  std::vector<workloads::LatencyResult> gige =
      workloads::run_latency(RpcMode::kSocket1GigE, payloads);
  std::vector<workloads::LatencyResult> tengige =
      workloads::run_latency(RpcMode::kSocket10GigE, payloads);
  std::vector<workloads::LatencyResult> ipoib =
      workloads::run_latency(RpcMode::kSocketIPoIB, payloads);
  std::vector<workloads::LatencyResult> rpcoib =
      workloads::run_latency(RpcMode::kRpcoIB, payloads);

  metrics::Table t({"Payload (B)", "RPC-1GigE", "RPC-10GigE", "RPC-IPoIB(32Gbps)",
                    "RPCoIB(32Gbps)", "vs 10GigE", "vs IPoIB", "vs 1GigE"});
  // --json-out=FILE: machine-readable copy of the table for the CI
  // benchmark-regression gate (ci/check_bench.py).
  bench::Json json("fig5_latency");
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const double g1 = gige[i].avg_us;
    const double g10 = tengige[i].avg_us;
    const double ipo = ipoib[i].avg_us;
    const double rdm = rpcoib[i].avg_us;
    t.row({std::to_string(payloads[i]), metrics::Table::num(g1, 1), metrics::Table::num(g10, 1),
           metrics::Table::num(ipo, 1), metrics::Table::num(rdm, 1),
           metrics::Table::pct((1.0 - rdm / g10) * 100.0),
           metrics::Table::pct((1.0 - rdm / ipo) * 100.0),
           metrics::Table::num(g1 / rdm, 2) + "x"});
    json.row({{"bytes", payloads[i]}, {"gige_us", g1}, {"tengige_us", g10},
              {"ipoib_us", ipo}, {"rpcoib_us", rdm}});
  }
  t.print(std::cout);

  std::cout << "\nPaper: RPCoIB 39us @1B, ~52us @4KB; 42-49% vs 10GigE; 46-50% vs IPoIB;\n"
               "       1.42-2.48x speedup vs 1GigE.\n";

  if (!bench::write_out(args.json_out, json.str())) return 1;

  // --trace-out=FILE: re-run the IPoIB and RPCoIB sweeps with tracing on
  // and print where each ping-pong spends its time.
  if (!args.trace_out.empty()) {
    std::cout << "\n";
    bench::traced_runs(args.trace_out, "RPC", [&](RpcMode mode, trace::TraceCollector& col) {
      workloads::run_latency(mode, payloads, 4, 16, 1, &col);
    });
  }
  return 0;
}
