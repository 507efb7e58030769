// Bulk-streaming bandwidth: pipelined chunked streaming vs the one-shot
// rendezvous block pipeline.
//
// A single client writes a 64 MB file in 4 MB blocks through a 3-DataNode
// replication pipeline on the RDMA data path, with NameNode chatter
// stripped (nn_syncs_per_block=0) so the measurement isolates the data
// path. The one-shot baseline stores-and-forwards each whole block per
// hop (~3x the wire time of one hop); the streamed runs sweep chunk size
// x ring depth, overlapping the hops chunk-by-chunk.
//
// Expected: streamed beats one-shot by >=1.3x at the default geometry
// (256 KB chunks, ring depth 4); depth 1 serializes the ring and gives
// most of the win back.
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "workloads/hadoop_jobs.hpp"

namespace {
constexpr std::uint64_t kFileBytes = 64ULL << 20;
constexpr std::uint64_t kBlockBytes = 4ULL << 20;

double mib_per_sec(double secs) {
  return secs > 0 ? static_cast<double>(kFileBytes >> 20) / secs : 0;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace rpcoib;
  using hdfs::DataMode;
  using oib::RpcMode;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut);

  workloads::HdfsWriteSetup setup;
  setup.datanodes = 3;
  setup.block_size = kBlockBytes;
  setup.nn_syncs_per_block = 0;

  metrics::print_banner(
      std::cout, "Stream bandwidth: 64 MB / 4 MB blocks, 3-DataNode pipeline, HDFSoIB");

  const double oneshot = workloads::run_hdfs_write(DataMode::kRdma, RpcMode::kRpcoIB,
                                                   kFileBytes, setup);
  std::cout << "one-shot rendezvous: " << metrics::Table::num(oneshot, 3) << " s ("
            << metrics::Table::num(mib_per_sec(oneshot), 1) << " MiB/s)\n\n";

  // --json-out=FILE: machine-readable copy for the CI benchmark-regression
  // gate (ci/check_bench.py): bandwidth floor + pipeline-overlap ratio.
  bench::Json json("stream_bw");
  json.scalar({"payload_mb", kBlockBytes >> 20});
  json.scalar({"oneshot_secs", oneshot});

  metrics::Table t({"Chunk", "Depth", "Time (s)", "MiB/s", "vs one-shot"});
  for (std::size_t chunk_kb : {64, 256, 1024}) {
    for (std::size_t depth : {1, 2, 4, 8}) {
      setup.stream.enabled = true;
      setup.stream.chunk_size = chunk_kb << 10;
      setup.stream.ring_depth = depth;
      const double secs = workloads::run_hdfs_write(DataMode::kRdma, RpcMode::kRpcoIB,
                                                    kFileBytes, setup);
      const double speedup = secs > 0 ? oneshot / secs : 0;
      json.row({{"chunk_kb", chunk_kb}, {"depth", depth}, {"secs", secs},
                {"mib_s", mib_per_sec(secs)}, {"speedup", speedup}});
      t.row({std::to_string(chunk_kb) + " KB", std::to_string(depth),
             metrics::Table::num(secs, 3), metrics::Table::num(mib_per_sec(secs), 1),
             metrics::Table::num(speedup, 2) + "x"});
    }
  }
  t.print(std::cout);

  return bench::write_out(args.json_out, json.str()) ? 0 : 1;
}
