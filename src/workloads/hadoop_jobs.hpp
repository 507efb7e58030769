// Paper workload drivers: RandomWriter, Sort, CloudBurst (Fig. 6), the
// HDFS Write microbenchmark (Fig. 7) and the YCSB-on-HBase matrix (Fig. 8).
//
// Each driver stands up the paper's deployment shape (master node running
// NameNode+JobTracker, slave nodes running DataNode+TaskTracker /
// RegionServer) on a simulated testbed and reports job execution times or
// throughput for a given transport configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hbase/hbase.hpp"
#include "hdfs/data_transfer.hpp"
#include "net/fault.hpp"
#include "rpcoib/engine.hpp"
#include "trace/trace.hpp"
#include "ycsb/ycsb.hpp"

namespace rpcoib::workloads {

struct SortResult {
  double randomwriter_secs = 0;
  double sort_secs = 0;
};

/// Fault-injection knobs for the MapReduce drivers: a seeded FaultPlan on
/// the fabric plus the recovery mechanisms that make jobs survive it.
/// Default-constructed = no faults, no retries (legacy behavior).
struct ChaosConfig {
  std::shared_ptr<net::FaultPlan> fault;  // installed on the testbed fabric
  oib::EngineConfig engine{};             // every RPC endpoint; `mode` comes from the run_* call
  sim::Dur tracker_expiry = 0;            // JobTracker task re-execution
  int pipeline_retries = 0;               // DFSClient write-pipeline recovery
};

/// Fig. 6(a): RandomWriter writes `data_bytes` of random records via
/// map-only tasks, then Sort runs over the generated data. 1 master +
/// `slaves` slaves, 8 map / 4 reduce slots per node (the paper's config).
SortResult run_randomwriter_sort(oib::RpcMode rpc_mode, int slaves,
                                 std::uint64_t data_bytes, std::uint64_t seed = 7,
                                 trace::TraceCollector* collector = nullptr,
                                 const ChaosConfig* chaos = nullptr);

struct CloudBurstResult {
  double alignment_secs = 0;
  double filtering_secs = 0;
  double total_secs = 0;
};

/// Fig. 6(b): CloudBurst short-read mapping — Alignment (240 maps /
/// 48 reduces, compute-heavy) followed by Filtering (24 / 24, small),
/// on 9 nodes (1 master + 8 slaves).
CloudBurstResult run_cloudburst(oib::RpcMode rpc_mode, std::uint64_t seed = 7);

/// Fig. 7: single-client HDFS Write of `file_bytes` with 32 DataNodes,
/// replication 3; independent data-path and RPC transports.
double run_hdfs_write(hdfs::DataMode data_mode, oib::RpcMode rpc_mode,
                      std::uint64_t file_bytes, std::uint64_t seed = 7,
                      trace::TraceCollector* collector = nullptr);

/// Deployment overrides for run_hdfs_write: bench_stream_bw shrinks the
/// cluster to a single replica pipeline and strips the NameNode chatter to
/// isolate data-path bandwidth; fig7's streamed row turns the bulk
/// streaming subsystem on over the full 32-DataNode deployment.
struct HdfsWriteSetup {
  int datanodes = 32;
  std::uint64_t block_size = 0;        // 0 = HdfsConfig default (64 MB)
  int nn_syncs_per_block = -1;         // <0 = HdfsConfig default
  oib::stream::StreamConfig stream{};  // disabled = legacy one-shot pipeline
};

double run_hdfs_write(hdfs::DataMode data_mode, oib::RpcMode rpc_mode,
                      std::uint64_t file_bytes, const HdfsWriteSetup& setup,
                      std::uint64_t seed = 7,
                      trace::TraceCollector* collector = nullptr);

struct HBaseRunResult {
  double throughput_kops = 0;
};

/// Fig. 8: YCSB over HBase — 16 region servers, 16 clients, 1 KB records,
/// `record_count` loaded then `op_count` operations at the given mix.
HBaseRunResult run_hbase_ycsb(hbase::HBaseMode hbase_mode, oib::RpcMode hadoop_rpc,
                              std::uint64_t record_count, std::uint64_t op_count,
                              double read_proportion, std::uint64_t seed = 7);

}  // namespace rpcoib::workloads
