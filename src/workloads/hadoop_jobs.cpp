#include "workloads/hadoop_jobs.hpp"

#include <memory>

#include "mapred/mr_cluster.hpp"
#include "net/testbed.hpp"

namespace rpcoib::workloads {

using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Scheduler;
using sim::Task;

namespace {

std::vector<cluster::HostId> slave_ids(int n) {
  std::vector<cluster::HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(1 + i);
  return out;
}

/// RDMA RPC implies the native-IB data path in the paper's integrated
/// stack? No — Fig. 6 runs *stock* HDFS under both RPC modes; data stays
/// on IPoIB. Only the RPC transport changes between configurations.
hdfs::DataMode mr_data_mode() { return hdfs::DataMode::kSocketIPoIB; }

mapred::JobSpec randomwriter_spec(std::uint64_t data_bytes, int slaves) {
  mapred::JobSpec spec;
  spec.name = "randomwriter";
  // Hadoop's RandomWriter: one map per node by default, each writing
  // data/maps bytes straight to HDFS.
  spec.num_maps = slaves;
  spec.num_reduces = 0;
  spec.map_only = true;
  spec.input_bytes = 0;
  spec.map_direct_output_bytes = data_bytes / static_cast<std::uint64_t>(slaves);
  spec.map_cpu_us_per_mb = 350.0;  // random record generation
  spec.output_path = "/rw";
  return spec;
}

mapred::JobSpec sort_spec(std::uint64_t data_bytes) {
  mapred::JobSpec spec;
  spec.name = "sort";
  spec.num_maps = static_cast<int>(data_bytes / (64ULL << 20));  // one per 64MB block
  spec.num_reduces = 0;  // caller sets: 4 per slave in the paper
  spec.input_bytes = data_bytes;
  spec.map_output_ratio = 1.0;
  spec.reduce_output_ratio = 1.0;
  spec.map_cpu_us_per_mb = 900.0;    // record parse + partition + sort
  spec.reduce_cpu_us_per_mb = 700.0; // merge + write
  spec.output_path = "/sort-out";
  return spec;
}

struct MrStack {
  MrStack(Scheduler& s, RpcMode rpc_mode, int slaves, std::uint64_t seed,
          bool dn_disk_writes, const ChaosConfig* chaos = nullptr)
      : tb(s, make_cfg(slaves, seed, chaos)),
        engine(tb, make_engine_cfg(rpc_mode, chaos)),
        hdfs_cluster(engine, 0, slave_ids(slaves), mr_data_mode(),
                     make_hdfs_cfg(dn_disk_writes, chaos)),
        mr(engine, hdfs_cluster, 0, slave_ids(slaves), {}, make_jt_cfg(chaos)) {
    hdfs_cluster.start();
    mr.start();
  }
  static net::TestbedConfig make_cfg(int slaves, std::uint64_t seed,
                                     const ChaosConfig* chaos) {
    net::TestbedConfig cfg = Testbed::cluster_a(1 + slaves);
    cfg.seed = seed;
    if (chaos != nullptr) cfg.fault = chaos->fault;
    return cfg;
  }
  static EngineConfig make_engine_cfg(RpcMode rpc_mode, const ChaosConfig* chaos) {
    EngineConfig cfg = chaos != nullptr ? chaos->engine : EngineConfig{};
    cfg.mode = rpc_mode;
    return cfg;
  }
  static hdfs::HdfsConfig make_hdfs_cfg(bool dn_disk_writes, const ChaosConfig* chaos) {
    hdfs::HdfsConfig cfg;
    cfg.datanode_disk_writes = dn_disk_writes;
    if (chaos != nullptr) cfg.pipeline_retries = chaos->pipeline_retries;
    return cfg;
  }
  static mapred::JobTrackerConfig make_jt_cfg(const ChaosConfig* chaos) {
    mapred::JobTrackerConfig cfg;
    if (chaos != nullptr) cfg.tracker_expiry = chaos->tracker_expiry;
    return cfg;
  }
  ~MrStack() {
    mr.stop();
    hdfs_cluster.stop();
  }
  Testbed tb;
  RpcEngine engine;
  hdfs::HdfsCluster hdfs_cluster;
  mapred::MrCluster mr;
};

Task drive_jobs(MrStack& stack, std::vector<mapred::JobSpec> specs,
                std::vector<double>& out_secs) {
  std::unique_ptr<mapred::JobClient> client = stack.mr.make_client(stack.tb.host(0));
  for (const mapred::JobSpec& spec : specs) {
    const double secs = co_await client->run(spec);
    out_secs.push_back(secs);
  }
}

}  // namespace

SortResult run_randomwriter_sort(RpcMode rpc_mode, int slaves, std::uint64_t data_bytes,
                                 std::uint64_t seed, trace::TraceCollector* collector,
                                 const ChaosConfig* chaos) {
  Scheduler s;
  MrStack stack(s, rpc_mode, slaves, seed, /*dn_disk_writes=*/true, chaos);
  stack.tb.set_tracer(collector);

  mapred::JobSpec sort = sort_spec(data_bytes);
  sort.num_reduces = 4 * slaves;  // 4 reduce slots per host, as in the paper
  std::vector<double> secs;
  s.spawn(drive_jobs(stack, {randomwriter_spec(data_bytes, slaves), sort}, secs));
  s.run_until(sim::seconds(36000));
  s.drain_tasks();

  SortResult r;
  if (secs.size() == 2) {
    r.randomwriter_secs = secs[0];
    r.sort_secs = secs[1];
  }
  return r;
}

CloudBurstResult run_cloudburst(RpcMode rpc_mode, std::uint64_t seed) {
  Scheduler s;
  MrStack stack(s, rpc_mode, /*slaves=*/8, seed, /*dn_disk_writes=*/false);

  // Alignment: 240 maps / 48 reduces; seed-and-extend is compute-heavy
  // with modest data (read set + reference chunks).
  mapred::JobSpec alignment;
  alignment.name = "cloudburst-alignment";
  alignment.num_maps = 240;
  alignment.num_reduces = 48;
  alignment.input_bytes = 1536ULL << 20;
  alignment.map_output_ratio = 0.6;
  alignment.reduce_output_ratio = 0.5;
  // Seed-and-extend alignment is minutes of CPU per task over a few MB of
  // reads; calibrated so the Alignment job lands near the paper's ~150 s.
  alignment.map_cpu_us_per_mb = 4.5e6;
  alignment.reduce_cpu_us_per_mb = 1.1e6;
  alignment.output_path = "/cb-align";

  // Filtering: small 24/24 job over the alignment output.
  mapred::JobSpec filtering;
  filtering.name = "cloudburst-filtering";
  filtering.num_maps = 24;
  filtering.num_reduces = 24;
  filtering.input_bytes = 460ULL << 20;
  filtering.map_output_ratio = 0.5;
  filtering.reduce_output_ratio = 0.4;
  filtering.map_cpu_us_per_mb = 7.0e5;
  filtering.reduce_cpu_us_per_mb = 3.5e5;
  filtering.output_path = "/cb-filter";

  std::vector<double> secs;
  s.spawn(drive_jobs(stack, {alignment, filtering}, secs));
  s.run_until(sim::seconds(36000));
  s.drain_tasks();

  CloudBurstResult r;
  if (secs.size() == 2) {
    r.alignment_secs = secs[0];
    r.filtering_secs = secs[1];
    r.total_secs = secs[0] + secs[1];
  }
  return r;
}

double run_hdfs_write(hdfs::DataMode data_mode, RpcMode rpc_mode, std::uint64_t file_bytes,
                      std::uint64_t seed, trace::TraceCollector* collector) {
  return run_hdfs_write(data_mode, rpc_mode, file_bytes, HdfsWriteSetup{}, seed,
                        collector);
}

double run_hdfs_write(hdfs::DataMode data_mode, RpcMode rpc_mode, std::uint64_t file_bytes,
                      const HdfsWriteSetup& setup, std::uint64_t seed,
                      trace::TraceCollector* collector) {
  Scheduler s;
  // DataNodes + NameNode + client on separate nodes (Fig. 7 setup: 32 DNs).
  net::TestbedConfig cfg = Testbed::cluster_a(2 + setup.datanodes);
  cfg.seed = seed;
  Testbed tb(s, cfg);
  tb.set_tracer(collector);
  EngineConfig ec{.mode = rpc_mode};
  ec.stream = setup.stream;
  RpcEngine engine(tb, ec);
  std::vector<cluster::HostId> dns;
  for (int i = 2; i < 2 + setup.datanodes; ++i) dns.push_back(i);
  hdfs::HdfsConfig hcfg;
  if (setup.block_size != 0) hcfg.block_size = setup.block_size;
  if (setup.nn_syncs_per_block >= 0) hcfg.nn_syncs_per_block = setup.nn_syncs_per_block;
  hdfs::HdfsCluster cluster(engine, 0, dns, data_mode, hcfg);
  cluster.start();
  // Let registrations land before timing starts.
  s.run_until(sim::millis(500));

  double secs = 0;
  bool done = false;
  s.spawn([](Testbed& tbed, hdfs::HdfsCluster& hc, std::uint64_t bytes, double& out,
             bool& flag) -> Task {
    std::unique_ptr<hdfs::DFSClient> client = hc.make_client(tbed.host(1), "bench-writer");
    const sim::Time t0 = tbed.sched().now();
    co_await client->write_file("/bench/file", bytes);
    out = sim::to_sec(tbed.sched().now() - t0);
    flag = true;
  }(tb, cluster, file_bytes, secs, done));
  s.run_until(sim::seconds(36000));
  cluster.stop();
  s.drain_tasks();
  return done ? secs : -1;
}

HBaseRunResult run_hbase_ycsb(hbase::HBaseMode hbase_mode, RpcMode hadoop_rpc,
                              std::uint64_t record_count, std::uint64_t op_count,
                              double read_proportion, std::uint64_t seed) {
  Scheduler s;
  // 16 region servers (hosts 1..16, co-located with DataNodes), HMaster/
  // NameNode on host 0, 16 clients on hosts 17..32 (Fig. 8 setup).
  net::TestbedConfig cfg = Testbed::cluster_a(33);
  cfg.seed = seed;
  Testbed tb(s, cfg);
  RpcEngine hadoop_engine(tb, EngineConfig{.mode = hadoop_rpc});

  oib::RpcMode hbase_rpc = oib::RpcMode::kSocketIPoIB;
  switch (hbase_mode) {
    case hbase::HBaseMode::kSocket1GigE: hbase_rpc = oib::RpcMode::kSocket1GigE; break;
    case hbase::HBaseMode::kSocketIPoIB: hbase_rpc = oib::RpcMode::kSocketIPoIB; break;
    case hbase::HBaseMode::kRdma: hbase_rpc = oib::RpcMode::kRpcoIB; break;
  }
  RpcEngine hbase_engine(tb, EngineConfig{.mode = hbase_rpc});

  std::vector<cluster::HostId> rs_hosts;
  for (int i = 1; i <= 16; ++i) rs_hosts.push_back(i);
  hdfs::HdfsCluster hdfs_cluster(hadoop_engine, 0, rs_hosts, hdfs::DataMode::kSocketIPoIB);
  // The bench runs at 1/10th of the paper's record/operation counts (one
  // core drives the whole 33-node simulation); the memstore threshold is
  // scaled by the same factor so flush frequency per operation matches.
  hbase::HBaseConfig hb_cfg;
  hb_cfg.memstore_flush_bytes = 512 * 1024;
  hbase::HBaseCluster hbase_cluster(hbase_engine, hdfs_cluster, rs_hosts, hb_cfg);
  hdfs_cluster.start();
  hbase_cluster.start();
  s.run_until(sim::millis(500));

  std::vector<cluster::HostId> clients;
  for (int i = 17; i <= 32; ++i) clients.push_back(i);

  ycsb::WorkloadSpec spec;
  spec.record_count = record_count;
  spec.operation_count = op_count;
  spec.read_proportion = read_proportion;
  spec.num_clients = 16;
  spec.seed = seed;

  ycsb::WorkloadResult result;
  bool done = false;
  s.spawn([](RpcEngine& eng, hbase::HBaseCluster& hc, std::vector<cluster::HostId> hosts,
             ycsb::WorkloadSpec sp, ycsb::WorkloadResult& out, bool& flag) -> Task {
    out = co_await ycsb::run_workload(eng, hc, hosts, sp);
    flag = true;
  }(hbase_engine, hbase_cluster, clients, spec, result, done));
  s.run_until(sim::seconds(36000));
  hbase_cluster.stop();
  hdfs_cluster.stop();
  s.drain_tasks();

  HBaseRunResult r;
  r.throughput_kops = done ? result.throughput_kops : 0;
  return r;
}

}  // namespace rpcoib::workloads
