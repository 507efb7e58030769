// Mini-HBase: HMaster, HRegionServers, and the HTable client.
//
// Reproduces the structure the paper's Fig. 8 experiments exercise:
//  * clients issue Get/Put to region servers over HBase's own RPC channel
//    — stock socket transport, or RDMA ("HBaseoIB", [7]),
//  * every Put appends to a WAL whose blocks live in HDFS (pipeline
//    traffic + NameNode RPCs),
//  * the memstore flushes to an HFile in HDFS when it fills — the HDFS
//    create/addBlock/complete traffic that makes the 50/50 mix workload so
//    sensitive to Hadoop RPC performance (the paper's +24%),
//  * Get misses read HFile blocks, occasionally re-resolving block
//    locations at the NameNode.
//
// The Hadoop-RPC transport (NameNode traffic) and the HBase data transport
// are configured independently, exactly like the paper's config matrix.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hbase/hmaster.hpp"
#include "hdfs/hdfs_cluster.hpp"
#include "sim/sync.hpp"
#include "trace/context.hpp"

namespace rpcoib::hbase {

inline constexpr const char* kRegionProtocol = "hbase.HRegionInterface";

/// HBase's client<->regionserver transport (the HBaseoIB axis).
enum class HBaseMode {
  kSocket1GigE,
  kSocketIPoIB,
  kRdma,  // HBaseoIB
};

inline const char* hbase_mode_name(HBaseMode m) {
  switch (m) {
    case HBaseMode::kSocket1GigE: return "HBase(1GigE)";
    case HBaseMode::kSocketIPoIB: return "HBase(IPoIB)";
    case HBaseMode::kRdma: return "HBaseoIB";
  }
  return "?";
}

struct HBaseConfig {
  std::size_t record_bytes = 1024;  // YCSB record size in the paper
  /// Memstore flush threshold. While a flush is in progress the region
  /// blocks updates (hbase.hregion.memstore.block.multiplier semantics),
  /// so the flush's HDFS write — NameNode RPCs included — sits on the put
  /// path, which is what makes Fig. 8's put/mix workloads sensitive to
  /// Hadoop RPC performance.
  std::uint64_t memstore_flush_bytes = 64ULL << 20;  // hbase default; benches scale it
  /// Puts per WAL group-commit: the batch leader synchronously drives the
  /// pipeline append plus a NameNode lease/allocation call.
  int wal_batch = 4;
  /// Get misses that trigger a NameNode getBlockLocations (HFile block
  /// index re-resolution rate ~ 1/N).
  int get_nn_interval = 10;
  std::uint16_t rs_port = 60020;
};

struct PutParam final : rpc::Message<PutParam> {
  std::string key;
  net::Bytes value;
  template <typename IO>
  void fields(IO& io) {
    io.text(key).bytes(value);
  }
};

struct GetParam final : rpc::Message<GetParam> {
  std::string key;
  template <typename IO>
  void fields(IO& io) {
    io.text(key);
  }
  /// Point gets are the region server's hot read path (YCSB zipfian):
  /// eligible for the one-sided read plane, keyed by row key.
  std::optional<std::string> onesided_key(const std::string& protocol,
                                          const std::string& method) const override {
    if (protocol == kRegionProtocol && method == "get") return key;
    return std::nullopt;
  }
};

struct GetResult final : rpc::Message<GetResult> {
  bool found = false;
  net::Bytes value;
  template <typename IO>
  void fields(IO& io) {
    io.boolean(found);
    if (found) io.bytes(value);
  }
};

/// One region server: Get/Put over the HBase channel, WAL + memstore +
/// flush over HDFS.
class RegionServer {
 public:
  RegionServer(cluster::Host& host, oib::RpcEngine& hbase_engine,
               hdfs::HdfsCluster& hdfs, HBaseConfig cfg, int index);
  ~RegionServer();
  RegionServer(const RegionServer&) = delete;
  RegionServer& operator=(const RegionServer&) = delete;

  /// Start serving; if a master address is given, report in over
  /// HMasterInterface (regionServerStartup).
  void start(net::Address master_addr = {-1, 0});
  void stop();

  net::Address addr() const { return {host_.id(), cfg_.rs_port}; }
  std::uint64_t puts() const { return puts_; }
  std::uint64_t gets() const { return gets_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  void register_handlers();
  sim::Co<void> append_wal(std::size_t bytes, trace::TraceContext ctx = {});
  sim::Task flush_memstore(std::uint64_t bytes, trace::TraceContext ctx = {});
  sim::Task report_to_master(net::Address master_addr);

  std::unique_ptr<sim::SimEvent> flush_done_;

  cluster::Host& host_;
  oib::RpcEngine& hbase_engine_;
  hdfs::HdfsCluster& hdfs_;
  HBaseConfig cfg_;
  int index_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::unique_ptr<hdfs::DFSClient> dfs_;

  std::map<std::string, std::uint32_t> memstore_;  // key -> value size
  std::map<std::string, std::uint32_t> store_;     // flushed keys ("HFiles")
  std::uint64_t memstore_bytes_ = 0;
  std::uint64_t wal_pending_puts_ = 0;
  std::uint64_t wal_block_fill_ = 0;
  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t get_misses_ = 0;
  std::uint64_t flushes_ = 0;
  int flush_seq_ = 0;
  bool flushing_ = false;
};

/// The client library: routes keys to region servers by hash. The region
/// map comes from the HMaster on first use (real discovery RPCs), or can
/// be injected directly for tests.
class HTable {
 public:
  /// Master-based discovery (the normal path).
  HTable(cluster::Host& host, oib::RpcEngine& hbase_engine, net::Address master_addr);
  /// Direct injection (tests / static deployments).
  HTable(cluster::Host& host, oib::RpcEngine& hbase_engine,
         std::vector<net::Address> regions);

  sim::Co<void> put(const std::string& key, net::ByteSpan value);
  sim::Co<GetResult> get(const std::string& key);

 private:
  sim::Co<void> ensure_regions();
  net::Address region_for(const std::string& key) const;

  cluster::Host& host_;
  std::unique_ptr<rpc::RpcClient> rpc_;
  net::Address master_addr_{-1, 0};
  std::vector<net::Address> regions_;
};

/// Cluster wiring: HMaster (on the master node, like the paper's setup)
/// plus N region servers that report to it at startup.
class HBaseCluster {
 public:
  HBaseCluster(oib::RpcEngine& hbase_engine, hdfs::HdfsCluster& hdfs,
               std::vector<cluster::HostId> rs_hosts, HBaseConfig cfg = {});

  void start();
  void stop();

  /// Clients discover regions through the HMaster.
  std::unique_ptr<HTable> make_table(cluster::Host& host);
  std::vector<net::Address> region_addrs() const;
  RegionServer& region(std::size_t i) { return *regions_[i]; }
  std::size_t num_regions() const { return regions_.size(); }
  HMaster& master() { return *master_; }

 private:
  oib::RpcEngine& hbase_engine_;
  std::unique_ptr<HMaster> master_;
  std::vector<std::unique_ptr<RegionServer>> regions_;
};

}  // namespace rpcoib::hbase
