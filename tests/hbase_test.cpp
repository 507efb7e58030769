// HBase + YCSB tests: put/get round trips, memstore/flush behaviour, WAL
// HDFS traffic, YCSB load/run phases, config-matrix sanity.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hbase/hbase.hpp"
#include "net/testbed.hpp"
#include "ycsb/ycsb.hpp"

namespace rpcoib::hbase {
namespace {

using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Scheduler;
using sim::Task;

RpcMode hbase_rpc_mode(HBaseMode m) {
  switch (m) {
    case HBaseMode::kSocket1GigE: return RpcMode::kSocket1GigE;
    case HBaseMode::kSocketIPoIB: return RpcMode::kSocketIPoIB;
    case HBaseMode::kRdma: return RpcMode::kRpcoIB;
  }
  return RpcMode::kSocketIPoIB;
}

// Host 0: NameNode; hosts 1..4: DataNode + RegionServer; host 5: client.
struct Fixture {
  Fixture(Scheduler& s, RpcMode hadoop_rpc = RpcMode::kSocketIPoIB,
          HBaseMode hbase_mode = HBaseMode::kSocketIPoIB, HBaseConfig cfg = small_cfg())
      : tb(s, Testbed::cluster_a(6)),
        hadoop_engine(tb, EngineConfig{.mode = hadoop_rpc}),
        hbase_engine(tb, EngineConfig{.mode = hbase_rpc_mode(hbase_mode)}),
        hdfs_cluster(hadoop_engine, 0, {1, 2, 3, 4}, hdfs::DataMode::kSocketIPoIB,
                     hdfs_cfg()),
        hbase_cluster(hbase_engine, hdfs_cluster, {1, 2, 3, 4}, cfg) {
    hdfs_cluster.start();
    hbase_cluster.start();
  }
  static HBaseConfig small_cfg() {
    HBaseConfig cfg;
    cfg.memstore_flush_bytes = 256 * 1024;  // flush often at test scale
    cfg.wal_batch = 8;
    return cfg;
  }
  static hdfs::HdfsConfig hdfs_cfg() {
    hdfs::HdfsConfig cfg;
    cfg.block_size = 4 << 20;
    return cfg;
  }
  ~Fixture() {
    hbase_cluster.stop();
    hdfs_cluster.stop();
    tb.sched().drain_tasks();
  }
  Testbed tb;
  RpcEngine hadoop_engine;
  RpcEngine hbase_engine;
  hdfs::HdfsCluster hdfs_cluster;
  HBaseCluster hbase_cluster;
};

Task put_get(Fixture& f, bool& ok) {
  std::unique_ptr<HTable> t = f.hbase_cluster.make_table(f.tb.host(5));
  net::Bytes val(1024, net::Byte{7});
  co_await t->put("user100", val);
  co_await t->put("user200", val);
  GetResult r1 = co_await t->get("user100");
  GetResult missing = co_await t->get("no-such-key");
  ok = r1.found && r1.value.size() == 1024 && !missing.found;
}

TEST(HBase, PutThenGetRoundTrips) {
  Scheduler s;
  Fixture f(s);
  bool ok = false;
  s.spawn(put_get(f, ok));
  s.run_until(sim::seconds(60));
  EXPECT_TRUE(ok);
}

Task put_many(Fixture& f, int n, bool& ok) {
  std::unique_ptr<HTable> t = f.hbase_cluster.make_table(f.tb.host(5));
  net::Bytes val(1024, net::Byte{9});
  for (int i = 0; i < n; ++i) {
    co_await t->put(ycsb::ycsb_key(static_cast<std::uint64_t>(i)), val);
  }
  // Reads after a flush must still find the records (HFile path).
  GetResult r = co_await t->get(ycsb::ycsb_key(0));
  ok = r.found;
}

TEST(HBase, FlushMovesMemstoreToHdfsAndGetsStillHit) {
  Scheduler s;
  Fixture f(s);
  bool ok = false;
  // 1500 x 1KB > 4 region x 256KB flush thresholds: several flushes.
  s.spawn(put_many(f, 1500, ok));
  s.run_until(sim::seconds(600));
  EXPECT_TRUE(ok);
  std::uint64_t flushes = 0, puts = 0;
  for (std::size_t i = 0; i < f.hbase_cluster.num_regions(); ++i) {
    flushes += f.hbase_cluster.region(i).flushes();
    puts += f.hbase_cluster.region(i).puts();
  }
  EXPECT_EQ(puts, 1500u);
  EXPECT_GT(flushes, 0u);
  // Flushed HFiles exist in HDFS.
  EXPECT_GT(f.hdfs_cluster.namenode().num_files(), 0u);
}

Task put_flush_put(Fixture& f, std::size_t& flushed_a, std::size_t& fresh_a,
                   std::size_t& flushed_b, bool& done) {
  std::unique_ptr<HTable> t = f.hbase_cluster.make_table(f.tb.host(5));
  const std::string a = "row-a", b = "row-b";
  const net::Bytes big(3000, net::Byte{1}), small(700, net::Byte{2});
  // Each 3000-byte Put reaches the flush threshold on its own.
  co_await t->put(b, big);
  co_await t->put(a, big);
  const GetResult r1 = co_await t->get(a);
  co_await t->put(a, small);
  const GetResult r2 = co_await t->get(a);
  const GetResult r3 = co_await t->get(b);
  flushed_a = r1.found ? r1.value.size() : 0;
  fresh_a = r2.found ? r2.value.size() : 0;
  flushed_b = r3.found ? r3.value.size() : 0;
  done = true;
}

// A key re-Put after a flush lives in both stores: the memstore's newer
// size wins, and a key that was only flushed still hits.
TEST(HBase, MemstoreShadowsFlushedStore) {
  Scheduler s;
  HBaseConfig cfg = Fixture::small_cfg();
  cfg.memstore_flush_bytes = 3000;
  Fixture f(s, RpcMode::kSocketIPoIB, HBaseMode::kSocketIPoIB, cfg);
  std::size_t flushed_a = 0, fresh_a = 0, flushed_b = 0;
  bool done = false;
  s.spawn(put_flush_put(f, flushed_a, fresh_a, flushed_b, done));
  s.run_until(sim::seconds(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(flushed_a, 3000u);
  EXPECT_EQ(fresh_a, 700u);
  EXPECT_EQ(flushed_b, 3000u);
  std::uint64_t flushes = 0;
  for (std::size_t i = 0; i < f.hbase_cluster.num_regions(); ++i) {
    flushes += f.hbase_cluster.region(i).flushes();
  }
  EXPECT_EQ(flushes, 2u);
}

Task run_ycsb(Fixture& f, ycsb::WorkloadSpec spec, ycsb::WorkloadResult& out) {
  const std::vector<cluster::HostId> client_hosts{5};
  out = co_await ycsb::run_workload(f.hbase_engine, f.hbase_cluster, client_hosts, spec);
}

TEST(Ycsb, MixWorkloadRunsAndReportsThroughput) {
  Scheduler s;
  Fixture f(s);
  ycsb::WorkloadSpec spec;
  spec.record_count = 500;
  spec.operation_count = 1000;
  spec.read_proportion = 0.5;
  spec.num_clients = 4;
  ycsb::WorkloadResult r;
  s.spawn(run_ycsb(f, spec, r));
  s.run_until(sim::seconds(600));
  EXPECT_GT(r.throughput_kops, 0.0);
  EXPECT_EQ(r.reads + r.writes, 1000u);
  // Zipfian + full load phase: reads nearly always hit.
  EXPECT_GT(r.read_hits * 10, r.reads * 9);
  EXPECT_GT(r.load_secs, 0.0);
}

TEST(Ycsb, ReadOnlyAndWriteOnlyMixes) {
  for (double rp : {1.0, 0.0}) {
    Scheduler s;
    Fixture f(s);
    ycsb::WorkloadSpec spec;
    spec.record_count = 300;
    spec.operation_count = 600;
    spec.read_proportion = rp;
    spec.num_clients = 2;
    ycsb::WorkloadResult r;
    s.spawn(run_ycsb(f, spec, r));
    s.run_until(sim::seconds(600));
    if (rp == 1.0) {
      EXPECT_EQ(r.writes, 0u);
      EXPECT_EQ(r.reads, 600u);
    } else {
      EXPECT_EQ(r.reads, 0u);
      EXPECT_EQ(r.writes, 600u);
    }
  }
}

TEST(HBase, AllConfigMatrixModesWork) {
  for (HBaseMode hbase_mode :
       {HBaseMode::kSocket1GigE, HBaseMode::kSocketIPoIB, HBaseMode::kRdma}) {
    for (RpcMode hadoop_rpc : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
      Scheduler s;
      Fixture f(s, hadoop_rpc, hbase_mode);
      bool ok = false;
      s.spawn(put_get(f, ok));
      s.run_until(sim::seconds(120));
      EXPECT_TRUE(ok) << hbase_mode_name(hbase_mode) << "-"
                      << oib::rpc_mode_name(hadoop_rpc);
    }
  }
}

TEST(HMaster, RegionServersRegisterAndClientsDiscover) {
  Scheduler s;
  Fixture f(s);
  s.run_until(sim::seconds(2));
  EXPECT_EQ(f.hbase_cluster.master().registered_regions(), 4u);
  // A fresh client routes purely via master discovery.
  bool ok = false;
  s.spawn(put_get(f, ok));
  s.run_until(sim::seconds(60));
  EXPECT_TRUE(ok);
}

TEST(HMaster, ClientWaitsUntilAllRegionsReport) {
  // Construct the cluster but delay startup: a client issued immediately
  // must block on discovery, then succeed once servers report.
  Scheduler s;
  Fixture f(s);  // start() already called; discovery completes quickly
  bool ok = false;
  s.spawn(put_get(f, ok));  // races registration at t=0
  s.run_until(sim::seconds(60));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace rpcoib::hbase
