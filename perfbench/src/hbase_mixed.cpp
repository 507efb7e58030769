// hbase_mixed: closed-loop YCSB workload A (50% Get, 50% Put) on HBase.
//
// 16 region servers co-located with DataNodes (hosts 1-16 of Cluster A),
// HMaster and NameNode on host 0, 16 client threads on hosts 17-32, each
// with its own HTable. Get and Put ride IPoIB sockets; the NameNode calls
// behind WAL group commit and memstore flush ride RPCoIB and HDFS data
// rides IPoIB sockets. Keys are Zipfian over the loaded records. Record
// values are 1 KB on average, drawn uniformly from 512-1536 B per write
// (YCSB's uniform field-length option), so op latencies spread instead of
// piling onto one value. The memstore flush threshold is scaled to 512 KB
// as in the fig8 bench. The load phase is set-up, not measured.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hbase/hbase.hpp"
#include "layers.hpp"
#include "net/testbed.hpp"
#include "rpcoib/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace perfbench {

namespace {

namespace hbase = rpcoib::hbase;
namespace hdfs = rpcoib::hdfs;
namespace oib = rpcoib::oib;
namespace rpc = rpcoib::rpc;
namespace sim = rpcoib::sim;
namespace trace = rpcoib::trace;

constexpr int kClients = 16;
constexpr int kRegions = 16;
constexpr std::uint64_t kRecords = 30000;
constexpr std::size_t kOpsPerClient = 4000;  // 64,000 ops in all
constexpr std::size_t kRecordBytes = 1024;  // mean value size
constexpr std::int64_t kMinValue = 512;
constexpr std::int64_t kMaxValue = 1536;

struct KvOp {
  bool get = false;
  std::uint32_t key = 0;
  std::uint16_t value_bytes = 0;  // Put only
};

struct Inputs {
  std::vector<std::uint16_t> load_bytes;  // value size of each loaded record
  std::vector<std::vector<KvOp>> per_client;
};

Inputs generate(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x4842);
  sim::ZipfianGenerator zipf(kRecords);
  Inputs in;
  for (std::uint64_t k = 0; k < kRecords; ++k) {
    in.load_bytes.push_back(static_cast<std::uint16_t>(rng.next_range(kMinValue, kMaxValue)));
  }
  in.per_client.resize(kClients);
  for (auto& ops : in.per_client) {
    for (std::size_t i = 0; i < kOpsPerClient; ++i) {
      KvOp op;
      op.key = static_cast<std::uint32_t>(zipf.next(rng));
      op.get = rng.next_double() < 0.5;
      if (!op.get) {
        op.value_bytes = static_cast<std::uint16_t>(rng.next_range(kMinValue, kMaxValue));
      }
      ops.push_back(op);
    }
  }
  return in;
}

std::string record_key(std::uint64_t i) { return "user" + std::to_string(1000000000 + i); }

struct Ctx {
  sim::Scheduler& s;
  std::vector<std::unique_ptr<hbase::HTable>>& tables;
  const Inputs& in;
  trace::TraceCollector* tr;
  bool inject_mismatch;
  int running = 0;
  Time last_done = 0;
  std::vector<std::vector<Dur>> lat{};  // per client, per op; kFailed on failure
  std::vector<std::vector<trace::SpanId>> roots{};
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  // Every value size written to each key so far (load, then each Put as
  // it is issued): a Get must return one of them.
  std::vector<std::vector<std::uint16_t>> written{};
  double payload_bytes = 0;
  std::string first_error{};
};

sim::Task load_client(Ctx& c, int ci) {
  hbase::HTable& table = *c.tables[static_cast<std::size_t>(ci)];
  const std::uint64_t per = kRecords / kClients;
  const std::uint64_t first = per * static_cast<std::uint64_t>(ci);
  const std::uint64_t last = ci == kClients - 1 ? kRecords : first + per;
  for (std::uint64_t k = first; k < last; ++k) {
    const std::string key = record_key(k);
    const rpcoib::net::Bytes value(c.in.load_bytes[k], rpcoib::net::Byte{0x4C});
    c.written[k].push_back(c.in.load_bytes[k]);
    co_await table.put(key, value);
  }
  --c.running;
}

sim::Task client_loop(Ctx& c, int ci) {
  hbase::HTable& table = *c.tables[static_cast<std::size_t>(ci)];
  const std::vector<KvOp>& ops = c.in.per_client[static_cast<std::size_t>(ci)];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const KvOp& op = ops[i];
    const std::string key = record_key(op.key);
    const Time start = c.s.now();
    const trace::SpanId root =
        open_root(c.tr, op.get ? "bench.get" : "bench.put", 1 + kRegions + ci);
    std::string error;
    std::size_t bytes = op.value_bytes;
    try {
      if (op.get) {
        const hbase::GetResult got = co_await table.get(key);
        ++c.gets;
        // Every key was loaded in set-up, so every Get must hit.
        if (got.found) ++c.get_hits;
        bytes = got.value.size();
        if (c.inject_mismatch && ci == 0) ++bytes;
        const std::vector<std::uint16_t>& sizes = c.written[op.key];
        if (!got.found || std::find(sizes.begin(), sizes.end(), bytes) == sizes.end()) {
          error = "get(" + key + ") found=" + std::to_string(got.found) + " value " +
                  std::to_string(bytes) + " B, a size never written to it";
        }
      } else {
        const rpcoib::net::Bytes value(op.value_bytes, rpcoib::net::Byte{0x59});
        c.written[op.key].push_back(op.value_bytes);
        co_await table.put(key, value);
      }
    } catch (const std::exception& e) {
      error = key + ": " + e.what();
    }
    if (c.tr != nullptr) {
      c.tr->end_span(root);
      c.roots[static_cast<std::size_t>(ci)][i] = root;
    }
    if (error.empty()) {
      c.lat[static_cast<std::size_t>(ci)][i] = c.s.now() - start;
      c.payload_bytes += static_cast<double>(bytes);
    } else {
      ++c.failed;
      if (c.first_error.empty()) c.first_error = error;
    }
  }
  c.last_done = std::max(c.last_done, c.s.now());
  --c.running;
}

class HBaseMixed final : public Workload {
 public:
  RunResult run(const RunOptions& opt) override {
    const double rep_start = host_now_s();
    RunResult r;
    Inputs in = generate(opt.seed);
    if (opt.op_limit != std::numeric_limits<std::size_t>::max()) {
      for (auto& v : in.per_client) v.resize(std::min(v.size(), opt.op_limit / kClients));
    }
    const std::vector<std::vector<KvOp>>& ops = in.per_client;

    sim::Scheduler s;
    rpcoib::net::TestbedConfig tcfg = rpcoib::net::Testbed::cluster_a(1 + kRegions + kClients);
    tcfg.seed = opt.seed;
    rpcoib::net::Testbed tb(s, tcfg);
    if (opt.tracer != nullptr) {
      opt.tracer->bind(&s);
      opt.tracer->set_enabled(false);
      tb.set_tracer(opt.tracer);
    }
    oib::EngineConfig hadoop_cfg;
    hadoop_cfg.mode = oib::RpcMode::kRpcoIB;
    oib::RpcEngine hadoop_engine(tb, hadoop_cfg);
    oib::EngineConfig hbase_cfg;
    hbase_cfg.mode = oib::RpcMode::kSocketIPoIB;
    oib::RpcEngine hbase_engine(tb, hbase_cfg);
    std::vector<int> rs_hosts;
    for (int h = 1; h <= kRegions; ++h) rs_hosts.push_back(h);
    hdfs::HdfsCluster hdfs_cluster(hadoop_engine, 0, rs_hosts, hdfs::DataMode::kSocketIPoIB);
    hbase::HBaseConfig hb_cfg;
    hb_cfg.record_bytes = kRecordBytes;
    hb_cfg.memstore_flush_bytes = 512 * 1024;
    hbase::HBaseCluster cluster(hbase_engine, hdfs_cluster, rs_hosts, hb_cfg);
    hdfs_cluster.start();
    cluster.start();
    s.run_until(sim::millis(500));  // registrations land
    std::vector<std::unique_ptr<hbase::HTable>> tables;
    for (int i = 0; i < kClients; ++i) {
      tables.push_back(cluster.make_table(tb.host(1 + kRegions + i)));
    }

    Ctx c{s, tables, in, opt.tracer, opt.inject_mismatch};
    c.written.resize(kRecords);
    for (const auto& v : ops) {
      c.lat.emplace_back(v.size(), kFailed);
      c.roots.emplace_back(v.size(), 0);
    }
    // Load phase (set-up): also opens every table's region connections.
    c.running = kClients;
    for (int i = 0; i < kClients; ++i) s.spawn(load_client(c, i));
    step_until(s, c.running, "hbase_mixed: load never finished");
    const Counts before = snapshot(hadoop_engine, hbase_engine, hdfs_cluster, cluster, rs_hosts);
    if (opt.tracer != nullptr) opt.tracer->set_enabled(true);

    const double m0 = host_now_s();
    r.setup_host_s = m0 - rep_start;
    const std::uint64_t e0 = s.events_processed();
    const Time t0 = s.now();
    c.running = kClients;
    for (int i = 0; i < kClients; ++i) s.spawn(client_loop(c, i));
    measure_until(s, c.running, "hbase_mixed: clients never finished", r);
    r.events = s.events_processed() - e0;
    r.measured_virtual = c.last_done - t0;
    if (opt.tracer != nullptr) opt.tracer->set_enabled(false);
    Counts after = snapshot(hadoop_engine, hbase_engine, hdfs_cluster, cluster, rs_hosts);
    after["hbase.gets"] = static_cast<double>(c.gets);
    after["hbase.get_hits"] = static_cast<double>(c.get_hits);
    r.counts = delta(after, before);

    for (std::size_t ci = 0; ci < ops.size(); ++ci) {
      r.attempted += ops[ci].size();
      for (std::size_t i = 0; i < ops[ci].size(); ++i) {
        if (c.lat[ci][i] != kFailed) r.lat_ns.push_back(c.lat[ci][i]);
        if (opt.tracer != nullptr) r.roots.push_back(c.roots[ci][i]);
      }
    }
    r.failed = c.failed;
    r.first_error = c.first_error;
    r.payload_bytes = c.payload_bytes;

    tables.clear();
    cluster.stop();
    hdfs_cluster.stop();
    s.drain_tasks();
    if (opt.tracer != nullptr) tb.set_tracer(nullptr);
    return r;
  }

  std::vector<MessageShape> message_shapes() const override {
    // Get and Put requests and their responses, one each per op.
    std::vector<MessageShape> shapes;
    auto put = std::make_unique<hbase::PutParam>();
    put->key = record_key(1);
    put->value.assign(kRecordBytes, rpcoib::net::Byte{0x59});
    shapes.push_back(MessageShape{"put", std::move(put), std::make_unique<hbase::PutParam>(), 1});
    auto get = std::make_unique<hbase::GetParam>();
    get->key = record_key(1);
    shapes.push_back(MessageShape{"get", std::move(get), std::make_unique<hbase::GetParam>(), 1});
    auto got = std::make_unique<hbase::GetResult>();
    got->found = true;
    got->value.assign(kRecordBytes, rpcoib::net::Byte{0x42});
    shapes.push_back(MessageShape{"get.response", std::move(got), std::make_unique<hbase::GetResult>(), 1});
    shapes.push_back(MessageShape{"put.response", std::make_unique<rpc::BooleanWritable>(true),
                                  std::make_unique<rpc::BooleanWritable>(), 1});
    return shapes;
  }

  bool open_loop() const override { return false; }
  std::size_t traced_ops() const override { return 8000; }

 private:
  static Counts snapshot(oib::RpcEngine& hadoop_engine, oib::RpcEngine& hbase_engine,
                         hdfs::HdfsCluster& hdfs_cluster, hbase::HBaseCluster& cluster,
                         const std::vector<int>& rs_hosts) {
    Counts c = empty_counts();
    add_profiles(c, hbase_engine.aggregated_profiles());
    add_profiles(c, hadoop_engine.aggregated_profiles(), hdfs::kClientProtocol);
    rpc::RpcServer& nn = hdfs_cluster.namenode().server();
    add_server_stats(c, nn.stats());
    add_pool_stats(c, dynamic_cast<oib::RdmaRpcServer&>(nn).pool().native().stats());
    for (int h : rs_hosts) {
      hdfs::DataNode* dn = hdfs_cluster.datanode_object(h);
      add_client_stats(c, dn->rpc().stats());
      add_pool_stats(c, dynamic_cast<oib::RdmaRpcClient&>(dn->rpc()).pool().native().stats());
    }
    for (std::size_t i = 0; i < cluster.num_regions(); ++i) {
      c["hbase.flushes"] += static_cast<double>(cluster.region(i).flushes());
    }
    return c;
  }
};

}  // namespace

std::unique_ptr<Workload> make_hbase_mixed() { return std::make_unique<HBaseMixed>(); }

}  // namespace perfbench
