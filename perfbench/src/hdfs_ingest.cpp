// hdfs_ingest: closed-loop HDFS file ingest over HDFSoIB.
//
// Four DFSClients (hosts 1-4 of Cluster A) write files to 16 DataNodes
// (hosts 5-20) with replication 3. Block data rides HDFSoIB
// (DataMode::kRdma) with pipelined streaming on; NameNode calls (host 0)
// ride RPCoIB. File sizes: 30% about 64 KB (below stream.min_stream_bytes,
// the one-shot path), 50% about 1 MB and 20% about 4 MB (streamed through
// the chunk ring). Each size is drawn uniformly within its class, so op
// latencies spread instead of piling onto one value per class.
// Every 4th file a client writes is read back with read_file.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "hdfs/hdfs_cluster.hpp"
#include "layers.hpp"
#include "net/testbed.hpp"
#include "rpcoib/engine.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace perfbench {

namespace {

namespace hdfs = rpcoib::hdfs;
namespace oib = rpcoib::oib;
namespace rpc = rpcoib::rpc;
namespace sim = rpcoib::sim;
namespace trace = rpcoib::trace;

constexpr int kClients = 4;
constexpr int kDatanodes = 16;
constexpr int kFilesPerClient = 250;  // + 62 reads each: 1,248 ops in all
// Size classes [lo, hi] in bytes. The 1 MB class starts at
// stream.min_stream_bytes so all of it streams.
constexpr std::uint64_t kSizeLo[] = {48ULL << 10, 1ULL << 20, 15ULL << 18};
constexpr std::uint64_t kSizeHi[] = {80ULL << 10, 5ULL << 18, 17ULL << 18};
// Files of each class per client: 30% / 50% / 20%. Exact counts in seeded
// order keep the bytes per run nearly fixed, and put the median op among
// the 1 MB writes, whose latency varies with contention, rather than on
// the edge between two classes or on the uncontended 1 MB write time.
constexpr int kSizeCount[] = {75, 125, 50};

struct FileOp {
  bool read = false;
  int file = 0;
  std::uint64_t bytes = 0;
};

std::vector<std::vector<FileOp>> generate(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x4844);
  std::vector<std::vector<FileOp>> per_client(kClients);
  for (auto& ops : per_client) {
    std::vector<std::size_t> deck;
    for (std::size_t k = 0; k < std::size(kSizeCount); ++k) {
      deck.insert(deck.end(), static_cast<std::size_t>(kSizeCount[k]), k);
    }
    for (std::size_t i = deck.size() - 1; i > 0; --i) {
      std::swap(deck[i], deck[rng.next_below(i + 1)]);
    }
    for (int f = 0; f < kFilesPerClient; ++f) {
      const std::size_t k = deck[static_cast<std::size_t>(f)];
      const auto bytes = static_cast<std::uint64_t>(rng.next_range(
          static_cast<std::int64_t>(kSizeLo[k]), static_cast<std::int64_t>(kSizeHi[k])));
      ops.push_back(FileOp{false, f, bytes});
      if (f % 4 == 3) ops.push_back(FileOp{true, f, bytes});
    }
  }
  return per_client;
}

std::string file_path(int client, int file) {
  return "/bench/c" + std::to_string(client) + "/f" + std::to_string(file);
}

struct Ctx {
  sim::Scheduler& s;
  std::vector<std::unique_ptr<hdfs::DFSClient>>& clients;
  const std::vector<std::vector<FileOp>>& ops;
  trace::TraceCollector* tr;
  bool inject_mismatch;
  int running = 0;
  int warm_pending = 0;
  Time last_done = 0;
  std::vector<std::vector<Dur>> lat{};  // per client, per op; kFailed on failure
  std::vector<std::vector<trace::SpanId>> roots{};
  std::uint64_t failed = 0;
  double payload_bytes = 0;
  std::string first_error{};
};

void note_failure(Ctx& c, const std::string& what) {
  ++c.failed;
  if (c.first_error.empty()) c.first_error = what;
}

sim::Task client_loop(Ctx& c, int ci) {
  hdfs::DFSClient& dfs = *c.clients[static_cast<std::size_t>(ci)];
  const std::vector<FileOp>& ops = c.ops[static_cast<std::size_t>(ci)];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FileOp& op = ops[i];
    const std::string path = file_path(ci, op.file);
    const Time start = c.s.now();
    const trace::SpanId root =
        open_root(c.tr, op.read ? "bench.read" : "bench.write", dfs.host().id());
    std::string error;
    try {
      if (op.read) {
        const std::uint64_t got = co_await dfs.read_file(path);
        std::uint64_t want = op.bytes;
        if (c.inject_mismatch && ci == 0 && i == 3) ++want;
        if (got != want) {
          error = "read_file(" + path + ") returned " + std::to_string(got) + " bytes, wrote " +
                  std::to_string(want);
        }
      } else {
        co_await dfs.write_file(path, op.bytes);
      }
    } catch (const std::exception& e) {
      error = path + ": " + e.what();
    }
    if (c.tr != nullptr) {
      c.tr->end_span(root);
      c.roots[static_cast<std::size_t>(ci)][i] = root;
    }
    if (error.empty()) {
      c.lat[static_cast<std::size_t>(ci)][i] = c.s.now() - start;
      c.payload_bytes += static_cast<double>(op.bytes);
    } else {
      note_failure(c, error);
    }
  }
  c.last_done = std::max(c.last_done, c.s.now());
  --c.running;
}

/// Check every written file's length at the NameNode (after timing).
sim::Task verify_lengths(Ctx& c, int ci) {
  hdfs::DFSClient& dfs = *c.clients[static_cast<std::size_t>(ci)];
  for (const FileOp& op : c.ops[static_cast<std::size_t>(ci)]) {
    if (op.read) continue;
    const std::string path = file_path(ci, op.file);
    std::uint64_t want = op.bytes;
    if (c.inject_mismatch && ci == 1 && op.file == 0) ++want;
    try {
      const hdfs::FileStatusResult st = co_await dfs.get_file_info(path);
      if (!st.exists || st.status.length != want) {
        note_failure(c, "get_file_info(" + path + ") length " +
                            std::to_string(st.exists ? st.status.length : 0) + ", wrote " +
                            std::to_string(want));
      }
    } catch (const std::exception& e) {
      note_failure(c, path + ": " + e.what());
    }
  }
  --c.running;
}

sim::Task warm_client(Ctx& c, int ci) {
  const std::string dir = "/bench/c" + std::to_string(ci);
  co_await c.clients[static_cast<std::size_t>(ci)]->mkdirs(dir);
  --c.warm_pending;
}

Counts snapshot(oib::RpcEngine& engine, hdfs::HdfsCluster& cluster,
                const std::vector<std::unique_ptr<hdfs::DFSClient>>& clients,
                const std::vector<int>& dn_hosts) {
  Counts c = empty_counts();
  add_profiles(c, engine.aggregated_profiles(), hdfs::kClientProtocol);
  rpc::RpcServer& nn = cluster.namenode().server();
  add_server_stats(c, nn.stats());
  add_pool_stats(c, dynamic_cast<oib::RdmaRpcServer&>(nn).pool().native().stats());
  for (const auto& cl : clients) {
    add_client_stats(c, cl->rpc().stats());
    add_pool_stats(c, dynamic_cast<oib::RdmaRpcClient&>(cl->rpc()).pool().native().stats());
    if (cl->stream_hub() != nullptr) add_client_stats(c, cl->stream_hub()->stats());
  }
  for (int h : dn_hosts) {
    hdfs::DataNode* dn = cluster.datanode_object(h);
    add_pool_stats(c, dynamic_cast<oib::RdmaRpcClient&>(dn->rpc()).pool().native().stats());
    if (dn->stream_hub() != nullptr) add_client_stats(c, dn->stream_hub()->stats());
  }
  return c;
}

class HdfsIngest final : public Workload {
 public:
  RunResult run(const RunOptions& opt) override {
    const double rep_start = host_now_s();
    RunResult r;
    std::vector<std::vector<FileOp>> ops = generate(opt.seed);
    // A prefix run keeps each client's first ops.
    if (opt.op_limit != std::numeric_limits<std::size_t>::max()) {
      for (auto& v : ops) v.resize(std::min(v.size(), opt.op_limit / kClients));
    }

    sim::Scheduler s;
    rpcoib::net::TestbedConfig tcfg = rpcoib::net::Testbed::cluster_a(1 + kClients + kDatanodes);
    tcfg.seed = opt.seed;
    rpcoib::net::Testbed tb(s, tcfg);
    if (opt.tracer != nullptr) {
      opt.tracer->bind(&s);
      opt.tracer->set_enabled(false);
      tb.set_tracer(opt.tracer);
    }
    oib::EngineConfig ecfg;
    ecfg.mode = oib::RpcMode::kRpcoIB;
    ecfg.stream.enabled = true;
    oib::RpcEngine engine(tb, ecfg);
    std::vector<int> dn_hosts;
    for (int h = 1 + kClients; h < 1 + kClients + kDatanodes; ++h) dn_hosts.push_back(h);
    hdfs::HdfsCluster cluster(engine, 0, dn_hosts, hdfs::DataMode::kRdma);
    cluster.start();
    s.run_until(sim::millis(500));  // DataNode registrations land
    std::vector<std::unique_ptr<hdfs::DFSClient>> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(cluster.make_client(tb.host(1 + i), "bench-client-" + std::to_string(i)));
    }

    Ctx c{s, clients, ops, opt.tracer, opt.inject_mismatch};
    for (const auto& v : ops) {
      c.lat.emplace_back(v.size(), kFailed);
      c.roots.emplace_back(v.size(), 0);
    }
    c.warm_pending = kClients;
    for (int i = 0; i < kClients; ++i) s.spawn(warm_client(c, i));
    step_until(s, c.warm_pending, "hdfs_ingest: warm-up did not finish");
    const Counts before = snapshot(engine, cluster, clients, dn_hosts);
    if (opt.tracer != nullptr) opt.tracer->set_enabled(true);

    const double m0 = host_now_s();
    r.setup_host_s = m0 - rep_start;
    const std::uint64_t e0 = s.events_processed();
    const Time t0 = s.now();
    c.running = kClients;
    for (int i = 0; i < kClients; ++i) s.spawn(client_loop(c, i));
    measure_until(s, c.running, "hdfs_ingest: clients never finished", r);
    r.events = s.events_processed() - e0;
    r.measured_virtual = c.last_done - t0;
    if (opt.tracer != nullptr) opt.tracer->set_enabled(false);
    r.counts = delta(snapshot(engine, cluster, clients, dn_hosts), before);

    c.running = kClients;
    for (int i = 0; i < kClients; ++i) s.spawn(verify_lengths(c, i));
    step_until(s, c.running, "hdfs_ingest: length checks never finished");

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

    cluster.stop();
    s.drain_tasks();
    if (opt.tracer != nullptr) tb.set_tracer(nullptr);
    return r;
  }

  std::vector<MessageShape> message_shapes() const override {
    // The NameNode calls behind every file: create, then the per-block
    // sync rounds (about 3 per file over this size mix) and complete, all
    // carrying a path; each returns a BooleanWritable.
    std::vector<MessageShape> shapes;
    auto create = std::make_unique<hdfs::CreateParam>();
    create->path = file_path(0, 0);
    create->client = "bench-client-0";
    create->replication = 3;
    create->block_size = 64ULL << 20;
    shapes.push_back(MessageShape{"create", std::move(create), std::make_unique<hdfs::CreateParam>(), 1});
    shapes.push_back(MessageShape{"renewLease", std::make_unique<hdfs::PathParam>(file_path(0, 0),
                                                                     "bench-client-0"),
                                  std::make_unique<hdfs::PathParam>(), 4});
    shapes.push_back(MessageShape{"response", std::make_unique<rpc::BooleanWritable>(true),
                                  std::make_unique<rpc::BooleanWritable>(), 5});
    return shapes;
  }

  bool open_loop() const override { return false; }
  std::size_t traced_ops() const override { return 400; }
};

}  // namespace

std::unique_ptr<Workload> make_hdfs_ingest() { return std::make_unique<HdfsIngest>(); }

}  // namespace perfbench
