// One-sided READ fast path vs plain RPC for hot read-mostly state:
// Get throughput as Zipfian key skew and server handler load sweep.
//
// The server exports its hottest keys into the registered seqlock
// region; clients resolve published keys with a single RDMA READ that
// never touches the handler chain, so the crossover the paper's
// one-sided designs bank on appears exactly where it should — skewed
// (hot-key) traffic against a CPU-loaded server. A separate write-hot
// leg drives concurrent republishes through a widened write window and
// checks that every degraded read (seqlock conflict -> RPC fallback)
// still returns a version that was actually published or authoritative.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/table.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"

namespace {

using rpcoib::net::Address;
using rpcoib::net::Testbed;
using rpcoib::sim::Scheduler;
using rpcoib::sim::Task;
namespace oib = rpcoib::oib;
namespace rpc = rpcoib::rpc;
namespace sim = rpcoib::sim;
namespace net = rpcoib::net;
namespace cluster = rpcoib::cluster;
namespace verbs = rpcoib::verbs;

constexpr Address kAddr{1, 9800};
constexpr const char* kProto = "bench.OneSidedProtocol";
const rpc::MethodKey kGet{kProto, "get"};

constexpr int kKeys = 64;
constexpr int kPublished = 16;  // hottest ranks exported one-sided
constexpr int kClients = 8;

std::string key_name(int id) { return "key-" + std::to_string(id); }

/// Key-only lookup, eligible for the one-sided plane on "get".
struct KeyParam final : rpc::Writable {
  std::string key;
  KeyParam() = default;
  explicit KeyParam(std::string k) : key(std::move(k)) {}
  void write(rpc::DataOutput& out) const override { out.write_text(key); }
  void read_fields(rpc::DataInput& in) override { key = in.read_text(); }
  std::optional<std::string> onesided_key(const std::string& protocol,
                                          const std::string& method) const override {
    if (protocol == kProto && method == "get") return key;
    return std::nullopt;
  }
};

struct Config {
  const char* skew;   // "uniform" | "hot"
  const char* load;   // "light" | "loaded"
  const char* mode;   // "rpc" | "onesided"
  sim::Dur handler_cpu = 0;
  bool onesided = false;
  bool write_hot = false;  // concurrent republisher (conflict leg)
};

struct Result {
  std::uint64_t ops = 0;
  double window_s = 0;
  double mean_us = 0;
  std::uint64_t onesided_reads = 0;
  std::uint64_t conflict_fallbacks = 0;
  bool correct = true;

  double throughput() const { return window_s > 0 ? ops / window_s : 0; }
};

Task reader(Scheduler& s, rpc::RpcClient& client, const sim::ZipfianGenerator* zipf,
            std::uint64_t seed, sim::Time t_end, const std::vector<int>& versions,
            const std::vector<std::set<int>>& ledger, Result& r, double& total_us) {
  sim::Rng rng(seed);
  for (;;) {
    if (s.now() >= t_end) co_return;
    const int id = static_cast<int>(zipf != nullptr
                                        ? zipf->next(rng)
                                        : rng.next_below(kKeys));
    KeyParam p(key_name(id));
    rpc::IntWritable v;
    const sim::Time t0 = s.now();
    co_await client.call(kAddr, kGet, p, &v);
    if (s.now() > t_end) co_return;  // landed past the window: uncounted
    total_us += sim::to_us(s.now() - t0);
    ++r.ops;
    // Version consistency: a READ snapshot must be something the server
    // actually published for this key; an RPC-served get must match a
    // published or the authoritative version. Torn or recycled bytes
    // fail this immediately.
    const std::size_t k = static_cast<std::size_t>(id);
    if (v.value != versions[k] && ledger[k].find(v.value) == ledger[k].end()) {
      r.correct = false;
    }
  }
}

Result run_one(const Config& cfg, std::uint64_t seed) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());

  oib::EngineConfig scfg;
  scfg.server_handlers = 4;
  scfg.onesided.enabled = cfg.onesided;
  if (cfg.write_hot) {
    // Widen the publisher's write window so concurrent READs actually
    // observe odd/unequal seqlock versions and take the bounded
    // conflict-retry -> RPC-fallback ladder.
    scfg.onesided.write_window_us = 300;
  }
  oib::RdmaRpcServer server(tb.host(1), tb.sockets(), stack, kAddr, scfg);

  // Authoritative store: version per key, bumped by the write-hot leg.
  std::vector<int> versions(kKeys, 1);
  std::vector<std::set<int>> ledger(kKeys);
  server.dispatcher().register_method<KeyParam>(
      kGet.protocol, kGet.method,
      [&versions, &server,
       cpu = cfg.handler_cpu](const KeyParam& p) -> sim::Co<rpc::IntWritable> {
        if (cpu > 0) co_await server.host().compute(cpu);
        int id = 0;
        std::sscanf(p.key.c_str(), "key-%d", &id);
        co_return rpc::IntWritable(versions[static_cast<std::size_t>(id)]);
      });
  server.start();

  const cluster::CostModel& cm = tb.host(1).cost();
  auto publish = [&](int id) {
    rpc::OneSidedPublisher* pub = server.onesided();
    if (pub == nullptr) return;
    const std::size_t k = static_cast<std::size_t>(id);
    rpc::IntWritable v(versions[k]);
    rpc::DataOutputBuffer buf(cm);
    v.write(buf);
    pub->publish(rpc::onesided_entry_key(kProto, "get", key_name(id)), buf.data());
    ledger[k].insert(v.value);
  };
  // Export the hottest ranks (ZipfianGenerator rank i == key id i).
  for (int id = 0; id < kPublished; ++id) publish(id);

  oib::EngineConfig ccfg;
  ccfg.onesided.enabled = cfg.onesided;
  static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};
  const sim::ZipfianGenerator zipf(kKeys, 0.99);
  const sim::Time t_end = sim::seconds(2);
  Result r;
  r.window_s = sim::to_us(t_end) / 1e6;
  double total_us = 0;
  std::vector<std::unique_ptr<oib::RdmaRpcClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<oib::RdmaRpcClient>(
        tb.host(kClientHosts[i % 8]), tb.sockets(), stack, ccfg));
    s.spawn(reader(s, *clients.back(),
                   std::strcmp(cfg.skew, "hot") == 0 ? &zipf : nullptr,
                   seed ^ static_cast<std::uint64_t>(i + 1), t_end, versions, ledger,
                   r, total_us));
  }
  if (cfg.write_hot) {
    // Republish the hottest keys continuously: each publish holds the
    // slot odd for write_window_us, colliding with in-flight READs.
    s.spawn([](Scheduler& sc, std::vector<int>& vers, decltype(publish)& pub,
               sim::Time until) -> Task {
      sim::Rng wrng(0x77726974ULL);
      while (sc.now() < until) {
        const int id = static_cast<int>(wrng.next_below(4));  // top ranks only
        ++vers[static_cast<std::size_t>(id)];
        pub(id);
        co_await sim::delay(sc, sim::micros(200));
      }
    }(s, versions, publish, t_end));
  }
  s.run_until(sim::seconds(30));

  r.mean_us = r.ops > 0 ? total_us / static_cast<double>(r.ops) : 0;
  for (auto& c : clients) {
    r.onesided_reads += c->stats().onesided_reads;
    r.conflict_fallbacks += c->stats().onesided_conflict_fallbacks;
    c->close_connections();
  }
  server.stop();
  s.drain_tasks();
  return r;
}

struct Row {
  Config cfg;
  Result res;
};

}  // namespace

int main(int argc, char** argv) {
  using rpcoib::metrics::Table;
  namespace bench = rpcoib::bench;
  const bench::Args args = bench::parse_args(argc, argv, bench::kJsonOut);

  rpcoib::metrics::print_banner(
      std::cout,
      "One-sided READ fast path vs RPC: Get throughput across key skew x server load");

  const sim::Dur kLight = sim::micros(5);
  const sim::Dur kLoaded = sim::micros(200);
  std::vector<Row> rows;
  for (const char* skew : {"uniform", "hot"}) {
    for (bool loaded : {false, true}) {
      for (bool onesided : {false, true}) {
        Config c{skew, loaded ? "loaded" : "light", onesided ? "onesided" : "rpc",
                 loaded ? kLoaded : kLight, onesided, /*write_hot=*/false};
        rows.push_back({c, run_one(c, 1)});
      }
    }
  }
  // Write-hot conflict leg: concurrent republishes against one-sided
  // readers; throughput is not the point — degraded reads must stay
  // correct and the bounded conflict fallback must actually fire.
  Config conflict{"hot", "light", "onesided", kLight, true, /*write_hot=*/true};
  rows.push_back({conflict, run_one(conflict, 1)});

  Table t({"Skew", "Load", "Mode", "Ops", "Ops/s", "Mean us", "1s reads",
           "Conflict fb", "Correct"});
  bench::Json json("onesided");
  bool ok = true;
  for (const Row& r : rows) {
    const char* load = r.cfg.write_hot ? "write-hot" : r.cfg.load;
    t.row({r.cfg.skew, load, r.cfg.mode, std::to_string(r.res.ops),
           Table::num(r.res.throughput(), 0), Table::num(r.res.mean_us, 1),
           std::to_string(r.res.onesided_reads), std::to_string(r.res.conflict_fallbacks),
           r.res.correct ? "yes" : "NO"});
    json.row({{"skew", r.cfg.skew}, {"load", load}, {"mode", r.cfg.mode}, {"ops", r.res.ops},
              {"ops_per_sec", r.res.throughput()}, {"mean_us", r.res.mean_us},
              {"onesided_reads", r.res.onesided_reads},
              {"conflict_fallbacks", r.res.conflict_fallbacks}, {"correct", r.res.correct}});
    ok = ok && r.res.correct && r.res.ops > 0;
  }
  t.print(std::cout);

  double rpc_hot_loaded = 0, onesided_hot_loaded = 0;
  for (const Row& r : rows) {
    if (r.cfg.write_hot || std::strcmp(r.cfg.skew, "hot") != 0 ||
        std::strcmp(r.cfg.load, "loaded") != 0) {
      continue;
    }
    (std::strcmp(r.cfg.mode, "onesided") == 0 ? onesided_hot_loaded : rpc_hot_loaded) =
        r.res.throughput();
  }
  std::cout << "\nHot-key gets against a loaded server: one-sided "
            << Table::num(onesided_hot_loaded, 0) << " ops/s vs RPC "
            << Table::num(rpc_hot_loaded, 0) << " ops/s ("
            << Table::num(rpc_hot_loaded > 0 ? onesided_hot_loaded / rpc_hot_loaded : 0, 2)
            << "x). Published keys bypass the handler chain entirely, so the\n"
               "crossover grows with handler CPU and key skew; the write-hot leg\n"
               "shows the seqlock degrading to RPC without serving torn state.\n";

  if (!bench::write_out(args.json_out, json.str())) return 1;
  return ok ? 0 : 1;
}
