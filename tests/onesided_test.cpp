// One-sided RDMA READ fast path: hot read-mostly state exported into a
// versioned seqlock region, resolved client-side with a single READ.
//
// The gates here: a published entry is served without touching the
// server's handler chain; every fallback rung (seqlock conflict, stale
// generation after a growth re-export, entry miss, tombstone, staging
// lease refused) degrades to plain RPC with the pools balanced; retired
// region buffers fail closed (generation 0) instead of serving recycled
// bytes; and with the knob off the stack advertises nothing and the
// resilience report is byte-identical to a build that never heard of the
// feature. Chaos legs are seedable through RPCOIB_CHAOS_SEED /
// RPCOIB_SHARDS like the rest of the suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "hbase/hbase.hpp"
#include "hdfs/dfs_client.hpp"
#include "hdfs/hdfs_cluster.hpp"
#include "net/fault.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/resilience.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/onesided.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib {
namespace {

using net::Address;
using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr Address kAddr{1, 9600};
constexpr const char* kProto = "test.OneSidedProtocol";
const rpc::MethodKey kGet{kProto, "get"};
const rpc::MethodKey kPut{kProto, "put"};

// RPCOIB_ONESIDED=0 runs the chaos leg with the one-sided plane off: the
// same kills/loss/re-publish workload rides plain RPC end to end and the
// resilience report must not mention the feature. The CI chaos matrix
// pins RPCOIB_ONESIDED=1 explicitly; default is on.
bool chaos_onesided() {
  const char* env = std::getenv("RPCOIB_ONESIDED");
  return env == nullptr || std::strtoul(env, nullptr, 10) != 0;
}

oib::OneSidedConfig onesided_on() {
  oib::OneSidedConfig o;
  o.enabled = true;
  return o;
}

/// Key-only lookup request, eligible for the one-sided plane on "get".
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

struct KvPutParam final : rpc::Writable {
  std::string key;
  int value = 0;
  KvPutParam() = default;
  KvPutParam(std::string k, int v) : key(std::move(k)), value(v) {}
  void write(rpc::DataOutput& out) const override {
    out.write_text(key);
    out.write_vi32(value);
  }
  void read_fields(rpc::DataInput& in) override {
    key = in.read_text();
    value = in.read_vi32();
  }
};

/// A small KV server over the engine: get is the hot read path, put
/// mutates and republishes through the server's one-sided region —
/// exactly the pattern the NameNode and region servers use.
struct KvServer {
  std::unique_ptr<rpc::RpcServer> server;
  std::map<std::string, int> kv;
  std::uint64_t get_handler_calls = 0;
  // Every value ever published per key: the version-consistency ledger.
  std::map<std::string, std::set<int>> ledger;

  KvServer(RpcEngine& engine, cluster::Host& host, cluster::CostModel cm) {
    server = engine.make_server(host, kAddr);
    server->dispatcher().register_method(
        kGet.protocol, kGet.method,
        [this](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
          KeyParam p;
          p.read_fields(in);
          ++get_handler_calls;
          rpc::IntWritable(lookup(p.key)).write(out);
          co_return;
        });
    server->dispatcher().register_method(
        kPut.protocol, kPut.method,
        [this, cm](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
          KvPutParam p;
          p.read_fields(in);
          kv[p.key] = p.value;
          publish(cm, p.key);
          rpc::BooleanWritable(true).write(out);
          co_return;
        });
  }

  int lookup(const std::string& key) const {
    auto it = kv.find(key);
    return it == kv.end() ? 0 : it->second;
  }

  /// Publish the get-shaped response for `key` (what the NameNode does
  /// from its mutating handlers).
  void publish(const cluster::CostModel& cm, const std::string& key) {
    // The ledger records every committed value even with the plane off:
    // the chaos leg's version check runs in both matrix modes.
    ledger[key].insert(lookup(key));
    rpc::OneSidedPublisher* pub = server->onesided();
    if (pub == nullptr) return;
    rpc::IntWritable v(lookup(key));
    rpc::DataOutputBuffer buf(cm);
    v.write(buf);
    pub->publish(rpc::onesided_entry_key(kProto, "get", key), buf.data());
  }
  /// Tombstone: empty payload, so readers fall back to RPC.
  void tombstone(const std::string& key) {
    server->onesided()->publish(rpc::onesided_entry_key(kProto, "get", key), {});
  }
};

Co<void> one_get(rpc::RpcClient& client, const std::string& key, int& out, bool& err) {
  KeyParam p(key);
  rpc::IntWritable resp;
  try {
    co_await client.call(kAddr, kGet, p, &resp);
    out = resp.value;
  } catch (const rpc::RpcTransportError&) {
    err = true;
  }
}

// `key` by value: a spawned task starts after the spawning statement ends,
// so a reference parameter would dangle when bound to a temporary.
Task get_task(rpc::RpcClient& client, std::string key, int& out, bool& err) {
  co_await one_get(client, key, out, err);
}

Co<void> one_put(rpc::RpcClient& client, const std::string& key, int value, bool& err) {
  KvPutParam p(key, value);
  rpc::BooleanWritable ok;
  try {
    co_await client.call(kAddr, kPut, p, &ok);
  } catch (const rpc::RpcTransportError&) {
    err = true;
  }
}

void expect_pools_balanced(rpc::RpcClient& client, rpc::RpcServer& server) {
  auto* rc = dynamic_cast<oib::RdmaRpcClient*>(&client);
  ASSERT_NE(rc, nullptr);
  rc->close_connections();
  EXPECT_EQ(rc->pool().native().stats().acquires, rc->pool().native().stats().releases);
  auto* rs = dynamic_cast<oib::RdmaRpcServer*>(&server);
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->pool().native().stats().acquires, rs->pool().native().stats().releases);
}

// --- The tentpole: published entries bypass the handler chain ----------------
TEST(OneSided, PublishedEntryServedByRdmaReadWithoutHandler) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.onesided = onesided_on();
  RpcEngine engine(tb, ec);
  KvServer kvs(engine, tb.host(1), tb.host(1).cost());
  kvs.server->start();
  kvs.kv["hot"] = 41;
  kvs.publish(tb.host(1).cost(), "hot");
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  // Ten lookups of the published key: every one resolves by RDMA READ.
  std::vector<int> outs(10, -1);
  bool err = false;
  s.spawn([](Scheduler& sc, rpc::RpcClient& c, std::vector<int>& o, bool& e) -> Task {
    for (std::size_t i = 0; i < o.size(); ++i) {
      co_await sim::delay(sc, sim::millis(1));
      co_await one_get(c, "hot", o[i], e);
    }
  }(s, *client, outs, err));
  s.run_until(sim::seconds(5));
  EXPECT_FALSE(err);
  for (int v : outs) EXPECT_EQ(v, 41);
  EXPECT_EQ(kvs.get_handler_calls, 0u) << "a one-sided hit must bypass the handler";
  EXPECT_EQ(client->stats().onesided_reads, 10u);
  EXPECT_EQ(client->stats().onesided_fallbacks, 0u);

  // An unpublished key misses the region and falls back to RPC.
  int cold = -1;
  s.spawn(get_task(*client, "cold", cold, err));
  s.run_until(sim::seconds(10));
  EXPECT_FALSE(err);
  EXPECT_EQ(cold, 0);
  EXPECT_EQ(kvs.get_handler_calls, 1u);
  EXPECT_GE(client->stats().onesided_misses, 1u);
  EXPECT_GE(client->stats().onesided_fallbacks, 1u);

  // A tombstone turns a published entry back into a miss.
  kvs.tombstone("hot");
  s.run_until(s.now() + sim::millis(1));
  int tomb = -1;
  s.spawn(get_task(*client, "hot", tomb, err));
  s.run_until(sim::seconds(15));
  EXPECT_FALSE(err);
  EXPECT_EQ(tomb, 41);  // the RPC handler still sees the value
  EXPECT_EQ(kvs.get_handler_calls, 2u);

  const std::string report = rpc::resilience_report(client->stats(), nullptr,
                                                    &kvs.server->stats());
  EXPECT_NE(report.find("onesided reads"), std::string::npos);
  EXPECT_NE(report.find("server onesided published"), std::string::npos);
  kvs.server->stop();
  expect_pools_balanced(*client, *kvs.server);
  s.drain_tasks();
}

// onesided.slots sizes the direct-mapped region. With one slot every key
// maps to it, so a second publish displaces the first: the displaced key
// reads as a miss (its hash tag no longer matches) and falls back to RPC
// with its own value, never the other key's bytes.
TEST(OneSided, OneSlotRegionServesOnlyTheLastPublishedKey) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.onesided = onesided_on();
  ec.onesided.slots = 1;
  RpcEngine engine(tb, ec);
  KvServer kvs(engine, tb.host(1), tb.host(1).cost());
  kvs.server->start();
  kvs.kv["a"] = 1;
  kvs.publish(tb.host(1).cost(), "a");
  kvs.kv["b"] = 2;
  kvs.publish(tb.host(1).cost(), "b");
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int a = -1, b = -1;
  bool err = false;
  s.spawn([](rpc::RpcClient& c, int& a_out, int& b_out, bool& e) -> Task {
    co_await one_get(c, "b", b_out, e);
    co_await one_get(c, "a", a_out, e);
  }(*client, a, b, err));
  s.run_until(sim::seconds(5));
  EXPECT_FALSE(err);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(client->stats().onesided_reads, 1u);
  EXPECT_EQ(client->stats().onesided_misses, 1u);
  EXPECT_EQ(kvs.get_handler_calls, 1u);
  kvs.server->stop();
  expect_pools_balanced(*client, *kvs.server);
  s.drain_tasks();
}

// --- Default-off discipline --------------------------------------------------
TEST(OneSided, DisabledAdvertisesNothingAndKeepsReportsClean) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  RpcEngine engine(tb, ec);
  KvServer kvs(engine, tb.host(1), tb.host(1).cost());
  kvs.server->start();
  // No region, no advertisement, and publish hooks are dead ends.
  EXPECT_EQ(kvs.server->onesided(), nullptr);
  EXPECT_EQ(engine.verbs().onesided_service(kAddr), nullptr);
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  bool err = false;
  int out = -1;
  s.spawn([](rpc::RpcClient& c, int& o, bool& e) -> Task {
    co_await one_put(c, "k", 7, e);
    co_await one_get(c, "k", o, e);
  }(*client, out, err));
  s.run_until(sim::seconds(5));
  EXPECT_FALSE(err);
  EXPECT_EQ(out, 7);
  EXPECT_EQ(kvs.get_handler_calls, 1u);
  EXPECT_EQ(client->stats().onesided_reads, 0u);
  EXPECT_EQ(client->stats().onesided_fallbacks, 0u);
  const std::string report = rpc::resilience_report(client->stats(), nullptr,
                                                    &kvs.server->stats());
  EXPECT_EQ(report.find("onesided"), std::string::npos)
      << "a disabled build must not grow report rows";
  kvs.server->stop();
  s.drain_tasks();
}

// --- Satellite 2: seqlock conflicts fall back, bounded, pools balanced -------
//
// A write-hot slot keeps its seqlock window open most of the time; readers
// must burn at most the client's conflict budget on it, degrade to RPC,
// and return the staging lease every single time — the pool-balance assert
// at the end is the regression gate for a staging-lease leak.
TEST(OneSided, ConflictFallbackIsBoundedAndReleasesStaging) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.onesided = onesided_on();
  ec.onesided.write_window_us = 400;  // windows dominate the timeline
  RpcEngine engine(tb, ec);
  KvServer kvs(engine, tb.host(1), tb.host(1).cost());
  kvs.server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  // Server-side writer: republish the hot key every 300 us, so the 400 us
  // window is effectively always open when a READ lands.
  s.spawn([](Scheduler& sc, KvServer& k, const cluster::CostModel& cm) -> Task {
    for (int v = 1; v <= 400; ++v) {
      k.kv["hot"] = v;
      k.publish(cm, "hot");
      co_await sim::delay(sc, sim::micros(300));
    }
  }(s, kvs, tb.host(1).cost()));

  int last = -1;
  bool err = false;
  std::vector<int> seen;
  s.spawn([](Scheduler& sc, rpc::RpcClient& c, std::vector<int>& observed, int& out,
             bool& e) -> Task {
    for (int i = 0; i < 60; ++i) {
      co_await sim::delay(sc, sim::micros(700));
      co_await one_get(c, "hot", out, e);
      observed.push_back(out);
    }
  }(s, *client, seen, last, err));
  s.run_until(sim::seconds(30));

  EXPECT_FALSE(err);
  // The reader observed monotone, published values regardless of which
  // plane served each lookup (READ sees the last closed window; a
  // conflicted or missed lookup sees the live map through RPC).
  int prev = -1;
  for (int v : seen) {
    EXPECT_GE(v, prev);
    prev = v;
    EXPECT_TRUE(v == 0 || kvs.ledger["hot"].contains(v)) << v;
  }
  EXPECT_GT(client->stats().onesided_conflict_fallbacks, 0u)
      << "the write-hot window was never observed; the gate proved nothing";
  EXPECT_EQ(client->stats().onesided_stale_refreshes, 0u);
  kvs.server->stop();
  expect_pools_balanced(*client, *kvs.server);
  s.drain_tasks();
}

// --- Satellite 3: growth re-export fails closed and refreshes ----------------
//
// Outgrowing the slot capacity retires the whole buffer under a new rkey
// and generation. A client still holding the old advertisement must see
// its READ fail closed on the poisoned generation word (never recycled
// payload bytes), refresh the advertisement once, and succeed against the
// new region.
TEST(OneSided, GrowthReexportInvalidatesCachedAdvertisements) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.onesided = onesided_on();
  ec.onesided.slot_payload = 64;  // small slots: easy to outgrow
  RpcEngine engine(tb, ec);
  KvServer kvs(engine, tb.host(1), tb.host(1).cost());
  kvs.server->start();
  kvs.kv["hot"] = 5;
  kvs.publish(tb.host(1).cost(), "hot");
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  // Warm read: caches the generation-1 advertisement.
  int warm = -1;
  bool err = false;
  s.spawn(get_task(*client, "hot", warm, err));
  s.run_until(sim::seconds(5));
  EXPECT_EQ(warm, 5);
  EXPECT_EQ(client->stats().onesided_reads, 1u);

  // Publish a payload bigger than the 64-byte slot: the region re-exports.
  {
    rpc::OneSidedPublisher* pub = kvs.server->onesided();
    net::Bytes big(256, net::Byte{0x11});
    pub->publish(rpc::onesided_entry_key(kProto, "get", "big"),
                 net::ByteSpan(big.data(), big.size()));
  }
  EXPECT_EQ(kvs.server->stats().onesided_reexports, 1u);

  // The next read runs against the stale rkey, fails closed on the
  // poisoned generation, refreshes, and lands in the new region.
  int after = -1;
  s.spawn(get_task(*client, "hot", after, err));
  s.run_until(sim::seconds(10));
  EXPECT_FALSE(err);
  EXPECT_EQ(after, 5);
  EXPECT_EQ(client->stats().onesided_stale_refreshes, 1u);
  EXPECT_EQ(client->stats().onesided_reads, 2u);

  kvs.server->stop();
  expect_pools_balanced(*client, *kvs.server);
  s.drain_tasks();
}

// --- Satellite 3/4: seeded chaos with kills, loss, and live re-exports -------
//
// Readers hammer hot keys over the one-sided plane while writers mutate
// them (seqlock windows + occasional growth re-exports) and the fault
// plan kills the RC connections under the READs and drops datagrams on
// the UD eager path. Execution-ledger gate: every observed value was
// genuinely published for that key, values are monotone per reader, the
// pools balance on both ends, and the merged report is byte-identical
// across runs of the same seed.
TEST(Chaos, OneSidedReadsSurviveKillsLossAndReexports) {
  auto run_once = [] {
    static constexpr cluster::HostId kClientHosts[] = {0, 2, 3};
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    plan->set_datagram_loss(0.05);
    for (cluster::HostId h : kClientHosts) {
      plan->add_connection_kill(h, 1, sim::seconds(2));
      plan->add_connection_kill(h, 1, sim::seconds(4));
    }
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::millis(500);
    retry.max_retries = 10;
    retry.backoff_base = sim::millis(100);
    retry.non_idempotent.insert(kPut.to_string());
    retry.retry_non_idempotent_on_timeout = true;
    EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_handlers = 4,
                    .server_shards = chaos_shards(), .retry = retry};
    ec.overload.retry_cache_entries = 256;
    ec.session.enabled = true;
    ec.ud.enabled = true;
    ec.onesided = onesided_on();
    ec.onesided.enabled = chaos_onesided();
    ec.onesided.slot_payload = 64;
    ec.onesided.write_window_us = 50;
    RpcEngine engine(tb, ec);
    KvServer kvs(engine, tb.host(1), tb.host(1).cost());
    kvs.server->start();

    // Writer: mutate the hot keys through RPC puts; every put republishes.
    // Key "grow" outgrows its slot mid-run via a direct publish, forcing
    // generation bumps while READs are in flight.
    bool put_err = false;
    std::unique_ptr<rpc::RpcClient> writer = engine.make_client(tb.host(4));
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, KvServer& k, bool& e) -> Task {
      for (int v = 1; v <= 40; ++v) {
        co_await sim::delay(sc, sim::millis(150));
        co_await one_put(c, "hot", v, e);
        if (rpc::OneSidedPublisher* pub = k.server->onesided();
            pub != nullptr && v % 10 == 0) {
          net::Bytes big(static_cast<std::size_t>(64) << (v / 10), net::Byte{0x22});
          pub->publish(rpc::onesided_entry_key(kProto, "get", "grow"),
                       net::ByteSpan(big.data(), big.size()));
        }
      }
    }(s, *writer, kvs, put_err));

    std::vector<std::unique_ptr<rpc::RpcClient>> clients;
    std::vector<std::vector<int>> observed(3);
    int errors = 0;
    for (int i = 0; i < 3; ++i) {
      clients.push_back(engine.make_client(tb.host(kClientHosts[i])));
      s.spawn([](Scheduler& sc, rpc::RpcClient& c, std::vector<int>& seen,
                 int& errs) -> Task {
        for (int j = 0; j < 80; ++j) {
          co_await sim::delay(sc, sim::millis(80));
          int out = -1;
          bool err = false;
          co_await one_get(c, "hot", out, err);
          if (err) {
            ++errs;
          } else {
            seen.push_back(out);
          }
        }
      }(s, *clients.back(), observed[i], errors));
    }
    s.run_until(sim::seconds(120));

    EXPECT_FALSE(put_err);
    EXPECT_EQ(errors, 0);
    // Plane off, the gets ride the connectionless UD eager path and the
    // RC kill schedule has nothing to bite; the loss plan still runs.
    if (chaos_onesided()) EXPECT_GT(plan->counters().kills, 0u);
    rpc::RpcStats merged;
    for (auto& c : clients) merged.merge(c->stats());
    if (chaos_onesided()) {
      EXPECT_GT(merged.onesided_reads, 0u);
      EXPECT_GT(merged.onesided_fallbacks, 0u);
    } else {
      EXPECT_EQ(merged.onesided_reads, 0u);
      EXPECT_EQ(merged.onesided_fallbacks, 0u);
    }
    // The ledger: every observed value was published for "hot" (0 = read
    // before the first put landed), monotone per reader.
    for (const auto& seen : observed) {
      EXPECT_EQ(seen.size(), 80u);
      int prev = -1;
      for (int v : seen) {
        EXPECT_TRUE(v == 0 || kvs.ledger["hot"].contains(v)) << v;
        EXPECT_GE(v, prev);
        prev = v;
      }
    }
    std::string report =
        rpc::resilience_report(merged, &plan->counters(), &kvs.server->stats());
    if (chaos_onesided()) {
      EXPECT_GE(kvs.server->stats().onesided_reexports, 1u)
          << "no re-export happened under load; the generation gate proved nothing";
      EXPECT_NE(report.find("onesided reads"), std::string::npos);
      EXPECT_NE(report.find("server onesided reexports"), std::string::npos);
    } else {
      // Plane off: the report is byte-for-byte what a build without the
      // feature prints — no onesided lines at all.
      EXPECT_EQ(report.find("onesided"), std::string::npos);
    }
    report += "\nfinished at " + std::to_string(s.now());
    kvs.server->stop();
    for (auto& c : clients) {
      auto* rc = dynamic_cast<oib::RdmaRpcClient*>(c.get());
      EXPECT_NE(rc, nullptr);
      if (rc != nullptr) {
        rc->close_connections();
        EXPECT_EQ(rc->pool().native().stats().acquires,
                  rc->pool().native().stats().releases);
      }
    }
    auto* rs = dynamic_cast<oib::RdmaRpcServer*>(kvs.server.get());
    EXPECT_NE(rs, nullptr);
    if (rs != nullptr) {
      EXPECT_EQ(rs->pool().native().stats().acquires,
                rs->pool().native().stats().releases);
    }
    s.drain_tasks();
    return report;
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
}

// --- HDFS integration: hot metadata lookups ride the one-sided plane ---------
TEST(OneSided, HdfsHotMetadataLookupsBypassTheNameNode) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_a(6));
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.onesided = onesided_on();
  RpcEngine engine(tb, ec);
  hdfs::HdfsConfig hcfg;
  hcfg.block_size = 4 << 20;
  hdfs::HdfsCluster cluster(engine, 0, {1, 2, 3}, hdfs::DataMode::kSocketIPoIB, hcfg);
  cluster.start();
  std::unique_ptr<hdfs::DFSClient> dfs = cluster.make_client(tb.host(5), "c0");

  bool done = false;
  std::uint64_t len = 0, info_len = 0, loc_len = 0, blocks = 0;
  s.spawn([](Scheduler& sc, hdfs::DFSClient& d, std::uint64_t& l, std::uint64_t& il,
             std::uint64_t& ll, std::uint64_t& nb, bool& ok) -> Task {
    co_await sim::delay(sc, sim::millis(100));  // daemon registration
    co_await d.write_file("/data/hot.bin", 6 << 20);
    // Hot lookups: getFileInfo and the whole-file getBlockLocations both
    // resolve against the NameNode's exported region after the first miss.
    for (int i = 0; i < 20; ++i) {
      hdfs::FileStatusResult st = co_await d.get_file_info("/data/hot.bin");
      il = st.status.length;
      hdfs::LocatedBlocksResult lb =
          co_await d.get_block_locations("/data/hot.bin", 0, ~0ULL);
      ll = lb.file_length;
      nb = lb.blocks.size();
    }
    l = co_await d.read_file("/data/hot.bin");
    ok = true;
  }(s, *dfs, len, info_len, loc_len, blocks, done));
  s.run_until(sim::seconds(600));

  ASSERT_TRUE(done);
  EXPECT_EQ(len, 6u << 20);
  EXPECT_EQ(info_len, 6u << 20);
  EXPECT_EQ(loc_len, 6u << 20);
  EXPECT_EQ(blocks, 2u);
  // The write path's mutators (create/addBlock/blockReceived/complete)
  // published the entries, so the lookup loop rides READs.
  EXPECT_GT(dfs->rpc().stats().onesided_reads, 30u);
  EXPECT_GT(cluster.namenode().server().stats().onesided_published, 0u);
  cluster.stop();
  s.drain_tasks();
}

// --- HBase integration: hot row gets bypass the region server ----------------
TEST(OneSided, HBaseHotRowGetsBypassTheRegionServer) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_a(6));
  EngineConfig hadoop_ec{.mode = RpcMode::kSocketIPoIB};
  RpcEngine hadoop_engine(tb, hadoop_ec);
  EngineConfig hbase_ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  hbase_ec.onesided = onesided_on();
  RpcEngine hbase_engine(tb, hbase_ec);
  hdfs::HdfsConfig hcfg;
  hcfg.block_size = 4 << 20;
  hdfs::HdfsCluster hdfs_cluster(hadoop_engine, 0, {1, 2, 3, 4},
                                 hdfs::DataMode::kSocketIPoIB, hcfg);
  hbase::HBaseConfig bcfg;
  bcfg.memstore_flush_bytes = 256 * 1024;
  hbase::HBaseCluster hbase_cluster(hbase_engine, hdfs_cluster, {1, 2, 3, 4}, bcfg);
  hdfs_cluster.start();
  hbase_cluster.start();

  bool ok = false;
  s.spawn([](hbase::HBaseCluster& hb, Testbed& t, bool& done) -> Task {
    std::unique_ptr<hbase::HTable> table = hb.make_table(t.host(5));
    net::Bytes val(1024, net::Byte{7});
    co_await table->put("user100", val);
    for (int i = 0; i < 30; ++i) {
      hbase::GetResult r = co_await table->get("user100");
      if (!r.found || r.value.size() != 1024) co_return;
    }
    done = true;
  }(hbase_cluster, tb, ok));
  s.run_until(sim::seconds(300));

  ASSERT_TRUE(ok);
  // The put published the row; the 30 gets ride READs, so the region
  // server's get counter barely moves.
  std::uint64_t gets = 0;
  for (std::size_t i = 0; i < hbase_cluster.num_regions(); ++i) {
    gets += hbase_cluster.region(i).gets();
  }
  EXPECT_LT(gets, 5u) << "hot gets kept hitting the region server handler";
  hbase_cluster.stop();
  hdfs_cluster.stop();
  s.drain_tasks();
}

}  // namespace
}  // namespace rpcoib
