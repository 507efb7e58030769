// Sharded server receive/dispatch (server.shards): connection-to-shard
// affinity, per-shard admission/deadline/retry-cache behavior, response
// batching staying within a shard, stop()-drain across
// every shard, and the idempotent cross-shard stats aggregation — on both
// transports.
//
// Seedable through RPCOIB_CHAOS_SEED (the chaos-suite convention); same
// seed => byte-identical runs, which the affinity test asserts directly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/overload.hpp"
#include "rpc/resilience.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"

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
const rpc::MethodKey kEcho{"test.ShardProtocol", "echo"};
const rpc::MethodKey kSlow{"test.ShardProtocol", "slow"};
const rpc::MethodKey kBump{"test.ShardProtocol", "bump"};

// Client hosts distinct from the server's host 1 (cluster_b has 9 hosts).
constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};

std::uint64_t chaos_seed() {
  const char* env = std::getenv("RPCOIB_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// echo: IntWritable roundtrip. slow: sleep `slow_for`, return true.
/// bump: non-idempotent — increments *runs, sleeps 2 s, returns the count.
void register_suite(rpc::RpcServer& server, cluster::Host& host, int* runs = nullptr,
                    sim::Dur slow_for = sim::seconds(5)) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
  server.dispatcher().register_method(
      kSlow.protocol, kSlow.method,
      [&host, slow_for](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
        co_await sim::delay(host.sched(), slow_for);
        rpc::BooleanWritable(true).write(out);
      });
  if (runs != nullptr) {
    server.dispatcher().register_method(
        kBump.protocol, kBump.method,
        [&host, runs](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
          ++*runs;
          co_await sim::delay(host.sched(), sim::seconds(2));
          rpc::IntWritable(*runs).write(out);
        });
  }
}

Task echo_burst(rpc::RpcClient& client, int n, int& completed) {
  for (int i = 0; i < n; ++i) {
    rpc::IntWritable param(i), resp;
    co_await client.call(kAddr, kEcho, param, &resp);
    if (resp.value == i) ++completed;
  }
}

Task echo_one(rpc::RpcClient& client, int v, int& matched) {
  rpc::IntWritable param(v), resp;
  co_await client.call(kAddr, kEcho, param, &resp);
  if (resp.value == v) ++matched;
}

Task slow_expect_error(rpc::RpcClient& client, int& outcome) {
  rpc::NullWritable arg;
  try {
    co_await client.call(kAddr, kSlow, arg, nullptr);
    outcome = 1;
  } catch (const rpc::RpcTimeoutError&) {
    outcome = 3;
  } catch (const rpc::RpcTransportError&) {
    outcome = 2;
  }
}

void close_client(rpc::RpcClient& c) {
  if (auto* r = dynamic_cast<oib::RdmaRpcClient*>(&c)) r->close_connections();
}

std::uint64_t sum_dispatched(const rpc::RpcStats& st) {
  std::uint64_t n = 0;
  for (const rpc::ShardCounters& sc : st.shards) n += sc.dispatched;
  return n;
}

// --- Connection-to-shard affinity -------------------------------------------

// Connections land on shards round-robin by dense connection id, the
// assignment is exactly balanced, every dispatched call is conserved
// across the shard counters, and the whole run (report included) is
// byte-identical per seed.
TEST(Shard, ConnectionAffinityIsBalancedAndSeedStable) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    auto run_once = [mode] {
      Scheduler s;
      net::TestbedConfig cfg = Testbed::cluster_b();
      cfg.seed = chaos_seed();
      Testbed tb(s, cfg);
      RpcEngine engine(tb, EngineConfig{.mode = mode, .server_shards = 4});
      auto server = engine.make_server(tb.host(1), kAddr);
      register_suite(*server, tb.host(1));
      server->start();

      std::vector<std::unique_ptr<rpc::RpcClient>> clients;
      int completed = 0;
      for (int i = 0; i < 8; ++i) {
        clients.push_back(engine.make_client(tb.host(kClientHosts[i % 8])));
        s.spawn(echo_burst(*clients.back(), 3, completed));
      }
      s.run_until(sim::seconds(60));
      EXPECT_EQ(completed, 8 * 3);

      const rpc::RpcStats& st = server->stats();
      EXPECT_EQ(st.shards.size(), 4u);
      std::uint64_t conns = 0;
      for (const rpc::ShardCounters& sc : st.shards) {
        // Exact round-robin: 8 connections over 4 shards = 2 each.
        EXPECT_EQ(sc.conns_assigned, 2u);
        conns += sc.conns_assigned;
      }
      EXPECT_EQ(conns, 8u);
      EXPECT_EQ(sum_dispatched(st), st.calls_handled);
      EXPECT_EQ(st.calls_handled, 24u);

      std::string report = rpc::resilience_report(clients.front()->stats(), nullptr,
                                                  &server->stats());
      report += "\nfinished at " + std::to_string(s.now());
      server->stop();
      s.drain_tasks();
      return report;
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_EQ(a, b);
  }
}

// --- Per-shard deadline expiry ----------------------------------------------

// With one handler per shard and one connection, the backlog (and its
// deadline expiries) is accounted on the connection's home shard alone;
// the aggregate matches the unsharded test's numbers exactly.
TEST(Shard, DeadlineExpiryLandsOnTheHomeShard) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);  // handler runs 5 s
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 4,
                                      .server_shards = 4,
                                      .retry = retry});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    std::vector<int> outcomes(4, 0);
    for (int& o : outcomes) s.spawn(slow_expect_error(*client, o));
    s.run_until(sim::seconds(60));

    for (int o : outcomes) EXPECT_EQ(o, 3);  // all timed out
    const rpc::RpcStats& st = server->stats();
    EXPECT_EQ(st.responses_expired, 1u);
    EXPECT_EQ(st.calls_expired, 3u);
    EXPECT_EQ(st.calls_handled, 1u);
    // Connection id 1 -> shard 0; the other shards never see a call.
    ASSERT_EQ(st.shards.size(), 4u);
    EXPECT_EQ(st.shards[0].dispatched, 4u);
    EXPECT_EQ(st.shards[0].dropped, 3u);  // the three expired-at-dequeue
    for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(st.shards[i].dispatched, 0u) << i;
    server->stop();
    s.drain_tasks();
  }
}

// --- Retry cache on a sharded server ----------------------------------------

// A timed-out non-idempotent call retried onto the same connection hits
// the home shard's retry cache: one execution, the retry answered from
// the stored frame — shards>1 must not split the dedup state.
TEST(Shard, RetryCacheDedupsOnShardedServer) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);  // bump runs 2 s
    retry.max_retries = 5;
    retry.backoff_base = sim::millis(200);
    retry.non_idempotent.insert(kBump.to_string());
    retry.retry_non_idempotent_on_timeout = true;
    rpc::OverloadConfig ov;
    ov.retry_cache_entries = 64;
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 4,
                                      .server_shards = 4,
                                      .retry = retry,
                                      .overload = ov});
    auto server = engine.make_server(tb.host(1), kAddr);
    int runs = 0;
    register_suite(*server, tb.host(1), &runs);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int out = 0;
    s.spawn([](rpc::RpcClient& c, int& v) -> Task {
      rpc::NullWritable arg;
      rpc::IntWritable resp;
      co_await c.call(kAddr, kBump, arg, &resp);
      v = resp.value;
    }(*client, out));
    s.run_until(sim::seconds(60));

    EXPECT_EQ(out, 1);
    EXPECT_EQ(runs, 1);
    EXPECT_GE(client->stats().retries, 1u);
    EXPECT_GE(server->stats().dedup_hits, 1u);
    EXPECT_EQ(server->stats().responses_expired, 1u);
    server->stop();
    s.drain_tasks();
  }
}

// --- Response batching within a shard ---------------------------------------

// Concurrent small calls from two connections on different shards: each
// caller still gets exactly its own response (batches never mix frames
// across connections, and so never across shards), and the response
// coalescer engages on the sharded path.
TEST(Shard, ResponseBatchingStaysWithinEachShard) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::BatchConfig batch;
    batch.enabled = true;
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 4,
                                      .server_shards = 2,
                                      .batch = batch});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();

    // Connection 1 -> shard 0, connection 2 -> shard 1.
    std::unique_ptr<rpc::RpcClient> c0 = engine.make_client(tb.host(0));
    std::unique_ptr<rpc::RpcClient> c1 = engine.make_client(tb.host(2));
    int matched = 0;
    for (int i = 0; i < 8; ++i) {
      s.spawn(echo_one(*c0, 100 + i, matched));
      s.spawn(echo_one(*c1, 200 + i, matched));
    }
    s.run_until(sim::seconds(60));

    EXPECT_EQ(matched, 16);  // every response carried its caller's value
    const rpc::RpcStats& st = server->stats();
    EXPECT_GT(st.response_batches, 0u);
    EXPECT_GT(st.batched_responses, 0u);
    ASSERT_EQ(st.shards.size(), 2u);
    EXPECT_EQ(st.shards[0].dispatched, 8u);
    EXPECT_EQ(st.shards[1].dispatched, 8u);
    server->stop();
    s.drain_tasks();
  }
}

// --- stop() drains every shard ----------------------------------------------

// Backlogged calls queued on all four shards at stop(): each shard's
// drain is accounted on that shard, the aggregate matches, and (RPCoIB)
// every pooled buffer — queued frames, posted receives, in-flight calls —
// returns to the pool.
TEST(Shard, StopDrainsEveryShardAndBalancesThePool) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    RpcEngine engine(tb, EngineConfig{.mode = mode,
                                      .server_handlers = 4,
                                      .server_shards = 4});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_suite(*server, tb.host(1));
    server->start();

    // Two connections per shard, two 5 s calls per connection: per shard
    // one call is executing and three are queued when the server stops.
    std::vector<std::unique_ptr<rpc::RpcClient>> clients;
    std::vector<int> outcomes(16, 0);
    for (int i = 0; i < 8; ++i) {
      clients.push_back(engine.make_client(tb.host(kClientHosts[i % 8])));
      s.spawn(slow_expect_error(*clients.back(), outcomes[static_cast<std::size_t>(2 * i)]));
      s.spawn(
          slow_expect_error(*clients.back(), outcomes[static_cast<std::size_t>(2 * i + 1)]));
    }
    s.run_until(sim::seconds(1));
    server->stop();
    for (auto& c : clients) close_client(*c);
    s.run_until(sim::seconds(30));

    for (int o : outcomes) EXPECT_EQ(o, 2);  // every caller saw the teardown
    const rpc::RpcStats& st = server->stats();
    EXPECT_EQ(st.dropped_on_stop, 12u);
    ASSERT_EQ(st.shards.size(), 4u);
    for (const rpc::ShardCounters& sc : st.shards) {
      EXPECT_EQ(sc.dispatched, 4u);
      EXPECT_EQ(sc.dropped, 3u);
    }
    if (auto* srv = dynamic_cast<oib::RdmaRpcServer*>(server.get())) {
      EXPECT_EQ(srv->pool().native().stats().acquires,
                srv->pool().native().stats().releases);
    }
    s.drain_tasks();
  }
}

// --- Stats aggregation ------------------------------------------------------

// The cross-shard aggregation is idempotent (stats() is a rebuild, not an
// accumulation — calling it repeatedly must not double-count) and
// conserves counts: shard counters sum to the aggregate totals.
TEST(Shard, StatsAggregationIsIdempotentAndConserved) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kRpcoIB, .server_shards = 4});
  auto server = engine.make_server(tb.host(1), kAddr);
  register_suite(*server, tb.host(1));
  server->start();

  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(engine.make_client(tb.host(kClientHosts[i % 8])));
    s.spawn(echo_burst(*clients.back(), 5, completed));
  }
  s.run_until(sim::seconds(60));
  EXPECT_EQ(completed, 40);

  const std::string r1 =
      rpc::resilience_report(clients.front()->stats(), nullptr, &server->stats());
  const std::string r2 =
      rpc::resilience_report(clients.front()->stats(), nullptr, &server->stats());
  EXPECT_EQ(r1, r2);  // second aggregation pass changes nothing

  const rpc::RpcStats& st = server->stats();
  ASSERT_EQ(st.shards.size(), 4u);
  std::uint64_t conns = 0;
  for (const rpc::ShardCounters& sc : st.shards) conns += sc.conns_assigned;
  EXPECT_EQ(conns, 8u);
  EXPECT_EQ(sum_dispatched(st), 40u);
  EXPECT_EQ(st.calls_handled, 40u);
  server->stop();
  s.drain_tasks();
}

}  // namespace
}  // namespace rpcoib
