// Failure injection and robustness: server death mid-call, reconnect
// after failure, client shutdown with in-flight calls, NameNode loss,
// end-to-end determinism of whole-cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "hdfs/hdfs_cluster.hpp"
#include "mapred/mr_cluster.hpp"
#include "net/fault.hpp"
#include "net/testbed.hpp"
#include "rpc/resilience.hpp"
#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/engine.hpp"
#include "sim/random.hpp"
#include "workloads/hadoop_jobs.hpp"
#include "workloads/pingpong.hpp"

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

constexpr Address kAddr{1, 9400};
const rpc::MethodKey kSlow{"test.SlowProtocol", "slow"};
const rpc::MethodKey kEcho{"test.SlowProtocol", "echo"};

void register_slow(rpc::RpcServer& server, cluster::Host& host) {
  server.dispatcher().register_method(
      kSlow.protocol, kSlow.method,
      [&host](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
        co_await sim::delay(host.sched(), sim::seconds(5));
        rpc::BooleanWritable(true).write(out);
      });
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
}

Task call_slow_expect_failure(rpc::RpcClient& client, bool& failed) {
  rpc::NullWritable arg;
  try {
    co_await client.call(kAddr, kSlow, arg, nullptr);
  } catch (const rpc::RpcTransportError&) {
    failed = true;
  }
}

TEST(FailureInjection, ServerStopFailsInFlightCalls) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB});
  std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(1), kAddr);
  register_slow(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  bool failed = false;
  s.spawn(call_slow_expect_failure(*client, failed));
  s.run_until(sim::seconds(1));  // call is in flight (handler sleeping 5s)
  server->stop();                // connection torn down under the call
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(failed);
  s.drain_tasks();
}

Task echo_round(rpc::RpcClient& client, int v, int& out, bool& transport_error) {
  rpc::IntWritable param(v), resp;
  try {
    co_await client.call(kAddr, kEcho, param, &resp);
    out = resp.value;
  } catch (const rpc::RpcTransportError&) {
    transport_error = true;
  }
}

TEST(FailureInjection, ClientReconnectsAfterServerRestart) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB});
  auto server = engine.make_server(tb.host(1), kAddr);
  register_slow(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int out1 = 0, out2 = 0;
  bool err1 = false, err2 = false;
  s.spawn(echo_round(*client, 11, out1, err1));
  s.run_until(sim::seconds(5));
  EXPECT_EQ(out1, 11);

  // Kill and restart the server; the cached connection is now dead.
  server->stop();
  s.run_until(sim::seconds(6));
  auto server2 = engine.make_server(tb.host(1), kAddr);
  register_slow(*server2, tb.host(1));
  server2->start();

  // First call after restart may fail on the stale connection; a retry
  // reconnects (Hadoop clients retry at a higher layer).
  s.spawn(echo_round(*client, 22, out2, err2));
  s.run_until(sim::seconds(12));
  if (err2) {
    err2 = false;
    s.spawn(echo_round(*client, 22, out2, err2));
    s.run_until(sim::seconds(20));
  }
  EXPECT_EQ(out2, 22);
  EXPECT_FALSE(err2);
  server2->stop();
  s.drain_tasks();
}

TEST(FailureInjection, RpcoIBServerStopFailsInFlightCalls) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kRpcoIB});
  auto server = engine.make_server(tb.host(1), kAddr);
  register_slow(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  bool failed = false;
  s.spawn(call_slow_expect_failure(*client, failed));
  s.run_until(sim::seconds(1));
  server->stop();
  // RPCoIB responses ride the CQ; stopping closes it. The pending call
  // must not hang forever: tear the client down too, failing the call.
  auto* rdma = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rdma, nullptr);
  rdma->close_connections();
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(failed);
  s.drain_tasks();
}

TEST(FailureInjection, NameNodeLossStopsDatanodeChatterGracefully) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_a(5));
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB});
  hdfs::HdfsCluster cluster(engine, 0, {1, 2, 3}, hdfs::DataMode::kSocketIPoIB);
  cluster.start();
  s.run_until(sim::seconds(10));
  EXPECT_EQ(cluster.namenode().live_datanodes().size(), 3u);
  // NameNode dies; heartbeat loops must exit via transport errors, not
  // crash the simulation.
  cluster.namenode().stop();
  s.run_until(sim::seconds(30));
  cluster.stop();
  s.drain_tasks();
  SUCCEED();
}

TEST(Determinism, WholeStackRunsAreSeedStable) {
  auto run_once = [](std::uint64_t seed) {
    std::vector<workloads::LatencyResult> r = workloads::run_latency(
        RpcMode::kRpcoIB, {1, 1024}, /*warmup=*/2, /*iters=*/4, seed);
    return std::pair(r[0].avg_us, r[1].avg_us);
  };
  EXPECT_EQ(run_once(123), run_once(123));
}

TEST(Determinism, HdfsWriteTimesAreSeedStable) {
  auto run_once = [] {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_a(6));
    RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB});
    hdfs::HdfsCluster cluster(engine, 0, {2, 3, 4}, hdfs::DataMode::kSocketIPoIB);
    cluster.start();
    double secs = 0;
    s.spawn([](Testbed& t, hdfs::HdfsCluster& hc, double& out) -> Task {
      std::unique_ptr<hdfs::DFSClient> c = hc.make_client(t.host(1), "w");
      const sim::Time t0 = t.sched().now();
      co_await c->write_file("/d/f", 100u << 20);
      out = sim::to_sec(t.sched().now() - t0);
    }(tb, cluster, secs));
    s.run_until(sim::seconds(600));
    cluster.stop();
    s.drain_tasks();
    return secs;
  };
  const double a = run_once();
  const double b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0.0);
}

// --- Chaos suite ------------------------------------------------------------
//
// Deterministic fault injection + the retry/timeout/backoff policy. Every
// test below is seedable through RPCOIB_CHAOS_SEED so CI can sweep seeds
// (same seed => byte-identical behavior; different seeds => different but
// still deterministic failure schedules).

/// RPCOIB_BATCHING=1 turns small-message coalescing on for the chaos
/// engines, so the seed sweep also exercises the batch framing/parsing
/// path under fault injection (retries resubmitting into open batches,
/// flush timers racing teardown).
rpc::BatchConfig chaos_batch() {
  rpc::BatchConfig b;
  b.enabled = std::getenv("RPCOIB_BATCHING") != nullptr;
  return b;
}

/// RPCOIB_CHAOS_CONNS sizes the many-connection chaos sweep (CI runs a
/// 64-connection seed; the default keeps local runs quick).
int chaos_conns() {
  const char* env = std::getenv("RPCOIB_CHAOS_CONNS");
  return env != nullptr ? static_cast<int>(std::strtoul(env, nullptr, 10)) : 6;
}

/// RPCOIB_STREAM_CHUNK_KB / RPCOIB_STREAM_DEPTH reshape the bulk-stream
/// ring for the streamed chaos run: tiny chunks multiply the in-flight
/// frame count a mid-stream abort must reclaim, and a depth-1 ring keeps
/// the credit path saturated so faults land inside credit stalls.
oib::stream::StreamConfig chaos_stream() {
  oib::stream::StreamConfig c;
  c.enabled = true;
  if (const char* env = std::getenv("RPCOIB_STREAM_CHUNK_KB")) {
    c.chunk_size = std::strtoull(env, nullptr, 10) << 10;
  }
  if (const char* env = std::getenv("RPCOIB_STREAM_DEPTH")) {
    c.ring_depth = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  return c;
}

Task delayed_echo(Scheduler& s, rpc::RpcClient& client, sim::Dur wait, int v, int& out,
                  bool& err) {
  co_await sim::delay(s, wait);
  rpc::IntWritable param(v), resp;
  try {
    co_await client.call(kAddr, kEcho, param, &resp);
    out = resp.value;
  } catch (const rpc::RpcTransportError&) {
    err = true;
  }
}

TEST(Chaos, RetryCarriesCallThroughLinkFlap) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    plan->add_flap(0, 1, sim::seconds(1), sim::seconds(3));
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::millis(500);
    retry.max_retries = 10;
    retry.backoff_base = sim::millis(100);
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_shards = chaos_shards(), .retry = retry, .batch = chaos_batch()});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_slow(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    // Warm call before the flap establishes the connection; the second
    // call is issued mid-outage and must survive on retries alone.
    int warm = 0, out = 0;
    bool warm_err = false, err = false;
    s.spawn(echo_round(*client, 1, warm, warm_err));
    s.spawn(delayed_echo(s, *client, sim::millis(1500), 77, out, err));
    s.run_until(sim::seconds(60));
    EXPECT_EQ(warm, 1);
    EXPECT_EQ(out, 77);
    EXPECT_FALSE(err);
    EXPECT_GT(client->stats().timeouts, 0u);
    EXPECT_GT(client->stats().retries, 0u);
    EXPECT_GT(plan->counters().outage_hits, 0u);
    server->stop();
    s.drain_tasks();
  }
}

// retry.backoff_cap bounds the doubling: attempt k waits backoff_base * 2^k
// until that passes the cap, then the cap, each plus at most half of it in
// seeded jitter.
TEST(Retry, BackoffDoublesUpToTheCapPlusJitter) {
  rpc::RpcRetryPolicy p;
  p.backoff_base = sim::millis(20);
  p.backoff_cap = sim::millis(100);
  sim::Rng rng(7);
  const sim::Dur floors[] = {sim::millis(20),  sim::millis(40),  sim::millis(80),
                             sim::millis(100), sim::millis(100), sim::millis(100)};
  for (int attempt = 0; attempt < 6; ++attempt) {
    const sim::Dur floor = floors[attempt];
    const sim::Dur d = p.backoff(attempt, rng);
    EXPECT_GE(d, floor) << attempt;
    EXPECT_LE(d, floor + floor / 2) << attempt;
  }
}

Task call_slow_expect_timeout(rpc::RpcClient& client, bool& timed_out) {
  rpc::NullWritable arg;
  try {
    co_await client.call(kAddr, kSlow, arg, nullptr);
  } catch (const rpc::RpcTimeoutError&) {
    timed_out = true;
  }
}

TEST(Chaos, CallTimeoutFailsSlowCall) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);  // handler sleeps 5 s
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_shards = chaos_shards(), .retry = retry, .batch = chaos_batch()});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_slow(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    bool timed_out = false;
    s.spawn(call_slow_expect_timeout(*client, timed_out));
    // Run far past the handler's 5 s so the stale (post-timeout) response
    // also arrives and must be dropped without corrupting the transport.
    s.run_until(sim::seconds(30));
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(client->stats().timeouts, 1u);
    EXPECT_EQ(client->stats().retries, 0u);

    // The connection stays usable after the drop.
    int out = 0;
    bool err = false;
    s.spawn(echo_round(*client, 5, out, err));
    s.run_until(sim::seconds(60));
    EXPECT_EQ(out, 5);
    EXPECT_FALSE(err);
    server->stop();
    s.drain_tasks();
  }
}

TEST(Chaos, NonIdempotentMethodIsNeverRetried) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::seconds(1);
    retry.max_retries = 5;
    retry.non_idempotent.insert(kSlow.to_string());
    RpcEngine engine(tb, EngineConfig{.mode = mode, .server_shards = chaos_shards(), .retry = retry, .batch = chaos_batch()});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_slow(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    bool timed_out = false;
    s.spawn(call_slow_expect_timeout(*client, timed_out));
    s.run_until(sim::seconds(30));
    // A lost reply does not prove the server never executed the call:
    // exactly one attempt, no retries.
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(client->stats().calls_sent, 1u);
    EXPECT_EQ(client->stats().retries, 0u);
    server->stop();
    s.drain_tasks();
  }
}

TEST(Chaos, BootstrapFailureFallsBackToSocketMode) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kRpcoIB});
  auto server = engine.make_server(tb.host(1), kAddr);  // + companion listener
  register_slow(*server, tb.host(1));
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
  engine.verbs().inject_bootstrap_failures(1);

  int out = 0;
  bool err = false;
  s.spawn(echo_round(*client, 42, out, err));
  s.run_until(sim::seconds(30));
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(err);
  EXPECT_EQ(client->stats().socket_reroutes, 1u);
  auto* rdma = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rdma, nullptr);
  EXPECT_EQ(rdma->fallback_address_count(), 1u);

  // The reroute is sticky: later calls keep working without fresh QP
  // bootstrap attempts.
  int out2 = 0;
  bool err2 = false;
  s.spawn(echo_round(*client, 43, out2, err2));
  s.run_until(sim::seconds(60));
  EXPECT_EQ(out2, 43);
  EXPECT_FALSE(err2);
  server->stop();
  s.drain_tasks();
}

Task echo_burst(rpc::RpcClient& client, int n, int& completed) {
  for (int i = 0; i < n; ++i) {
    rpc::IntWritable param(i), resp;
    try {
      co_await client.call(kAddr, kEcho, param, &resp);
      if (resp.value == i) ++completed;
    } catch (const rpc::RpcTransportError&) {
    }
  }
}

TEST(Chaos, SeededFaultRunsYieldByteIdenticalResilienceReports) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    auto run_once = [mode] {
      auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
      plan->set_default_faults(
          {.drop_prob = 0.05, .spike_prob = 0.1, .spike_extra = sim::millis(2)});
      net::TestbedConfig cfg = Testbed::cluster_b();
      cfg.fault = plan;
      Scheduler s;
      Testbed tb(s, cfg);
      rpc::RpcRetryPolicy retry;
      retry.call_timeout = sim::millis(500);
      retry.max_retries = 6;
      RpcEngine engine(tb, EngineConfig{.mode = mode, .server_shards = chaos_shards(), .retry = retry, .batch = chaos_batch()});
      auto server = engine.make_server(tb.host(1), kAddr);
      register_slow(*server, tb.host(1));
      server->start();
      std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
      int completed = 0;
      s.spawn(echo_burst(*client, 40, completed));
      s.run_until(sim::seconds(120));
      EXPECT_EQ(completed, 40);
      std::string report = rpc::resilience_report(client->stats(), &plan->counters());
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

// Many faulted connections through the shared receive ring: every call
// retries to completion, the SRQ counters stay live, and the whole run is
// byte-identical per seed. RPCOIB_SRQ_DEPTH shrinks the ring (refill and
// RNR under fire) and RPCOIB_CHAOS_CONNS scales the connection count.
TEST(Chaos, SrqServerSurvivesFaultedManyConnectionSweep) {
  auto run_once = [] {
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    plan->set_default_faults(
        {.drop_prob = 0.03, .spike_prob = 0.08, .spike_extra = sim::millis(1)});
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::millis(500);
    retry.max_retries = 10;
    retry.backoff_base = sim::millis(50);
    EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_handlers = 4,
                    .server_shards = chaos_shards(), .retry = retry};
    ec.batch = chaos_batch();
    ec.pool = chaos_pool();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    register_slow(*server, tb.host(1));
    server->start();

    static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};
    const int conns = chaos_conns();
    std::vector<std::unique_ptr<rpc::RpcClient>> clients;
    int completed = 0;
    for (int i = 0; i < conns; ++i) {
      clients.push_back(engine.make_client(tb.host(kClientHosts[i % 8])));
      s.spawn(echo_burst(*clients.back(), 8, completed));
    }
    s.run_until(sim::seconds(300));
    EXPECT_EQ(completed, conns * 8);
    if (ec.pool.srq_depth > 0) {
      EXPECT_GT(server->stats().srq_posted, 0u);
    }

    rpc::RpcStats merged;
    for (auto& c : clients) merged.merge(c->stats());
    std::string report =
        rpc::resilience_report(merged, &plan->counters(), &server->stats());
    report += "\nfinished at " + std::to_string(s.now());
    server->stop();
    s.drain_tasks();
    return report;
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Chaos, DisabledFaultPlanIsByteIdenticalToNoPlan) {
  enum class Plan { kNone, kEmpty, kDatagramLossOnly };
  auto run_once = [](Plan variant) {
    Scheduler s;
    net::TestbedConfig cfg = Testbed::cluster_b();
    if (variant != Plan::kNone) {
      auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
      // The datagram-loss knob must be inert for RC/socket traffic: only
      // the UD send path consults it, so with UD off the run must stay
      // byte-identical to a fault-free fabric even with loss configured.
      if (variant == Plan::kDatagramLossOnly) plan->set_datagram_loss(0.5);
      cfg.fault = plan;
    }
    Testbed tb(s, cfg);
    RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kRpcoIB});
    auto server = engine.make_server(tb.host(1), kAddr);
    register_slow(*server, tb.host(1));
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
    int completed = 0;
    s.spawn(echo_burst(*client, 20, completed));
    s.run_until(sim::seconds(60));
    EXPECT_EQ(completed, 20);
    const sim::Time done_at = s.now();
    server->stop();
    s.drain_tasks();
    return done_at;
  };
  // An attached-but-empty plan draws zero random numbers and adds zero
  // delay: virtual timings match a fault-free fabric exactly.
  const sim::Time base = run_once(Plan::kNone);
  EXPECT_EQ(base, run_once(Plan::kEmpty));
  EXPECT_EQ(base, run_once(Plan::kDatagramLossOnly));
}

// --- FaultPlan RNG stream isolation -----------------------------------------
//
// The three fault sources draw from three independent streams of the same
// seed: configuring (and drawing from) the datagram-loss knob must leave
// the drop/spike and kill schedules bit-identical, and vice versa. This
// pins the property the chaos suite's byte-identity tests rely on when
// the UD matrix leg flips RPCOIB_UD=1 on an otherwise unchanged seed.
TEST(Determinism, DatagramLossKnobRidesItsOwnRngStream) {
  const net::LinkFaults faults{.drop_prob = 0.2, .spike_prob = 0.2,
                               .spike_extra = sim::millis(1)};
  // Signature of the drop/spike/kill schedule; optionally interleave a
  // datagram draw between every step to try to perturb it.
  auto reliable_sig = [&faults](bool draw_datagrams) {
    net::FaultPlan p(chaos_seed());
    p.set_default_faults(faults);
    p.set_kill_prob(0.1);
    if (draw_datagrams) p.set_datagram_loss(0.5);
    std::string sig;
    for (int i = 0; i < 256; ++i) {
      const sim::Time now = sim::millis(i);
      const net::FaultDecision d = p.decide(0, 1, now, /*reliable=*/(i % 2) == 0);
      sig += d.lost ? 'L' : '.';
      sig += std::to_string(d.extra);
      sig += p.take_kill(0, 1, now) ? 'K' : '-';
      if (draw_datagrams) (void)p.take_datagram_loss(0, 1, now);
    }
    return sig;
  };
  EXPECT_EQ(reliable_sig(false), reliable_sig(true));

  // And the mirror: the datagram-loss schedule is unchanged when the
  // drop/spike/kill knobs are configured and drawn from in between.
  auto datagram_sig = [&faults](bool draw_others) {
    net::FaultPlan p(chaos_seed());
    p.set_datagram_loss(0.5);
    if (draw_others) {
      p.set_default_faults(faults);
      p.set_kill_prob(0.1);
    }
    std::string sig;
    for (int i = 0; i < 256; ++i) {
      const sim::Time now = sim::millis(i);
      sig += p.take_datagram_loss(0, 1, now) ? 'X' : '.';
      if (draw_others) {
        (void)p.decide(0, 1, now, /*reliable=*/(i % 2) == 0);
        (void)p.take_kill(0, 1, now);
      }
    }
    return sig;
  };
  EXPECT_EQ(datagram_sig(false), datagram_sig(true));
}

TEST(Chaos, HdfsPipelineRetriesThroughDatanodeLoss) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_a(6));
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB});
  hdfs::HdfsConfig cfg;
  cfg.block_size = 4ULL << 20;
  cfg.pipeline_retries = 50;
  cfg.heartbeat_interval = sim::seconds(2);
  cfg.dn_dead_after = sim::seconds(6);
  cfg.replication_check_interval = sim::seconds(2);
  hdfs::HdfsCluster cluster(engine, 0, {2, 3, 4, 5}, hdfs::DataMode::kSocketIPoIB, cfg);
  cluster.start();
  s.run_until(sim::seconds(1));  // registrations land

  bool done = false;
  std::uint64_t retried = 0;
  s.spawn([](Testbed& t, hdfs::HdfsCluster& hc, bool& ok, std::uint64_t& n) -> Task {
    std::unique_ptr<hdfs::DFSClient> c = hc.make_client(t.host(1), "chaos-writer");
    co_await c->write_file("/chaos/f", 128u << 20);
    n = c->pipeline_retries_count();
    ok = true;
  }(tb, cluster, done, retried));
  s.run_until(s.now() + sim::millis(80));  // a few of the 32 blocks written
  // One pipeline DataNode dies mid-write. The client must abandon the
  // affected block, re-request targets, and still finish the file.
  cluster.datanode_object(2)->stop();
  s.run_until(sim::seconds(900));
  EXPECT_TRUE(done);
  EXPECT_GE(retried, 1u);
  cluster.stop();
  s.drain_tasks();
}

TEST(Chaos, StreamedPipelineRetriesThroughDatanodeLoss) {
  // Same datanode-loss schedule as above, but with the bulk-streaming
  // subsystem carrying the blocks: a mid-stream loss must abort cleanly
  // (no leaked registered chunks), the client must abandonBlock and
  // re-drive the block, and the file must still complete fully replicated.
  Scheduler s;
  Testbed tb(s, Testbed::cluster_a(6));
  oib::EngineConfig ec{.mode = RpcMode::kRpcoIB};
  ec.stream = chaos_stream();
  RpcEngine engine(tb, ec);
  hdfs::HdfsConfig cfg;
  cfg.block_size = 4ULL << 20;
  cfg.pipeline_retries = 50;
  cfg.heartbeat_interval = sim::seconds(2);
  cfg.dn_dead_after = sim::seconds(6);
  cfg.replication_check_interval = sim::seconds(2);
  hdfs::HdfsCluster cluster(engine, 0, {2, 3, 4, 5}, hdfs::DataMode::kRdma, cfg);
  cluster.start();
  s.run_until(sim::seconds(1));  // registrations land

  bool done = false;
  std::uint64_t retried = 0;
  std::uint64_t client_aborts = 0;
  std::uint64_t client_opened = 0;
  s.spawn([](Testbed& t, hdfs::HdfsCluster& hc, bool& ok, std::uint64_t& n,
             std::uint64_t& aborts, std::uint64_t& opened) -> Task {
    std::unique_ptr<hdfs::DFSClient> c = hc.make_client(t.host(1), "chaos-writer");
    co_await c->write_file("/chaos/streamed", 128u << 20);
    n = c->pipeline_retries_count();
    if (c->stream_hub() != nullptr) {
      aborts = c->stream_hub()->stats().stream_aborts;
      opened = c->stream_hub()->stats().streams_opened;
    }
    ok = true;
  }(tb, cluster, done, retried, client_aborts, client_opened));
  s.run_until(s.now() + sim::millis(80));  // a few of the 32 blocks in flight
  // One pipeline DataNode dies mid-write: its hub aborts every active
  // stream, upstream writers see the abort, and the client re-drives the
  // affected block through abandonBlock + fresh targets.
  cluster.datanode_object(2)->stop();
  s.run_until(sim::seconds(900));
  EXPECT_TRUE(done);
  EXPECT_GE(retried, 1u);
  EXPECT_GE(client_opened, 32u);  // the blocks still went through streams
  EXPECT_GE(client_aborts, 1u);   // at least the interrupted one aborted

  cluster.stop();
  s.run_until(s.now() + sim::seconds(1));
  // Clean abort everywhere: no registered ring/staging slot leaked on any
  // datanode hub, including the one that died mid-stream.
  for (hdfs::DatanodeId id : {2, 3, 4, 5}) {
    oib::stream::StreamHub* hub = cluster.datanode_object(id)->stream_hub();
    ASSERT_NE(hub, nullptr) << id;
    EXPECT_EQ(hub->pool().stats().acquires, hub->pool().stats().releases) << id;
  }
  s.drain_tasks();
}

TEST(Chaos, JobTrackerReexecutesTasksOfLostTaskTracker) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_a(4));
  RpcEngine engine(tb, EngineConfig{.mode = RpcMode::kSocketIPoIB});
  const std::vector<cluster::HostId> slaves = {1, 2, 3};
  hdfs::HdfsConfig hdfs_cfg;
  hdfs_cfg.block_size = 8 << 20;
  hdfs::HdfsCluster hdfs_cluster(engine, 0, slaves, hdfs::DataMode::kSocketIPoIB, hdfs_cfg);
  mapred::JobTrackerConfig jt_cfg;
  jt_cfg.tracker_expiry = sim::seconds(6);
  jt_cfg.expiry_check_interval = sim::seconds(2);
  mapred::MrCluster mr(engine, hdfs_cluster, 0, slaves, {}, jt_cfg);
  hdfs_cluster.start();
  mr.start();

  mapred::JobSpec spec;
  spec.name = "chaos-maps";
  spec.num_maps = 6;
  spec.num_reduces = 0;
  spec.map_only = true;
  spec.input_bytes = 6ULL << 20;
  spec.map_cpu_us_per_mb = 15'000'000.0;  // ~15 s of user CPU per map
  spec.output_path = "/chaos-out";

  double secs = 0;
  s.spawn([](Testbed& t, mapred::MrCluster& c, mapred::JobSpec sp, double& out) -> Task {
    std::unique_ptr<mapred::JobClient> client = c.make_client(t.host(0));
    out = co_await client->run(sp);
  }(tb, mr, spec, secs));
  s.run_until(sim::seconds(5));  // maps assigned and running on all trackers
  mr.stop_tasktracker(0);        // slave dies with tasks in flight
  s.run_until(sim::seconds(600));

  EXPECT_GT(secs, 0.0);
  const mapred::JobStatus st = mr.jobtracker().status_of(1);
  EXPECT_TRUE(st.complete);
  EXPECT_EQ(st.maps_done, 6);
  EXPECT_GT(mr.jobtracker().tasks_reexecuted(), 0u);
  mr.stop();
  hdfs_cluster.stop();
  s.drain_tasks();
}

TEST(Chaos, MiniSortOverFlappingLinkIsIdenticalAcrossRuns) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    auto run_once = [mode] {
      workloads::ChaosConfig chaos;
      auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
      plan->set_default_faults({.drop_prob = 0.02});
      plan->add_flap(0, 1, sim::seconds(2), sim::seconds(3));
      chaos.fault = plan;
      chaos.engine.retry.call_timeout = sim::seconds(3);
      chaos.engine.retry.max_retries = 4;
      chaos.tracker_expiry = sim::seconds(30);
      chaos.pipeline_retries = 5;
      return workloads::run_randomwriter_sort(mode, /*slaves=*/2, 128ULL << 20,
                                              /*seed=*/7, nullptr, &chaos);
    };
    const workloads::SortResult first = run_once();
    EXPECT_GT(first.randomwriter_secs, 0.0);
    EXPECT_GT(first.sort_secs, 0.0);
    for (int i = 0; i < 4; ++i) {
      const workloads::SortResult again = run_once();
      EXPECT_EQ(again.randomwriter_secs, first.randomwriter_secs);
      EXPECT_EQ(again.sort_secs, first.sort_secs);
    }
  }
}

}  // namespace
}  // namespace rpcoib
