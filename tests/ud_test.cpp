// UD datagram eager path: flat per-connection server state with lossy
// delivery made exactly-once by the session/retry layer.
//
// The tentpole gate lives here: under seeded datagram loss every bump
// seq must land in the server's execution ledger exactly once, with zero
// RC connections opened (sub-MTU traffic never bootstraps a QP), the
// pools balanced on both ends, and the merged resilience report
// byte-identical across runs of the same seed. Seedable through
// RPCOIB_CHAOS_SEED / RPCOIB_SHARDS like the rest of the chaos suite.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "net/fault.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/resilience.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"
#include "rpcoib/wire.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"
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

constexpr Address kAddr{1, 9500};
const rpc::MethodKey kEcho{"test.UdProtocol", "echo"};
const rpc::MethodKey kBump{"test.UdProtocol", "bump"};
const rpc::MethodKey kBlob{"test.UdProtocol", "blob"};
const rpc::MethodKey kSink{"test.UdProtocol", "sink"};

oib::UdConfig ud_on() {
  oib::UdConfig u;
  u.enabled = true;
  return u;
}

/// echo/bump mirror the session suite; blob returns an n-byte payload
/// (oversize-response probe) and sink swallows one (large-request probe).
void register_ud_methods(rpc::RpcServer& server, std::map<int, int>& exec) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
  server.dispatcher().register_method(
      kBump.protocol, kBump.method,
      [&exec](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable seq;
        seq.read_fields(in);
        ++exec[seq.value];
        seq.write(out);
        co_return;
      });
  server.dispatcher().register_method(
      kBlob.protocol, kBlob.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable n;
        n.read_fields(in);
        rpc::BytesWritable blob(net::Bytes(static_cast<std::size_t>(n.value), 0x5a));
        blob.write(out);
        co_return;
      });
  server.dispatcher().register_method(
      kSink.protocol, kSink.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable payload;
        payload.read_fields(in);
        rpc::IntWritable size(static_cast<int>(payload.value.size()));
        size.write(out);
        co_return;
      });
}

rpc::RpcRetryPolicy session_retry() {
  rpc::RpcRetryPolicy retry;
  retry.call_timeout = sim::millis(500);
  retry.max_retries = 10;
  retry.backoff_base = sim::millis(100);
  retry.non_idempotent.insert(kBump.to_string());
  retry.retry_non_idempotent_on_timeout = true;
  return retry;
}

rpc::SessionConfig sessions_on() {
  rpc::SessionConfig s;
  s.enabled = true;
  return s;
}

Task bump_burst(Scheduler& s, rpc::RpcClient& client, int base_seq, int count,
                sim::Dur gap, int& completed, int& errors) {
  for (int i = 0; i < count; ++i) {
    co_await sim::delay(s, gap);
    rpc::IntWritable param(base_seq + i), resp;
    try {
      co_await client.call(kAddr, kBump, param, &resp);
      if (resp.value == base_seq + i) ++completed;
    } catch (const rpc::RpcTransportError&) {
      ++errors;
    }
  }
}

Co<void> one_echo(rpc::RpcClient& client, int v, int& out, bool& err) {
  rpc::IntWritable param(v), resp;
  try {
    co_await client.call(kAddr, kEcho, param, &resp);
    out = resp.value;
  } catch (const rpc::RpcTransportError&) {
    err = true;
  }
}

Task echo_task(rpc::RpcClient& client, int v, int& out, bool& err) {
  co_await one_echo(client, v, out, err);
}

Co<void> one_bump(rpc::RpcClient& client, int seq, bool& ok, bool& err) {
  rpc::IntWritable param(seq), resp;
  try {
    co_await client.call(kAddr, kBump, param, &resp);
    ok = resp.value == seq;
  } catch (const rpc::RpcTransportError&) {
    err = true;
  }
}

// --- The flat-state core: eager calls never bootstrap RC ---------------------
//
// Sub-MTU calls ride datagrams into the fixed endpoint pool, so the
// client opens zero RC connections; only a rendezvous-sized request
// falls back to the connected path.
TEST(Ud, EagerCallsRideDatagramsWithoutRcState) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.ud = ud_on();
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int sunk = 0;
  bool err = false;
  s.spawn([](rpc::RpcClient& c, bool& e) -> Task {
    for (int i = 0; i < 10; ++i) {
      rpc::IntWritable param(i), resp;
      try {
        co_await c.call(kAddr, kEcho, param, &resp);
        if (resp.value != i) e = true;
      } catch (const rpc::RpcTransportError&) {
        e = true;
      }
    }
    co_return;
  }(*client, err));
  s.run_until(sim::seconds(5));
  EXPECT_FALSE(err);
  EXPECT_EQ(client->stats().calls_sent, 10u);
  EXPECT_EQ(client->stats().ud_datagrams_sent, 10u);
  EXPECT_EQ(client->stats().ud_responses_received, 10u);
  // The flat-state claim: ten eager calls, zero RC connections.
  EXPECT_EQ(client->stats().connections_opened, 0u);
  EXPECT_EQ(server->stats().ud_calls_received, 10u);
  EXPECT_EQ(server->stats().ud_responses_sent, 10u);

  // A rendezvous-sized request exceeds the datagram budget and takes the
  // RC path — the first and only QP bootstrap of the run.
  bool sink_err = false;
  s.spawn([](rpc::RpcClient& c, int& out, bool& e) -> Task {
    rpc::BytesWritable payload(net::Bytes(8192, 0x33));
    rpc::IntWritable resp;
    try {
      co_await c.call(kAddr, kSink, payload, &resp);
      out = resp.value;
    } catch (const rpc::RpcTransportError&) {
      e = true;
    }
    co_return;
  }(*client, sunk, sink_err));
  s.run_until(sim::seconds(10));
  EXPECT_FALSE(sink_err);
  EXPECT_EQ(sunk, 8192);
  EXPECT_GE(client->stats().ud_rc_fallbacks, 1u);
  EXPECT_EQ(client->stats().connections_opened, 1u);

  server->stop();
  auto* rc = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rc, nullptr);
  rc->close_connections();
  EXPECT_EQ(rc->pool().native().stats().acquires, rc->pool().native().stats().releases);
  auto* rs = dynamic_cast<oib::RdmaRpcServer*>(server.get());
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->pool().native().stats().acquires, rs->pool().native().stats().releases);
  s.drain_tasks();
}

// --- Tentpole acceptance: exactly-once under seeded datagram loss -----------
//
// UD silently drops datagrams; the session + retry-cache path must turn
// that into exactly-once execution. Four clients, seeded loss on every
// link, every bump executes exactly once, no RC connections, balanced
// pools, byte-identical reports across runs.
TEST(Chaos, UdSeededDatagramLossStaysExactlyOnce) {
  auto run_once = [] {
    static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4};
    constexpr int kConns = 4;
    constexpr int kCalls = 12;
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    plan->set_datagram_loss(0.08);
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_handlers = 4,
                    .server_shards = chaos_shards(), .retry = session_retry()};
    ec.overload.retry_cache_entries = 256;
    ec.session = sessions_on();
    ec.ud = ud_on();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_ud_methods(*server, exec);
    server->start();

    std::vector<std::unique_ptr<rpc::RpcClient>> clients;
    int completed = 0, errors = 0;
    for (int i = 0; i < kConns; ++i) {
      clients.push_back(engine.make_client(tb.host(kClientHosts[i])));
      s.spawn(bump_burst(s, *clients[i], 100 * (i + 1), kCalls, sim::millis(20),
                         completed, errors));
    }
    s.run_until(sim::seconds(300));

    EXPECT_EQ(completed, kConns * kCalls);
    EXPECT_EQ(errors, 0);
    EXPECT_GT(plan->counters().datagram_losses, 0u)
        << "seed produced no loss; the gate proved nothing";
    rpc::RpcStats merged;
    for (auto& c : clients) merged.merge(c->stats());
    EXPECT_GT(merged.ud_datagrams_sent, 0u);
    EXPECT_GE(merged.retries, 1u);
    // Losses never push traffic onto RC: sub-MTU retries are datagrams too.
    EXPECT_EQ(merged.connections_opened, 0u);
    // The exactly-once ledger: every seq exactly once, despite retransmits.
    EXPECT_EQ(exec.size(), static_cast<std::size_t>(kConns * kCalls));
    for (const auto& [seq, n] : exec) {
      EXPECT_EQ(n, 1) << "seq " << seq << " executed " << n << " times";
    }
    std::string report =
        rpc::resilience_report(merged, &plan->counters(), &server->stats());
    EXPECT_NE(report.find("ud datagrams sent"), std::string::npos);
    EXPECT_NE(report.find("server ud calls received"), std::string::npos);
    EXPECT_NE(report.find("fault datagram losses"), std::string::npos);
    report += "\nfinished at " + std::to_string(s.now());
    server->stop();
    for (auto& c : clients) {
      auto* rc = dynamic_cast<oib::RdmaRpcClient*>(c.get());
      EXPECT_NE(rc, nullptr);
      if (rc != nullptr) {
        rc->close_connections();
        EXPECT_EQ(rc->pool().native().stats().acquires,
                  rc->pool().native().stats().releases);
      }
    }
    auto* rs = dynamic_cast<oib::RdmaRpcServer*>(server.get());
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

// --- Batch frames ride UD, clamped to the datagram MTU ----------------------
//
// PR 4's multi-call coalescing wraps whole kBatch frames in one kUdCall
// datagram. The byte limit must clamp to the MTU even when batch.max_bytes
// is larger — an oversize post_send would throw and fail the calls.
TEST(Ud, BatchedCallsShareDatagramsWithinMtu) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.session = sessions_on();
  ec.ud = ud_on();
  ec.batch.enabled = true;
  ec.batch.small_threshold = 512;
  ec.batch.max_bytes = 65536;  // far past the MTU: the UD clamp must bite
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  constexpr int kCalls = 32;
  std::vector<int> outs(kCalls, -1);
  std::vector<char> errs(kCalls, 0);
  for (int i = 0; i < kCalls; ++i) {
    s.spawn([](rpc::RpcClient& c, int v, int& out, char& e) -> Task {
      bool berr = false;
      co_await one_echo(c, v, out, berr);
      e = berr ? 1 : 0;
    }(*client, i, outs[i], errs[i]));
  }
  s.run_until(sim::seconds(10));

  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(outs[i], i) << "call " << i;
    EXPECT_EQ(errs[i], 0) << "call " << i;
  }
  EXPECT_EQ(client->stats().batched_calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_GE(client->stats().batches_sent, 2u);  // max_calls caps one frame at 16
  EXPECT_EQ(client->stats().connections_opened, 0u);
  EXPECT_GE(server->stats().batches_received, 2u);
  EXPECT_EQ(server->stats().batched_calls_received, static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(server->stats().ud_calls_received, static_cast<std::uint64_t>(kCalls));
  server->stop();
  s.drain_tasks();
}

// --- Oversize responses bounce with a terminal error ------------------------
//
// A sub-MTU request whose *response* cannot fit one datagram is answered
// with an error frame instead of a silent drop (which would burn the
// whole retry budget before failing).
TEST(Ud, OversizeResponseBouncesWithRemoteError) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.ud = ud_on();
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  bool remote_err = false;
  std::string err_msg;
  int small_blob = 0;
  s.spawn([](rpc::RpcClient& c, bool& e, std::string& msg, int& small) -> Task {
    // 8 KB response: rides over the 16 KB eager threshold server-side but
    // not through a 4 KB datagram.
    rpc::IntWritable big(8192);
    rpc::BytesWritable resp;
    try {
      co_await c.call(kAddr, kBlob, big, &resp);
    } catch (const rpc::RemoteException& ex) {
      e = true;
      msg = ex.what();
    }
    // The endpoint pool stays healthy afterwards: a fitting response works.
    rpc::IntWritable fit(512);
    rpc::BytesWritable ok;
    co_await c.call(kAddr, kBlob, fit, &ok);
    small = static_cast<int>(ok.value.size());
    co_return;
  }(*client, remote_err, err_msg, small_blob));
  s.run_until(sim::seconds(10));

  EXPECT_TRUE(remote_err);
  EXPECT_NE(err_msg.find("UD datagram MTU"), std::string::npos) << err_msg;
  EXPECT_EQ(small_blob, 512);
  EXPECT_EQ(server->stats().ud_resp_oversize, 1u);
  EXPECT_EQ(client->stats().connections_opened, 0u);
  server->stop();
  s.drain_tasks();
}

// --- Default-off discipline -------------------------------------------------
TEST(Ud, DisabledUdAdvertisesNothingAndKeepsReportsClean) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  // No UD service on the stack: clients cannot even try the datagram path.
  EXPECT_EQ(engine.verbs().ud_service(kAddr), nullptr);
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int out = 0;
  bool err = false;
  s.spawn(echo_task(*client, 5, out, err));
  s.run_until(sim::seconds(5));
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(err);
  EXPECT_EQ(client->stats().ud_datagrams_sent, 0u);
  const std::string report =
      rpc::resilience_report(client->stats(), nullptr, &server->stats());
  EXPECT_EQ(report.find("ud datagrams sent"), std::string::npos);
  EXPECT_EQ(report.find("server ud calls received"), std::string::npos);
  server->stop();
  s.drain_tasks();
}

// --- Satellite 1: mismatched eager thresholds cannot overrun recv rings -----
//
// The rings must be sized from the *negotiated* threshold, not the local
// default: a peer that advertises nothing ("0") falls back to its own
// threshold and may legally send eager frames larger than this side's
// 8 KiB buffers. Covered in both directions (client ring sized against a
// 16 KB server; the server's shared ring, posted before any handshake,
// against a 16 KB client), with the UD path both off and on.
TEST(UdThreshold, MismatchedThresholdCannotOverrunPeerRing) {
  for (bool ud_enabled : {false, true}) {
    SCOPED_TRACE(ud_enabled ? "ud-on" : "ud-off");
    // Direction A: the client advertises no threshold; the server (16 KB
    // threshold) sends a 10 KB eager response that must still land in the
    // client's ring.
    {
      Scheduler s;
      Testbed tb(s, Testbed::cluster_b());
      verbs::VerbsStack verbs(tb.fabric());
      oib::RdmaServerConfig scfg;
      scfg.shards = chaos_shards();
      scfg.eager_threshold = 16 * 1024;
      if (ud_enabled) scfg.ud = ud_on();
      oib::RdmaRpcServer server(tb.host(1), tb.sockets(), verbs, kAddr, scfg);
      std::map<int, int> exec;
      register_ud_methods(server, exec);
      server.start();

      oib::RdmaClientConfig ccfg;
      ccfg.eager_threshold = 0;  // "not advertised": peer uses its own 16 KB
      if (ud_enabled) ccfg.ud = ud_on();
      oib::RdmaRpcClient client(tb.host(0), tb.sockets(), verbs, ccfg);

      int got = 0;
      bool err = false;
      s.spawn([](rpc::RpcClient& c, int& out, bool& e) -> Task {
        rpc::IntWritable n(10000);
        rpc::BytesWritable resp;
        try {
          co_await c.call(kAddr, kBlob, n, &resp);
          out = static_cast<int>(resp.value.size());
        } catch (const rpc::RpcTransportError&) {
          e = true;
        }
        co_return;
      }(client, got, err));
      s.run_until(sim::seconds(10));
      EXPECT_FALSE(err);
      EXPECT_EQ(got, 10000) << "server's eager response overran the client ring";
      server.stop();
      client.close_connections();
      s.drain_tasks();
    }
    // Direction B: the server runs no threshold; the client (16 KB
    // threshold) sends a 10 KB call that must still land in the server's
    // shared ring.
    {
      Scheduler s;
      Testbed tb(s, Testbed::cluster_b());
      verbs::VerbsStack verbs(tb.fabric());
      oib::RdmaServerConfig scfg;
      scfg.shards = chaos_shards();
      scfg.eager_threshold = 0;  // "not advertised": peer uses its own 16 KB
      if (ud_enabled) scfg.ud = ud_on();
      oib::RdmaRpcServer server(tb.host(1), tb.sockets(), verbs, kAddr, scfg);
      std::map<int, int> exec;
      register_ud_methods(server, exec);
      server.start();

      oib::RdmaClientConfig ccfg;
      ccfg.eager_threshold = 16 * 1024;
      if (ud_enabled) ccfg.ud = ud_on();
      oib::RdmaRpcClient client(tb.host(0), tb.sockets(), verbs, ccfg);

      int sunk = 0;
      bool err = false;
      s.spawn([](rpc::RpcClient& c, int& out, bool& e) -> Task {
        rpc::BytesWritable payload(net::Bytes(10000, 0x77));
        rpc::IntWritable resp;
        try {
          co_await c.call(kAddr, kSink, payload, &resp);
          out = resp.value;
        } catch (const rpc::RpcTransportError&) {
          e = true;
        }
        co_return;
      }(client, sunk, err));
      s.run_until(sim::seconds(10));
      EXPECT_FALSE(err);
      EXPECT_EQ(sunk, 10000) << "client's eager call overran the server ring";
      server.stop();
      client.close_connections();
      s.drain_tasks();
    }
  }
}

// --- Satellite 2: batched retries bounce per sub-call across expiry ---------
//
// Two non-idempotent calls coalesce into one kBatch frame; the link dies
// under it and the session lease expires during the backoff. A fresh
// call then revives (and fences) the session just before the retried
// frame arrives. Every sub-call must be refused *individually* with the
// terminal session-expired status — two rejections in the server
// counters, not one frame-level bounce — and nothing re-executes. Runs
// on sockets, RC, and UD (where the frame is swallowed by an outage
// window instead of a connection kill: UD has no connection to kill).
TEST(Session, BatchedRetryAcrossExpiryBouncesEachSubCall) {
  struct Leg {
    RpcMode mode;
    bool ud;
  };
  for (Leg leg : {Leg{RpcMode::kSocketIPoIB, false}, Leg{RpcMode::kRpcoIB, false},
                  Leg{RpcMode::kRpcoIB, true}}) {
    SCOPED_TRACE(std::string(oib::rpc_mode_name(leg.mode)) +
                 (leg.ud ? "+ud" : ""));
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    if (leg.ud) {
      // Swallow every datagram in [1s, 1.4s): the batched first attempt
      // vanishes exactly like a killed RC send.
      plan->add_outage(net::FaultWindow{0, 1, sim::seconds(1), sim::millis(1400)});
    } else {
      plan->add_connection_kill(0, 1, sim::seconds(1));
    }
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    rpc::RpcRetryPolicy retry = session_retry();
    retry.max_retries = 3;
    retry.backoff_base = sim::seconds(5);  // backoff outlives the lease
    EngineConfig ec{.mode = leg.mode, .server_shards = chaos_shards(),
                    .retry = retry};
    ec.overload.retry_cache_entries = 256;
    ec.session = sessions_on();
    ec.session.lease = sim::seconds(2);
    ec.batch.enabled = true;
    ec.batch.small_threshold = 512;
    if (leg.ud) ec.ud = ud_on();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_ud_methods(*server, exec);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int warm = 0;
    bool warm_err = false;
    s.spawn(echo_task(*client, 7, warm, warm_err));
    s.run_until(sim::millis(500));
    EXPECT_EQ(warm, 7);

    // t=1s: two bumps issued back to back coalesce into one frame, which
    // the kill/outage swallows; both retries back off 5s.
    bool ok1 = false, err1 = false, ok2 = false, err2 = false;
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o, bool& e) -> Task {
      co_await sim::delay(sc, sim::seconds(1));
      co_await one_bump(c, 201, o, e);
    }(s, *client, ok1, err1));
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o, bool& e) -> Task {
      co_await sim::delay(sc, sim::seconds(1));
      co_await one_bump(c, 202, o, e);
    }(s, *client, ok2, err2));
    // t=4.5s on: the lease (2s) has expired the session; fresh echoes
    // revive and fence it, and keep it alive across the whole
    // backoff+jitter window — so each retried sub-call races a LIVE
    // session with an empty dedup cache, the exact per-sub-call race.
    int revived = 0;
    bool revived_err = false;
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, int& out, bool& e) -> Task {
      co_await sim::delay(sc, sim::millis(4500));
      for (int i = 0; i < 10 && !e; ++i) {
        co_await one_echo(c, 11, out, e);
        co_await sim::delay(sc, sim::millis(500));
      }
    }(s, *client, revived, revived_err));
    s.run_until(sim::seconds(120));

    EXPECT_EQ(revived, 11);
    EXPECT_FALSE(revived_err);
    // Both sub-calls bounce terminally and individually.
    EXPECT_FALSE(ok1);
    EXPECT_TRUE(err1);
    EXPECT_FALSE(ok2);
    EXPECT_TRUE(err2);
    EXPECT_GE(server->stats().sessions_rejected, 2u)
        << "expired batch was not refused per sub-call";
    EXPECT_GE(server->stats().sessions_expired, 1u);
    EXPECT_LE(exec[201], 1) << "batched retry re-executed sub-call 201";
    EXPECT_LE(exec[202], 1) << "batched retry re-executed sub-call 202";
    EXPECT_GE(client->stats().batches_sent, 1u);
    if (leg.ud) {
      EXPECT_GE(client->stats().ud_datagrams_sent, 1u);
      EXPECT_EQ(client->stats().connections_opened, 0u);
      EXPECT_GE(plan->counters().datagram_losses, 1u);
    } else {
      EXPECT_EQ(plan->counters().kills, 1u);
    }
    server->stop();
    s.drain_tasks();
  }
}

// --- rx_dropped aggregation: monotonic across stop/start, idempotent syncs --
//
// The server folds the previous run's endpoint drop counts into
// ud_rx_dropped_base_ when start() rebuilds the pool, and fold_stats()
// reports base + the live endpoints' counts as an assignment. Regression
// gates: a stop/start cycle neither double-counts nor loses drops, and
// calling stats() repeatedly (each call re-syncs) never inflates the
// number.
TEST(Ud, RxDroppedAggregationSurvivesRestartWithoutDoubleCount) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  rpc::RpcRetryPolicy retry;
  retry.call_timeout = sim::millis(200);
  retry.max_retries = 10;
  retry.backoff_base = sim::millis(50);
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards(),
                  .retry = retry};
  ec.ud = ud_on();
  // One endpoint with a single-slot ring: simultaneous bursts from four
  // hosts must overrun it while a datagram is being copied out.
  ec.ud.server_endpoints = 1;
  ec.ud.recv_depth = 1;
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();

  static constexpr cluster::HostId kHosts[] = {0, 2, 3, 4};
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (cluster::HostId h : kHosts) clients.push_back(engine.make_client(tb.host(h)));

  // Results arena: the echo tasks write through references, so the
  // storage must outlive every spawned task.
  std::vector<int> outs(256, -1);
  std::vector<char> errs(256, 0);
  std::size_t next_slot = 0;
  auto burst = [&](int base) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      for (int j = 0; j < 6; ++j) {
        const std::size_t slot = next_slot++;
        s.spawn([](rpc::RpcClient& c, int v, int& out, char& e) -> Task {
          bool berr = false;
          co_await one_echo(c, v, out, berr);
          e = berr ? 1 : 0;
        }(*clients[i], base + j, outs[slot], errs[slot]));
      }
    }
    s.run_until(s.now() + sim::seconds(30));
  };
  burst(0);

  const std::uint64_t d1 = server->stats().ud_rx_dropped;
  EXPECT_GT(d1, 0u) << "the burst never overran the single-slot ring";
  // Repeated syncs are assignments, not accumulation.
  EXPECT_EQ(server->stats().ud_rx_dropped, d1);
  EXPECT_EQ(server->stats().ud_rx_dropped, d1);

  // Restart: the fold into the base must neither double-count (fold +
  // still-live endpoints) nor lose the history (cleared endpoints).
  server->stop();
  server->start();
  EXPECT_EQ(server->stats().ud_rx_dropped, d1);
  EXPECT_EQ(server->stats().ud_rx_dropped, d1);

  burst(100);
  const std::uint64_t d2 = server->stats().ud_rx_dropped;
  EXPECT_GT(d2, d1) << "post-restart drops vanished from the aggregate";
  EXPECT_EQ(server->stats().ud_rx_dropped, d2);

  server->stop();
  server->start();
  EXPECT_EQ(server->stats().ud_rx_dropped, d2);
  server->stop();
  // A final stop does not fold (only start() does) — the live endpoints
  // still carry their counts, so the report stays stable.
  EXPECT_EQ(server->stats().ud_rx_dropped, d2);
  s.drain_tasks();
}

// --- Hand-built datagrams: both UD decoders are total -----------------------

const rpc::MethodKey kTouch{"test.UdProtocol", "touch"};
const rpc::MethodKey kHold{"test.UdProtocol", "hold"};
constexpr std::size_t kGrh = verbs::UdEndpoint::kGrhBytes;

/// A bare UD endpoint standing in for a peer the RPC layer does not
/// control: it sends hand-built datagrams and keeps what it is sent.
struct RawUd {
  RawUd(Scheduler& s, verbs::VerbsStack& stack, cluster::Host& host)
      : cq(s), ep(stack, host, cq, cq), slots(64, net::Bytes(kGrh + verbs::UdEndpoint::kMtu)) {
    for (std::size_t i = 0; i < slots.size(); ++i) ep.post_recv(i, slots[i]);
  }
  /// The datagrams received since the last call, GRH first; every slot
  /// polled is reposted.
  std::vector<net::Bytes> received() {
    std::vector<net::Bytes> out;
    verbs::WorkCompletion wc;
    while (cq.poll(wc)) {
      if (wc.opcode != verbs::Opcode::kRecv) continue;
      const net::Bytes& b = slots[wc.wr_id];
      out.emplace_back(b.begin(), b.begin() + wc.byte_len);
      ep.post_recv(wc.wr_id, slots[wc.wr_id]);
    }
    return out;
  }
  verbs::CompletionQueue cq;
  verbs::UdEndpoint ep;
  std::vector<net::Bytes> slots;
};

/// Sends `frames` one per `gap`, so the receiving loop handles each one
/// before the next lands.
Task send_all(Scheduler& s, RawUd& raw, verbs::AddressHandle to,
              const std::vector<net::Bytes>& frames, sim::Dur gap) {
  for (const net::Bytes& f : frames) {
    co_await raw.ep.post_send(0, to, f);
    co_await sim::delay(s, gap);
  }
}

/// [u8 kUdCall][u64 sid 0][u8 kCall][call header]: a whole call datagram
/// with no param bytes, so every strict prefix cuts the header.
net::Bytes call_datagram(const cluster::CostModel& cm, std::uint64_t call_id,
                         const rpc::MethodKey& key) {
  rpc::DataOutputBuffer out(cm);
  out.write_u8(static_cast<std::uint8_t>(oib::FrameType::kUdCall));
  out.write_u64(0);
  out.write_u8(static_cast<std::uint8_t>(oib::FrameType::kCall));
  rpc::write_call_header(out, call_id, false, 0, trace::TraceContext{}, key);
  return net::Bytes(out.data().begin(), out.data().end());
}

/// Every strict prefix of `whole`.
void add_prefixes(const net::Bytes& whole, std::vector<net::Bytes>& frames) {
  for (std::size_t n = 0; n < whole.size(); ++n) {
    frames.emplace_back(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(n));
  }
}

/// `whole` with the byte at `at` set to every value but `keep`.
void add_type_swaps(const net::Bytes& whole, std::size_t at, oib::FrameType keep,
                    std::vector<net::Bytes>& frames) {
  for (int t = 0; t < 256; ++t) {
    if (t == static_cast<int>(keep)) continue;
    net::Bytes f = whole;
    f[at] = static_cast<net::Byte>(t);
    frames.push_back(std::move(f));
  }
}

/// `n` seeded random datagrams of 0-255 bytes, behind `head` when given.
void add_random(sim::Rng& rng, int n, const net::Bytes& head,
                std::vector<net::Bytes>& frames) {
  for (int i = 0; i < n; ++i) {
    net::Bytes f = head;
    for (std::uint64_t k = rng.next_below(256); k > 0; --k) {
      f.push_back(static_cast<net::Byte>(rng.next_u64()));
    }
    frames.push_back(std::move(f));
  }
}

/// Releases every pooled buffer the client still holds, then checks both
/// pools balance.
void expect_pools_balanced(rpc::RpcClient& client, rpc::RpcServer* server) {
  auto* rc = dynamic_cast<oib::RdmaRpcClient*>(&client);
  ASSERT_NE(rc, nullptr);
  rc->close_connections();
  EXPECT_EQ(rc->pool().native().stats().acquires, rc->pool().native().stats().releases);
  if (server == nullptr) return;
  auto* rs = dynamic_cast<oib::RdmaRpcServer*>(server);
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->pool().native().stats().acquires, rs->pool().native().stats().releases);
}

// The server's UD reader (length check, then the kUdCall/kCall/kBatch
// demux) fed every truncated prefix of a call datagram, the outer and the
// inner type byte set to every wrong value, and seeded random bytes, bare
// or behind a valid kUdCall/kCall head: nothing throws, no handler runs,
// only a random header naming an unknown method is answered (with an
// error), and a one-endpoint, two-slot ring drops nothing, so every slot
// was reposted. A real call then still rides the same ring.
TEST(UdDecoder, MalformedCallDatagramsRunNoHandler) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards()};
  ec.ud = ud_on();
  ec.ud.server_endpoints = 1;
  ec.ud.recv_depth = 2;
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  int touched = 0;
  server->dispatcher().register_method(
      kTouch.protocol, kTouch.method, [&touched](rpc::DataInput&, rpc::DataOutput&) -> Co<void> {
        ++touched;
        co_return;
      });
  server->start();
  s.run_until(sim::millis(10));

  const net::Bytes whole = call_datagram(tb.host(0).cost(), 7, kTouch);
  std::vector<net::Bytes> frames;
  add_prefixes(whole, frames);
  add_type_swaps(whole, 0, oib::FrameType::kUdCall, frames);
  add_type_swaps(whole, oib::kUdHeaderBytes, oib::FrameType::kCall, frames);
  sim::Rng rng(chaos_seed());
  add_random(rng, 64, {}, frames);
  add_random(rng, 64, net::Bytes(whole.begin(), whole.begin() + oib::kUdHeaderBytes + 1), frames);

  RawUd peer(s, engine.verbs(), tb.host(0));
  const verbs::UdService* svc = engine.verbs().ud_service(kAddr);
  ASSERT_NE(svc, nullptr);
  ASSERT_EQ(svc->qpns.size(), 1u);
  s.spawn(send_all(s, peer, verbs::AddressHandle{svc->host, svc->qpns[0]}, frames,
                   sim::micros(100)));
  EXPECT_NO_THROW(s.run_until(s.now() + sim::seconds(1)));

  EXPECT_EQ(touched, 0);
  EXPECT_TRUE(exec.empty());
  // Random bytes behind a valid head can still spell a whole header; such
  // a call names no registered method and is answered with an error.
  const std::vector<net::Bytes> answers = peer.received();
  EXPECT_EQ(answers.size(), server->stats().calls_handled);
  for (const net::Bytes& a : answers) {
    ASSERT_GT(a.size(), kGrh + 9);
    EXPECT_EQ(a[kGrh], static_cast<net::Byte>(oib::FrameType::kResp));
    EXPECT_EQ(a[kGrh + 9], static_cast<net::Byte>(rpc::RpcStatus::kError));
    const std::string text(reinterpret_cast<const char*>(a.data()) + kGrh + 10,
                           a.size() - kGrh - 10);
    EXPECT_NE(text.find("unknown method"), std::string::npos) << text;
  }
  EXPECT_EQ(server->stats().ud_rx_dropped, 0u) << "a ring slot was not reposted";

  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(2));
  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 5, out, err));
  EXPECT_NO_THROW(s.run_until(s.now() + sim::seconds(1)));
  EXPECT_FALSE(err);
  EXPECT_EQ(out, 5);
  EXPECT_EQ(server->stats().ud_rx_dropped, 0u);

  server->stop();
  expect_pools_balanced(*client, server.get());
  s.drain_tasks();
}

// The client's UD receive loop (length check, kResp type, pending-call
// lookup) fed, while one UD call waits: every truncated prefix of a
// response for an unknown call id, the waiting call's own response with
// its type byte set to every wrong value, and seeded random bytes.
// Nothing throws and no call wakes; the client's two-slot ring must have
// reposted every slot, because the real response sent last still lands
// and completes the call. No RPC server runs: a raw endpoint advertises
// itself as the UD service and answers by hand.
TEST(UdDecoder, MalformedResponseDatagramsWakeNoCall) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  rpc::RpcRetryPolicy retry;
  retry.call_timeout = sim::seconds(2);
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .retry = retry};
  ec.ud = ud_on();
  ec.ud.client_recv_depth = 2;
  RpcEngine engine(tb, ec);
  RawUd peer(s, engine.verbs(), tb.host(1));
  engine.verbs().ud_advertise(kAddr, verbs::UdService{1, {peer.ep.qpn()}});
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 41, out, err));
  s.run_until(sim::millis(100));
  const std::vector<net::Bytes> calls = peer.received();
  ASSERT_EQ(calls.size(), 1u);
  const net::Bytes& call = calls[0];
  ASSERT_GT(call.size(), kGrh + oib::kUdHeaderBytes + 9);
  std::uint32_t host = 0, qpn = 0;
  std::memcpy(&host, call.data(), 4);
  std::memcpy(&qpn, call.data() + 4, 4);
  const std::uint64_t id =
      oib::read_be64(call.data() + kGrh + oib::kUdHeaderBytes + 1) & trace::kWireIdMask;
  const verbs::AddressHandle back{static_cast<cluster::HostId>(host), qpn};

  // [u8 kResp][u64 id][u8 status 0][IntWritable]
  const auto response = [&tb](std::uint64_t call_id, int value) {
    rpc::DataOutputBuffer o(tb.host(1).cost());
    o.write_u8(static_cast<std::uint8_t>(oib::FrameType::kResp));
    o.write_u64(call_id);
    o.write_u8(0);
    rpc::IntWritable(value).write(o);
    return net::Bytes(o.data().begin(), o.data().end());
  };
  const net::Bytes real = response(id, 41);
  std::vector<net::Bytes> frames;
  const net::Bytes stranger = response(id + 1, 41);
  add_prefixes(stranger, frames);
  frames.push_back(stranger);
  add_type_swaps(real, 0, oib::FrameType::kResp, frames);
  sim::Rng rng(chaos_seed());
  add_random(rng, 64, {}, frames);
  s.spawn(send_all(s, peer, back, frames, sim::micros(100)));
  EXPECT_NO_THROW(s.run_until(s.now() + sim::millis(500)));
  EXPECT_EQ(out, -1) << "a malformed datagram woke the call";
  EXPECT_FALSE(err);
  EXPECT_EQ(client->stats().ud_responses_received, 0u);

  const std::vector<net::Bytes> last{real};
  s.spawn(send_all(s, peer, back, last, sim::micros(100)));
  EXPECT_NO_THROW(s.run_until(s.now() + sim::millis(100)));
  EXPECT_FALSE(err);
  EXPECT_EQ(out, 41);
  EXPECT_EQ(client->stats().ud_responses_received, 1u);
  EXPECT_EQ(client->stats().timeouts, 0u);

  expect_pools_balanced(*client, nullptr);
  engine.verbs().ud_withdraw(kAddr);
  s.drain_tasks();
}

// A kResp with a valid header but a body too short for the response's
// Writable (11 bytes: type, id, status and one byte of an IntWritable's
// four), sent for the live UD call from a raw endpoint. The attempt fails
// as a transport error, so nothing escapes Scheduler::run, and the client
// returns the pooled copy of the reply: its pool balances.
TEST(UdDecoder, ShortReplyBodyFailsTheAttemptAndReturnsTheBuffer) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  rpc::RpcRetryPolicy retry;
  retry.call_timeout = sim::seconds(2);
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .retry = retry};
  ec.ud = ud_on();
  RpcEngine engine(tb, ec);
  RawUd peer(s, engine.verbs(), tb.host(1));
  engine.verbs().ud_advertise(kAddr, verbs::UdService{1, {peer.ep.qpn()}});
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 41, out, err));
  s.run_until(sim::millis(100));
  const std::vector<net::Bytes> calls = peer.received();
  ASSERT_EQ(calls.size(), 1u);
  const net::Bytes& call = calls[0];
  ASSERT_GT(call.size(), kGrh + oib::kUdHeaderBytes + 9);
  std::uint32_t host = 0, qpn = 0;
  std::memcpy(&host, call.data(), 4);
  std::memcpy(&qpn, call.data() + 4, 4);
  const std::uint64_t id =
      oib::read_be64(call.data() + kGrh + oib::kUdHeaderBytes + 1) & trace::kWireIdMask;

  rpc::DataOutputBuffer o(tb.host(1).cost());
  o.write_u8(static_cast<std::uint8_t>(oib::FrameType::kResp));
  o.write_u64(id);
  o.write_u8(0);  // kSuccess
  o.write_u8(0);  // the first of the IntWritable's four bytes
  const std::vector<net::Bytes> frames{net::Bytes(o.data().begin(), o.data().end())};
  ASSERT_EQ(frames[0].size(), 11u);
  s.spawn(send_all(s, peer, verbs::AddressHandle{static_cast<cluster::HostId>(host), qpn},
                   frames, sim::micros(100)));
  EXPECT_NO_THROW(s.run_until(s.now() + sim::millis(100)));
  EXPECT_TRUE(err);
  EXPECT_EQ(out, -1);
  EXPECT_EQ(client->stats().ud_responses_received, 1u);

  expect_pools_balanced(*client, nullptr);
  engine.verbs().ud_withdraw(kAddr);
  s.drain_tasks();
}

// With a call-queue bound set, the RPCoIB server parses each arrival's
// header before queueing it. A kCall whose header is cut short is dropped
// right there: it takes no queue slot, gets no busy answer and leaves
// calls_shed at zero. One handler held by a slow call and a bound of one
// prove it: the echo that follows the truncated calls still finds the
// slot free and is queued, not shed.
TEST(UdDecoder, TruncatedCallHeaderIsDroppedAtArrivalUnderQueueBound) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_handlers = 1};
  ec.overload.max_call_queue = 1;
  ec.ud = ud_on();
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->dispatcher().register_method(
      kHold.protocol, kHold.method, [&s](rpc::DataInput&, rpc::DataOutput& o) -> Co<void> {
        co_await sim::delay(s, sim::seconds(1));
        rpc::BooleanWritable(true).write(o);
      });
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  bool held = false;
  s.spawn([](rpc::RpcClient& c, bool& ok) -> Task {
    rpc::NullWritable arg;
    rpc::BooleanWritable resp;
    co_await c.call(kAddr, kHold, arg, &resp);
    ok = resp.value;
  }(*client, held));
  s.run_until(sim::millis(100));  // the hold call is executing

  // Every cut that keeps the kCall type byte and at least one header byte
  // passes the UD length check and reaches enqueue_call; none parses.
  const net::Bytes whole = call_datagram(tb.host(2).cost(), 7, kEcho);
  std::vector<net::Bytes> frames;
  for (std::size_t n = oib::kUdHeaderBytes + 2; n < whole.size(); ++n) {
    frames.emplace_back(whole.begin(), whole.begin() + static_cast<std::ptrdiff_t>(n));
  }
  RawUd peer(s, engine.verbs(), tb.host(2));
  const verbs::UdService* svc = engine.verbs().ud_service(kAddr);
  ASSERT_NE(svc, nullptr);
  for (const std::uint32_t qpn : svc->qpns) {
    s.spawn(send_all(s, peer, verbs::AddressHandle{svc->host, qpn}, frames, sim::micros(100)));
  }
  s.run_until(sim::millis(300));

  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 9, out, err));
  s.run_until(sim::seconds(3));

  EXPECT_TRUE(held);
  EXPECT_FALSE(err);
  EXPECT_EQ(out, 9);
  EXPECT_EQ(server->stats().calls_shed, 0u);
  EXPECT_EQ(client->stats().busy_rejections, 0u);
  EXPECT_EQ(server->stats().queue_depth_peak, 1u);
  EXPECT_EQ(server->stats().calls_handled, 2u);
  EXPECT_TRUE(peer.received().empty()) << "a truncated call was answered";

  server->stop();
  expect_pools_balanced(*client, server.get());
  s.drain_tasks();
}

// --- Teardown: a shut plane still returns what it is owed ----------------
//
// close_connections() on a live client shuts its planes while a call is on
// the wire. Their receive loops stand down only once the client is gone:
// until then they reap the completions still owed (the posted request's
// kSend among them) and return each buffer, so the client's pool balances
// once the run goes quiet. `sent` reads the counter that says the request
// left: datagrams on UD, calls on RC.
void close_with_call_in_flight(bool ud) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB};
  if (ud) ec.ud = ud_on();
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
  auto* rc = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rc, nullptr);
  const auto sent = [&] {
    return ud ? client->stats().ud_datagrams_sent : client->stats().calls_sent;
  };

  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 5, out, err));
  while (sent() == 0 && s.step()) {
  }
  ASSERT_EQ(sent(), 1u);
  rc->close_connections();
  s.run();

  EXPECT_TRUE(err);
  EXPECT_EQ(out, -1);
  EXPECT_EQ(rc->pool().native().stats().acquires, rc->pool().native().stats().releases);
  server->stop();
  s.drain_tasks();
}

TEST(UdTeardown, CloseWithCallInFlightReturnsEveryBuffer) {
  {
    SCOPED_TRACE("UD");
    close_with_call_in_flight(true);
  }
  {
    SCOPED_TRACE("RC");
    close_with_call_in_flight(false);
  }
}

// The same rule for the batch flush: a UD client shut while a coalesced
// batch is inside its encode charge returns the batch's pooled frame
// instead of leaving it leased.
TEST(UdTeardown, CloseInsideBatchFlushChargeReturnsEveryBuffer) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  EngineConfig ec{.mode = RpcMode::kRpcoIB};
  ec.ud = ud_on();
  ec.batch.enabled = true;
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
  auto* rc = dynamic_cast<oib::RdmaRpcClient*>(client.get());
  ASSERT_NE(rc, nullptr);
  const oib::PoolStats& pool = rc->pool().native().stats();

  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 5, out, err));
  while (client->stats().batched_calls == 0 && s.step()) {
  }
  ASSERT_EQ(client->stats().batched_calls, 1u);
  // The flush leases its frame and then suspends in the encode charge.
  const std::uint64_t appended = pool.acquires;
  while (pool.acquires == appended && s.step()) {
  }
  ASSERT_EQ(pool.acquires, appended + 1);
  ASSERT_EQ(client->stats().batches_sent, 0u);
  rc->close_connections();
  s.run();

  EXPECT_TRUE(err);
  EXPECT_EQ(client->stats().batches_sent, 0u);
  EXPECT_EQ(client->stats().ud_datagrams_sent, 0u);
  EXPECT_EQ(pool.acquires, pool.releases);
  server->stop();
  s.drain_tasks();
}

// --- Plane parity: one eager call, two planes -------------------------------
//
// The same small echo over a UD client and over an RC-only client records
// the same call profile (one call, the same kCall frame length, the same
// Algorithm-1 adjustments) and the same three phases under its call span.
struct PlaneRun {
  std::uint64_t calls = 0;
  double msg_bytes = 0;
  double mem_adjustments = 0;
  std::vector<std::string> phases;  // the call span's client-side children, in order
};

PlaneRun echo_over_plane(bool ud) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  trace::TraceCollector col;
  col.set_enabled(true);
  tb.set_tracer(&col);
  EngineConfig ec{.mode = RpcMode::kRpcoIB};
  if (ud) ec.ud = ud_on();
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(1), kAddr);
  std::map<int, int> exec;
  register_ud_methods(*server, exec);
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  int out = -1;
  bool err = false;
  s.spawn(echo_task(*client, 77, out, err));
  s.run_until(sim::seconds(1));
  EXPECT_FALSE(err);
  EXPECT_EQ(out, 77);
  EXPECT_EQ(client->stats().ud_datagrams_sent, ud ? 1u : 0u);

  PlaneRun run;
  const rpc::MethodProfile& prof = client->stats().method(kEcho);
  run.calls = prof.msg_bytes.count();
  run.msg_bytes = prof.msg_bytes.sum();
  run.mem_adjustments = prof.mem_adjustments.sum();
  const std::string root = ud ? "rpc.ud:echo" : "rpc:echo";
  trace::SpanId call = 0;
  for (const trace::Span& sp : col.spans()) {
    if (sp.host == 0 && sp.name == root) call = sp.id;
    if (call != 0 && sp.host == 0 && sp.parent_id == call) run.phases.push_back(sp.name);
  }
  EXPECT_NE(call, 0u) << root << " not recorded";
  server->stop();
  expect_pools_balanced(*client, server.get());
  s.drain_tasks();
  return run;
}

TEST(UdParity, SmallEchoProfilesAndPhasesMatchOverUdAndRc) {
  const PlaneRun ud = echo_over_plane(true);
  const PlaneRun rc = echo_over_plane(false);
  EXPECT_EQ(ud.calls, 1u);
  EXPECT_EQ(ud.calls, rc.calls);
  EXPECT_GT(ud.msg_bytes, 0);
  EXPECT_EQ(ud.msg_bytes, rc.msg_bytes);
  EXPECT_EQ(ud.mem_adjustments, rc.mem_adjustments);
  const std::vector<std::string> phases{"serialize", "send", "deserialize"};
  EXPECT_EQ(ud.phases, phases);
  EXPECT_EQ(rc.phases, phases);
}

}  // namespace
}  // namespace rpcoib
