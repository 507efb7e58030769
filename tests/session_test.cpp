// Durable client sessions: exactly-once RPC across connection loss.
//
// The chaos suite here drives the PR's acceptance gate: seeded
// connection-kill schedules where every client link is killed at least
// once mid-workload, on both transports, with server-side per-call
// execution counters proving no retried non-idempotent call ever runs
// twice. Seedable through RPCOIB_CHAOS_SEED / RPCOIB_SHARDS like the
// rest of the chaos suite (same seed => byte-identical reports).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "net/fault.hpp"
#include "net/testbed.hpp"
#include "rpc/resilience.hpp"
#include "rpcoib/engine.hpp"
#include "workloads/hadoop_jobs.hpp"

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
const rpc::MethodKey kBump{"test.SessionProtocol", "bump"};
const rpc::MethodKey kEcho{"test.SessionProtocol", "echo"};

/// RPCOIB_UD=1 reroutes the RPCoIB legs' eager traffic over the UD
/// datagram path (the CI chaos-matrix leg). Datagrams are connectionless,
/// so connection kills no longer touch eager calls — kill-dependent
/// assertions are gated on the transport actually opening connections,
/// and the lease-expiry tests swallow the in-flight frame with an outage
/// window instead of a kill.
bool chaos_ud() {
  const char* env = std::getenv("RPCOIB_UD");
  return env != nullptr && env[0] == '1';
}

oib::UdConfig chaos_ud_cfg() {
  oib::UdConfig u;
  u.enabled = chaos_ud();
  return u;
}

/// `bump` is the canonical non-idempotent method: each seq must land in
/// the execution ledger exactly once no matter how many times the client
/// re-sends it across reconnects.
void register_session_methods(rpc::RpcServer& server, std::map<int, int>& exec) {
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
      kEcho.protocol, kEcho.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::IntWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
}

/// A retry policy that re-sends non-idempotent calls after transport
/// failures — only safe because the session-keyed retry cache dedups.
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

/// Send `count` bump calls spaced `gap` apart so injected kills land
/// mid-workload, not before or after it.
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

// --- Satellite 1 regression: the src/rpc/rpc.cpp carve-out ------------------
//
// Before the session layer, a reconnect lost the retry-cache key (dense
// conn ids), so retrying a non-idempotent call across a reconnect could
// re-execute it. With sessions on, the dedup key is the session id: a
// forced kill between attempt and response must leave exactly one
// execution in the server's ledger.
TEST(Session, RetriedNonIdempotentAcrossReconnectExecutesOnce) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    const bool ud = mode == RpcMode::kRpcoIB && chaos_ud();
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    // Kill the client->server connection on the first send at/after t=1s:
    // the bump call's first attempt goes out, the connection dies under
    // it, and the retry rides the reconnect. Over UD there is no
    // connection to kill; swallow the datagram with an outage instead so
    // the retry machinery still fires.
    if (ud) {
      plan->add_outage(net::FaultWindow{0, 1, sim::seconds(1), sim::millis(1400)});
    } else {
      plan->add_connection_kill(0, 1, sim::seconds(1));
    }
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    EngineConfig ec{.mode = mode, .server_shards = chaos_shards(),
                    .retry = session_retry()};
    ec.overload.retry_cache_entries = 256;
    ec.session = sessions_on();
    ec.ud = chaos_ud_cfg();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_session_methods(*server, exec);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    // Warm call opens the session before the kill window.
    int warm = 0;
    bool warm_err = false;
    s.spawn(echo_task(*client, 7, warm, warm_err));
    s.run_until(sim::millis(500));
    EXPECT_EQ(warm, 7);

    bool ok = false, err = false;
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o, bool& e) -> Task {
      co_await sim::delay(sc, sim::seconds(1));
      co_await one_bump(c, 42, o, e);
    }(s, *client, ok, err));
    s.run_until(sim::seconds(60));

    EXPECT_TRUE(ok);
    EXPECT_FALSE(err);
    if (ud) {
      EXPECT_GE(plan->counters().outage_hits, 1u);
    } else {
      EXPECT_EQ(plan->counters().kills, 1u);
      EXPECT_EQ(client->stats().reconnects_fault_injected, 1u);
    }
    EXPECT_GE(client->stats().retries, 1u);
    // The exactly-once gate: one execution, never zero, never two.
    EXPECT_EQ(exec[42], 1) << "retried non-idempotent call re-executed";
    server->stop();
    s.drain_tasks();
  }
}

// --- Acceptance gate: every connection killed at least once -----------------
//
// Six clients, each with a deterministic kill scheduled mid-burst, on
// both transports. Every bump seq must execute exactly once, the pool
// must balance (RPCoIB), and the merged resilience report must be
// byte-identical across runs of the same seed.
TEST(Chaos, KillEveryConnectionExactlyOnce) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    const bool ud = mode == RpcMode::kRpcoIB && chaos_ud();
    auto run_once = [mode, ud] {
      static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6};
      constexpr int kConns = 6;
      constexpr int kCalls = 10;
      auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
      // One staggered kill per client link, landing inside its burst
      // (calls are spaced 100 ms apart over ~1 s).
      for (int i = 0; i < kConns; ++i) {
        plan->add_connection_kill(kClientHosts[i], 1, sim::millis(150 + 100 * i));
      }
      net::TestbedConfig cfg = Testbed::cluster_b();
      cfg.fault = plan;
      Scheduler s;
      Testbed tb(s, cfg);
      EngineConfig ec{.mode = mode, .server_handlers = 4,
                      .server_shards = chaos_shards(), .retry = session_retry()};
      ec.overload.retry_cache_entries = 256;
      ec.session = sessions_on();
      ec.pool = chaos_pool();
      ec.ud = chaos_ud_cfg();
      RpcEngine engine(tb, ec);
      auto server = engine.make_server(tb.host(1), kAddr);
      std::map<int, int> exec;
      register_session_methods(*server, exec);
      server->start();

      std::vector<std::unique_ptr<rpc::RpcClient>> clients;
      int completed = 0, errors = 0;
      for (int i = 0; i < kConns; ++i) {
        clients.push_back(engine.make_client(tb.host(kClientHosts[i])));
        s.spawn(bump_burst(s, *clients[i], 1000 * (i + 1), kCalls, sim::millis(100),
                           completed, errors));
      }
      s.run_until(sim::seconds(300));

      EXPECT_EQ(completed, kConns * kCalls);
      EXPECT_EQ(errors, 0);
      rpc::RpcStats merged;
      for (auto& c : clients) merged.merge(c->stats());
      if (!ud) {
        // Every link was killed at least once... (over UD the eager calls
        // are connectionless, so the kill schedule never finds a target —
        // the leg still proves the burst completes exactly-once)
        EXPECT_GE(plan->counters().kills, static_cast<std::uint64_t>(kConns));
        EXPECT_GE(merged.reconnects_fault_injected, static_cast<std::uint64_t>(kConns));
        EXPECT_GE(merged.calls_replayed, static_cast<std::uint64_t>(kConns));
      } else {
        EXPECT_GE(merged.ud_datagrams_sent, static_cast<std::uint64_t>(kConns * kCalls));
      }
      // ...and no bump executed twice (or zero times).
      EXPECT_EQ(exec.size(), static_cast<std::size_t>(kConns * kCalls));
      for (const auto& [seq, n] : exec) {
        EXPECT_EQ(n, 1) << "seq " << seq << " executed " << n << " times";
      }
      std::string report =
          rpc::resilience_report(merged, &plan->counters(), &server->stats());
      report += "\nfinished at " + std::to_string(s.now());
      server->stop();
      if (mode == RpcMode::kRpcoIB) {
        // Mid-run kills must not leak pooled buffers: teardown leaves the
        // CQ open exactly so in-flight completions still recycle their
        // slots. Once the surviving connections drain their posted rings,
        // acquire/release must balance on both ends even though every
        // connection died at least once.
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
      }
      s.drain_tasks();
      return report;
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_EQ(a, b);
    if (!ud) {
      EXPECT_NE(a.find("reconnects (fault injected)"), std::string::npos);
      EXPECT_NE(a.find("fault kills"), std::string::npos);
    } else {
      EXPECT_NE(a.find("ud datagrams sent"), std::string::npos);
    }
    EXPECT_NE(a.find("server sessions opened"), std::string::npos);
  }
}

// --- Lease expiry racing an in-flight retry ---------------------------------
//
// The session lease expires while a killed call is backing off. The
// retried attempt (kWireRetryFlag) arrives for a dead session and must
// be refused with a *terminal* session-expired error — never silently
// re-executed, never resurrecting the session, and never re-sent (a
// retryable bounce would let a later fresh call revive the session with
// the dedup state already purged, re-opening the duplicate window).
TEST(Session, LeaseExpiryRejectsRetryInsteadOfReExecuting) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    const bool ud = mode == RpcMode::kRpcoIB && chaos_ud();
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    if (ud) {
      // No connection to kill on the datagram path: an outage window
      // swallows the in-flight bump the same way.
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
    EngineConfig ec{.mode = mode, .server_shards = chaos_shards(), .retry = retry};
    ec.overload.retry_cache_entries = 256;
    ec.session = sessions_on();
    ec.session.lease = sim::seconds(2);
    ec.ud = chaos_ud_cfg();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_session_methods(*server, exec);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int warm = 0;
    bool warm_err = false;
    s.spawn(echo_task(*client, 7, warm, warm_err));
    s.run_until(sim::millis(500));
    EXPECT_EQ(warm, 7);

    bool ok = false, err = false;
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o, bool& e) -> Task {
      co_await sim::delay(sc, sim::seconds(1));
      co_await one_bump(c, 99, o, e);
    }(s, *client, ok, err));
    s.run_until(sim::seconds(120));

    // The call fails terminally (SessionExpiredException, a transport-
    // class error) rather than silently re-executing under an expired
    // session — and the terminal status stops the retry loop at the
    // first rejection instead of burning the remaining attempts.
    EXPECT_FALSE(ok);
    EXPECT_TRUE(err);
    EXPECT_GE(server->stats().sessions_rejected, 1u);
    EXPECT_GE(server->stats().sessions_expired, 1u);
    EXPECT_LE(exec[99], 1) << "expired-session retry re-executed the call";
    server->stop();
    s.drain_tasks();
  }
}

// --- A fresh call reviving the session must not reopen the dupe window ------
//
// The race the terminal status alone cannot close: the killed call's
// session expires (purging its dedup state), then a *fresh* call from
// the same client re-opens the session before the retry arrives. The
// retry now finds the session alive and the cache empty — without the
// per-session call-id fence it would re-execute. The fence (the opener's
// call id, recorded at re-open) refuses the stale retried id instead.
TEST(Session, FreshCallRevivingExpiredSessionDoesNotReExecuteStaleRetry) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    const bool ud = mode == RpcMode::kRpcoIB && chaos_ud();
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    if (ud) {
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
    EngineConfig ec{.mode = mode, .server_shards = chaos_shards(), .retry = retry};
    ec.overload.retry_cache_entries = 256;
    ec.session = sessions_on();
    ec.session.lease = sim::seconds(2);
    ec.ud = chaos_ud_cfg();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_session_methods(*server, exec);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int warm = 0;
    bool warm_err = false;
    s.spawn(echo_task(*client, 7, warm, warm_err));
    s.run_until(sim::millis(500));
    EXPECT_EQ(warm, 7);

    // t=1s: bump sent, connection killed under it; its retry backs off 5s.
    bool ok = false, err = false;
    s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o, bool& e) -> Task {
      co_await sim::delay(sc, sim::seconds(1));
      co_await one_bump(c, 99, o, e);
    }(s, *client, ok, err));
    // t=4.5s: lease (2s) has expired the session and purged its dedup
    // state; this fresh echo re-opens (and fences) the session, and the
    // keepalives that follow hold it alive across the retry's entire
    // backoff+jitter window [6s, 8.5s] — so the retry always finds a
    // LIVE session with an empty cache, the exact race the fence closes.
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

    // The revived session serves the fresh calls normally...
    EXPECT_EQ(revived, 11);
    EXPECT_FALSE(revived_err);
    // ...but the stale retry is refused, not re-executed: exactly-once
    // holds even though the retry found a live session and an empty cache.
    EXPECT_FALSE(ok);
    EXPECT_TRUE(err);
    EXPECT_GE(server->stats().sessions_rejected, 1u);
    EXPECT_LE(exec[99], 1) << "stale retry re-executed on the revived session";
    server->stop();
    s.drain_tasks();
  }
}

// --- Session table bounded growth under connection churn --------------------
TEST(Session, TableStaysBoundedUnderConnectionChurnStorm) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};
    constexpr int kConns = 64;
    constexpr std::size_t kCap = 8;
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    EngineConfig ec{.mode = mode, .server_handlers = 4,
                    .server_shards = chaos_shards()};
    ec.overload.retry_cache_entries = 256;
    ec.session = sessions_on();
    ec.session.table_cap = kCap;
    ec.ud = chaos_ud_cfg();
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_session_methods(*server, exec);
    server->start();

    std::vector<std::unique_ptr<rpc::RpcClient>> clients;
    std::vector<int> outs(kConns, 0);
    std::vector<char> errs(kConns, 0);
    for (int i = 0; i < kConns; ++i) {
      clients.push_back(engine.make_client(tb.host(kClientHosts[i % 8])));
      bool err_tmp = false;
      s.spawn([](Scheduler& sc, rpc::RpcClient& c, int v, sim::Dur wait, int& out,
                 char& err) -> Task {
        co_await sim::delay(sc, wait);
        bool e = false;
        int o = 0;
        co_await one_echo(c, v, o, e);
        out = o;
        err = e ? 1 : 0;
      }(s, *clients[i], i + 1, sim::millis(20 * i), outs[i], errs[i]));
      (void)err_tmp;
    }
    s.run_until(sim::seconds(120));

    for (int i = 0; i < kConns; ++i) {
      EXPECT_EQ(outs[i], i + 1) << "client " << i;
      EXPECT_EQ(errs[i], 0) << "client " << i;
    }
    // 64 distinct sessions through a cap-8 table: the LRU must have
    // evicted, the peak can never exceed the cap, and every session
    // still got service.
    EXPECT_EQ(server->stats().sessions_opened, static_cast<std::uint64_t>(kConns));
    EXPECT_GT(server->stats().sessions_evicted, 0u);
    EXPECT_LE(server->stats().session_table_peak, kCap);
    server->stop();
    s.drain_tasks();
  }
}

// --- SRQ idle eviction + kill: every reconnect cause stays exactly-once -----
//
// The server's LRU sweep evicts the idle connection (client rediscovers
// the stale QP on reuse) and a seeded kill tears it down mid-call: both
// recovery paths must land in the cause-split reconnect counters and
// neither may duplicate a bump.
TEST(Session, IdleEvictionAndKillReconnectsStayExactlyOnce) {
  // Deliberately never rides UD (no ec.ud): this test pins the RC-side
  // recovery machinery — SRQ idle eviction and QP kills have no datagram
  // analogue — so it stays meaningful in the RPCOIB_UD=1 matrix leg.
  auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
  plan->add_connection_kill(0, 1, sim::seconds(1));
  net::TestbedConfig cfg = Testbed::cluster_b();
  cfg.fault = plan;
  Scheduler s;
  Testbed tb(s, cfg);
  EngineConfig ec{.mode = RpcMode::kRpcoIB, .server_shards = chaos_shards(),
                  .retry = session_retry()};
  ec.overload.retry_cache_entries = 256;
  ec.session = sessions_on();
  ec.pool = chaos_pool();
  RpcEngine engine(tb, ec);
  EngineConfig scfg = ec;
  scfg.server_handlers = 4;
  scfg.pool.srq_idle_evict = sim::seconds(2);
  oib::RdmaRpcServer server(tb.host(1), tb.sockets(), engine.verbs(), kAddr, scfg);
  std::map<int, int> exec;
  register_session_methods(server, exec);
  server.start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

  bool ok1 = false, ok2 = false, ok3 = false;
  bool e1 = false, e2 = false, e3 = false;
  s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o1, bool& o2, bool& o3, bool& f1,
             bool& f2, bool& f3) -> Task {
    co_await one_bump(c, 1, o1, f1);           // opens the session
    co_await sim::delay(sc, sim::seconds(1));  // kill fires under the next call
    co_await one_bump(c, 2, o2, f2);
    co_await sim::delay(sc, sim::seconds(6));  // idle past the eviction sweep
    co_await one_bump(c, 3, o3, f3);           // stale QP -> idle-evicted path
  }(s, *client, ok1, ok2, ok3, e1, e2, e3));
  s.run_until(sim::seconds(60));

  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(ok3);
  EXPECT_FALSE(e1 || e2 || e3);
  for (int seq : {1, 2, 3}) EXPECT_EQ(exec[seq], 1) << "seq " << seq;
  EXPECT_GE(plan->counters().kills, 1u);
  EXPECT_GE(client->stats().reconnects_fault_injected, 1u);
  if (scfg.pool.srq_depth != 0) {  // eviction sweep needs the SRQ ring
    EXPECT_GE(server.stats().srq_evictions, 1u);
    EXPECT_GE(client->stats().reconnects_idle_evicted, 1u);
  }
  server.stop();
  s.drain_tasks();
}

// --- Exact reconnect-cause attribution --------------------------------------
//
// Each recovery activation must land in exactly one cause counter, with
// the others untouched: a seeded kill mid-call is fault_injected (never
// qp_error, though both surface as a failed post), and a stale QP found
// after the server's idle sweep is idle_evicted (never peer_closed). Runs
// on both transports and at shards {1, 4}; like the idle-eviction test
// above, the RPCoIB leg keeps UD off — cause attribution is a property of
// the connection-oriented path.
TEST(Session, ReconnectCountersAttributeExactCauses) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
      SCOPED_TRACE(oib::rpc_mode_name(mode));
      auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
      plan->add_connection_kill(0, 1, sim::seconds(1));
      net::TestbedConfig cfg = Testbed::cluster_b();
      cfg.fault = plan;
      Scheduler s;
      Testbed tb(s, cfg);
      EngineConfig ec{.mode = mode, .server_shards = shards, .retry = session_retry()};
      ec.overload.retry_cache_entries = 256;
      ec.session = sessions_on();
      ec.pool = chaos_pool();
      RpcEngine engine(tb, ec);
      std::unique_ptr<rpc::RpcServer> server;
      oib::RdmaRpcServer* rs = nullptr;
      if (mode == RpcMode::kRpcoIB) {
        EngineConfig scfg = ec;
        scfg.server_handlers = 4;
        scfg.pool.srq_idle_evict = sim::seconds(2);
        auto owned = std::make_unique<oib::RdmaRpcServer>(tb.host(1), tb.sockets(),
                                                          engine.verbs(), kAddr, scfg);
        rs = owned.get();
        server = std::move(owned);
      } else {
        server = engine.make_server(tb.host(1), kAddr);
      }
      std::map<int, int> exec;
      register_session_methods(*server, exec);
      server->start();
      std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

      bool ok1 = false, ok2 = false, ok3 = false;
      bool e1 = false, e2 = false, e3 = false;
      s.spawn([](Scheduler& sc, rpc::RpcClient& c, bool& o1, bool& o2, bool& o3,
                 bool& f1, bool& f2, bool& f3) -> Task {
        co_await one_bump(c, 1, o1, f1);           // opens the connection
        co_await sim::delay(sc, sim::seconds(1));  // kill fires under this call
        co_await one_bump(c, 2, o2, f2);
        co_await sim::delay(sc, sim::seconds(6));  // idle past the eviction sweep
        co_await one_bump(c, 3, o3, f3);           // RPCoIB: stale QP on reuse
      }(s, *client, ok1, ok2, ok3, e1, e2, e3));
      s.run_until(sim::seconds(60));

      EXPECT_TRUE(ok1 && ok2 && ok3);
      EXPECT_FALSE(e1 || e2 || e3);
      for (int seq : {1, 2, 3}) EXPECT_EQ(exec[seq], 1) << "seq " << seq;
      EXPECT_EQ(plan->counters().kills, 1u);
      const rpc::RpcStats& st = client->stats();
      EXPECT_EQ(st.reconnects_fault_injected, 1u);
      EXPECT_EQ(st.reconnects_qp_error, 0u);
      EXPECT_EQ(st.reconnects_peer_closed, 0u);
      if (mode == RpcMode::kRpcoIB && rs != nullptr && ec.pool.srq_depth != 0) {
        EXPECT_EQ(st.reconnects_idle_evicted, 1u);
        EXPECT_GE(rs->stats().srq_evictions, 1u);
      } else if (mode != RpcMode::kRpcoIB) {
        EXPECT_EQ(st.reconnects_idle_evicted, 0u);
      }
      server->stop();
      s.drain_tasks();
    }
  }
}

// --- Determinism across shard geometries ------------------------------------
//
// Probabilistic kills + drops with sessions on: the merged report must be
// run-twice byte-identical at server.shards = 1 and at 4 (the kill RNG is
// its own stream, so the drop/spike schedule is also stable).
TEST(Chaos, SeededKillRunsAreByteIdenticalAcrossShardGeometries) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    for (int shards : {1, 4}) {
      SCOPED_TRACE(shards);
      auto run_once = [mode, shards] {
        static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4};
        auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
        plan->set_default_faults({.drop_prob = 0.03});
        plan->set_kill_prob(0.05);
        net::TestbedConfig cfg = Testbed::cluster_b();
        cfg.fault = plan;
        Scheduler s;
        Testbed tb(s, cfg);
        EngineConfig ec{.mode = mode, .server_handlers = 4, .server_shards = shards,
                        .retry = session_retry()};
        ec.overload.retry_cache_entries = 256;
        ec.session = sessions_on();
        ec.ud = chaos_ud_cfg();
        RpcEngine engine(tb, ec);
        auto server = engine.make_server(tb.host(1), kAddr);
        std::map<int, int> exec;
        register_session_methods(*server, exec);
        server->start();

        std::vector<std::unique_ptr<rpc::RpcClient>> clients;
        int completed = 0, errors = 0;
        for (int i = 0; i < 4; ++i) {
          clients.push_back(engine.make_client(tb.host(kClientHosts[i])));
          s.spawn(bump_burst(s, *clients[i], 1000 * (i + 1), 8, sim::millis(50),
                             completed, errors));
        }
        s.run_until(sim::seconds(300));

        EXPECT_EQ(completed, 32);
        EXPECT_EQ(errors, 0);
        for (const auto& [seq, n] : exec) EXPECT_EQ(n, 1) << "seq " << seq;
        rpc::RpcStats merged;
        for (auto& c : clients) merged.merge(c->stats());
        std::string report =
            rpc::resilience_report(merged, &plan->counters(), &server->stats());
        report += "\nfinished at " + std::to_string(s.now());
        server->stop();
        s.drain_tasks();
        return report;
      };
      EXPECT_EQ(run_once(), run_once());
    }
  }
}

// --- Whole-stack chaos: MapReduce over probabilistic connection kills -------
//
// The Fig. 6 MiniSort driver with sessions on and a kill probability on
// every post-send window: NameNode, JobTracker, DataNode and TaskTracker
// RPC all ride the reconnect recovery machine, and the job must both
// finish and be byte-identical across runs of the same seed.
TEST(Chaos, MiniSortWithConnectionKillsIsIdenticalAcrossRuns) {
  auto run_once = [](std::uint64_t& kills) {
    workloads::ChaosConfig chaos;
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    plan->set_kill_prob(0.001);
    chaos.fault = plan;
    chaos.engine.retry.call_timeout = sim::seconds(3);
    chaos.engine.retry.max_retries = 6;
    chaos.engine.retry.retry_non_idempotent_on_timeout = true;
    chaos.engine.overload.retry_cache_entries = 512;
    chaos.engine.session.enabled = true;
    chaos.engine.ud.enabled = chaos_ud();
    chaos.tracker_expiry = sim::seconds(30);
    chaos.pipeline_retries = 5;
    const workloads::SortResult r = workloads::run_randomwriter_sort(
        RpcMode::kRpcoIB, /*slaves=*/2, 64ULL << 20, /*seed=*/7, nullptr, &chaos);
    kills = plan->counters().kills;
    return r;
  };
  std::uint64_t kills1 = 0, kills2 = 0;
  const workloads::SortResult first = run_once(kills1);
  EXPECT_GT(first.randomwriter_secs, 0.0);
  EXPECT_GT(first.sort_secs, 0.0);
  // With UD on, eager RPC is connectionless and only the bulk paths
  // (rendezvous, streams) still expose kill targets — the count can
  // legitimately be zero, so only the RC leg pins it.
  if (!chaos_ud()) {
    EXPECT_GT(kills1, 0u);  // the schedule actually killed connections
  }
  const workloads::SortResult again = run_once(kills2);
  EXPECT_EQ(again.randomwriter_secs, first.randomwriter_secs);
  EXPECT_EQ(again.sort_secs, first.sort_secs);
  EXPECT_EQ(kills2, kills1);
}

// --- Default-off: sessionless reports carry no session rows -----------------
TEST(Session, DisabledSessionsLeaveReportsSessionFree) {
  for (RpcMode mode : {RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    SCOPED_TRACE(oib::rpc_mode_name(mode));
    auto plan = std::make_shared<net::FaultPlan>(chaos_seed());
    plan->set_default_faults({.drop_prob = 0.05});
    net::TestbedConfig cfg = Testbed::cluster_b();
    cfg.fault = plan;
    Scheduler s;
    Testbed tb(s, cfg);
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::millis(500);
    retry.max_retries = 6;
    // Sessions stay default-off: no handshake bytes, no counters, no rows.
    EngineConfig ec{.mode = mode, .server_shards = chaos_shards(), .retry = retry};
    ec.ud = chaos_ud_cfg();  // sessionless UD: dedup keys fall back to host
    RpcEngine engine(tb, ec);
    auto server = engine.make_server(tb.host(1), kAddr);
    std::map<int, int> exec;
    register_session_methods(*server, exec);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));

    int completed = 0, errors = 0;
    s.spawn(bump_burst(s, *client, 0, 20, sim::millis(10), completed, errors));
    s.run_until(sim::seconds(120));
    EXPECT_EQ(completed + errors, 20);

    const std::string report =
        rpc::resilience_report(client->stats(), &plan->counters(), &server->stats());
    EXPECT_EQ(report.find("session"), std::string::npos);
    EXPECT_EQ(report.find("reconnect"), std::string::npos);
    EXPECT_EQ(report.find("kills"), std::string::npos);
    server->stop();
    s.drain_tasks();
  }
}

}  // namespace
}  // namespace rpcoib
