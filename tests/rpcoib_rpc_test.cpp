// End-to-end tests of the RPCoIB path: echo over eager and rendezvous,
// concurrency, exceptions, latency vs the socket baseline, history warmup,
// engine-mode switching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"

namespace rpcoib::oib {
namespace {

using net::Address;
using net::Testbed;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr Address kAddr{1, 9010};
const rpc::MethodKey kEcho{"test.EchoProtocol", "echo"};
const rpc::MethodKey kFail{"test.EchoProtocol", "fail"};

void register_echo(rpc::RpcServer& server) {
  server.dispatcher().register_method(
      "test.EchoProtocol", "echo", [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable payload;
        payload.read_fields(in);
        rpc::BytesWritable(std::move(payload.value)).write(out);
        co_return;
      });
  server.dispatcher().register_method(
      "test.EchoProtocol", "fail", [](rpc::DataInput&, rpc::DataOutput&) -> Co<void> {
        throw std::runtime_error("rdma failure path");
        co_return;
      });
}

struct Fixture {
  explicit Fixture(Scheduler& s, RdmaServerConfig server_cfg = {},
                   RdmaClientConfig client_cfg = {})
      : tb(s, Testbed::cluster_b()),
        stack(tb.fabric()),
        server(tb.host(1), tb.sockets(), stack, kAddr, server_cfg),
        client(tb.host(0), tb.sockets(), stack, client_cfg) {
    register_echo(server);
    server.start();
  }
  ~Fixture() {
    client.close_connections();
    server.stop();
    tb.sched().drain_tasks();
  }
  Testbed tb;
  verbs::VerbsStack stack;
  RdmaRpcServer server;
  RdmaRpcClient client;
};

Task call_echo(rpc::RpcClient& client, std::size_t n, bool& ok, double* rtt_us = nullptr) {
  net::Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<net::Byte>(i * 13 + 1);
  rpc::BytesWritable req(payload);
  rpc::BytesWritable resp;
  const sim::Time t0 = client.host().sched().now();
  co_await client.call(kAddr, kEcho, req, &resp);
  if (rtt_us != nullptr) *rtt_us = sim::to_us(client.host().sched().now() - t0);
  ok = (resp.value == payload);
}

TEST(RpcoIB, EagerEchoRoundTrips) {
  Scheduler s;
  Fixture f(s);
  bool ok = false;
  s.spawn(call_echo(f.client, 512, ok));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(ok);
}

class RpcoIBSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RpcoIBSizes, EchoRoundTripsEagerAndRendezvous) {
  Scheduler s;
  Fixture f(s);
  bool ok = false;
  s.spawn(call_echo(f.client, GetParam(), ok));
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(ok) << GetParam();
}

// 4096+overhead crosses the default eager threshold: both paths covered.
INSTANTIATE_TEST_SUITE_P(Sweep, RpcoIBSizes,
                         ::testing::Values(1, 64, 1024, 4000, 4096, 8192, 65536, 1u << 20,
                                           2u << 20));

// Regression (threshold handshake): a client configured with a larger
// eager threshold than the server used to eager-SEND mid-size messages
// into pre-posted receive buffers the server sized from its own smaller
// knob — a verbs-level overrun. Post-fix both ends advertise their
// thresholds at bootstrap and use min(local, peer), so the 4 KB call
// below goes rendezvous and completes; both sides count the mismatch.
TEST(RpcoIB, MismatchedEagerThresholdsNegotiateToMin) {
  Scheduler s;
  RdmaServerConfig scfg;
  scfg.eager_threshold = 2 * 1024;
  RdmaClientConfig ccfg;
  ccfg.eager_threshold = 16 * 1024;
  Fixture f(s, scfg, ccfg);
  bool ok = false;
  // Above the server's knob, below the client's: exactly the frame the
  // unfixed client would have stuffed into a 2 KB-sized receive slot.
  s.spawn(call_echo(f.client, 4096, ok));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(f.client.stats().threshold_mismatches, 1u);
  EXPECT_EQ(f.server.stats().threshold_mismatches, 1u);
  // No socket-mode escape hatch was needed: the RDMA path itself carried
  // the call (rendezvous under the negotiated threshold).
  EXPECT_EQ(f.client.stats().socket_reroutes, 0u);
  EXPECT_EQ(f.client.fallback_address_count(), 0u);
  f.client.close_connections();
  f.server.stop();
  s.drain_tasks();
}

TEST(RpcoIB, ManyConcurrentCalls) {
  Scheduler s;
  Fixture f(s);
  constexpr int kN = 24;
  std::vector<bool> oks(kN, false);
  std::vector<char> dummy(kN);
  for (int i = 0; i < kN; ++i) {
    bool* ok = reinterpret_cast<bool*>(&dummy[static_cast<std::size_t>(i)]);
    *ok = false;
    s.spawn(call_echo(f.client, 256 + static_cast<std::size_t>(i) * 64, *ok));
  }
  s.run_until(sim::seconds(30));
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(dummy[static_cast<std::size_t>(i)]) << i;
}

Task call_fail_t(rpc::RpcClient& client, bool& remote_ex) {
  rpc::NullWritable arg;
  try {
    co_await client.call(kAddr, kFail, arg, nullptr);
  } catch (const rpc::RemoteException&) {
    remote_ex = true;
  }
}

TEST(RpcoIB, RemoteExceptionPropagates) {
  Scheduler s;
  Fixture f(s);
  bool remote_ex = false;
  s.spawn(call_fail_t(f.client, remote_ex));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(remote_ex);
}

TEST(RpcoIB, HistoryWarmupEliminatesRegets) {
  Scheduler s;
  Fixture f(s);
  bool ok = false;
  // First call alone (cold history)...
  s.spawn(call_echo(f.client, 1500, ok));
  s.run_until(sim::seconds(5));
  // ...then four more with the learned size.
  for (int i = 0; i < 4; ++i) s.spawn(call_echo(f.client, 1500, ok));
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(ok);
  const rpc::MethodProfile& prof = f.client.stats().methods.at(kEcho);
  ASSERT_EQ(prof.mem_adjustments.count(), 5u);
  // Only the first call may have re-gets (the paper: "only the first call
  // may need the buffer adjustment").
  EXPECT_GT(prof.mem_adjustments.max(), 0.0);
  EXPECT_EQ(prof.mem_adjustments.min(), 0.0);
  EXPECT_LE(prof.mem_adjustments.sum(), prof.mem_adjustments.max());
}

TEST(RpcoIB, LatencyBeatsSocketBaselines) {
  // The headline Fig. 5(a) property: RPCoIB < IPoIB and 10GigE at equal
  // payload, warm history.
  auto rpcoib_rtt = [](std::size_t n) {
    Scheduler s;
    Fixture f(s);
    bool ok = false;
    double warm = 0;
    s.spawn(call_echo(f.client, n, ok));
    s.run_until(sim::seconds(5));
    s.spawn(call_echo(f.client, n, ok, &warm));
    s.run_until(sim::seconds(10));
    EXPECT_TRUE(ok);
    return warm;
  };
  auto socket_rtt = [](std::size_t n, net::Transport t) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    rpc::SocketRpcServer server(tb.host(1), tb.sockets(), kAddr, 8);
    register_echo(server);
    server.start();
    rpc::SocketRpcClient client(tb.host(0), tb.sockets(), t);
    bool ok = false;
    double warm = 0;
    s.spawn(call_echo(client, n, ok));
    s.run_until(sim::seconds(5));
    s.spawn(call_echo(client, n, ok, &warm));
    s.run_until(sim::seconds(10));
    EXPECT_TRUE(ok);
    client.close_connections();
    server.stop();
    s.drain_tasks();
    return warm;
  };
  for (std::size_t n : {std::size_t{1}, std::size_t{1024}, std::size_t{4096}}) {
    const double rdma = rpcoib_rtt(n);
    const double ipoib = socket_rtt(n, net::Transport::kIPoIB);
    const double tengige = socket_rtt(n, net::Transport::kTenGigE);
    EXPECT_LT(rdma, ipoib) << n;
    EXPECT_LT(rdma, tengige) << n;
  }
}

TEST(RpcEngine, ModesProduceWorkingPairs) {
  for (RpcMode mode : {RpcMode::kSocket1GigE, RpcMode::kSocket10GigE,
                       RpcMode::kSocketIPoIB, RpcMode::kRpcoIB}) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    RpcEngine engine(tb, EngineConfig{.mode = mode});
    std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(1), kAddr);
    register_echo(*server);
    server->start();
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
    bool ok = false;
    s.spawn(call_echo(*client, 777, ok));
    s.run_until(sim::seconds(10));
    EXPECT_TRUE(ok) << rpc_mode_name(mode);
    server->stop();
    s.drain_tasks();
  }
}

TEST(RpcoIB, ThresholdSweepStillCorrect) {
  for (std::size_t threshold : {std::size_t{256}, std::size_t{1024}, std::size_t{16384}}) {
    Scheduler s;
    RdmaServerConfig sc;
    sc.eager_threshold = threshold;
    RdmaClientConfig cc;
    cc.eager_threshold = threshold;
    Fixture f(s, sc, cc);
    bool ok1 = false, ok2 = false;
    s.spawn(call_echo(f.client, threshold / 2, ok1));
    s.spawn(call_echo(f.client, threshold * 4, ok2));
    s.run_until(sim::seconds(30));
    EXPECT_TRUE(ok1) << threshold;
    EXPECT_TRUE(ok2) << threshold;
  }
}

Task echo_catching(RdmaRpcClient& client, bool& ok, bool& failed) {
  rpc::BytesWritable req(net::Bytes(64, 0x2a));
  rpc::BytesWritable resp;
  try {
    co_await client.call(kAddr, kEcho, req, &resp);
    ok = resp.value == req.value;
  } catch (const rpc::RpcTransportError&) {
    failed = true;
  }
}

Task start_rdma_server_after_failure(Scheduler& s, RdmaRpcServer& server, const bool& failed) {
  // Same 1 us poll as the socket twin: the listener comes up while the
  // first waiter's replacement bootstrap is still in flight.
  while (!failed) co_await sim::delay(s, sim::micros(1));
  server.start();
}

// The RC twin of SocketRpc.ReconnectRaceAdoptsReplacementConnection: the
// first caller's bootstrap fails (no listener yet), two callers parked on
// its `ready` wake on the broken connection, and exactly one replacement
// is dialled — the other waiter adopts it instead of dialling its own.
TEST(RpcoIB, ReconnectRaceAdoptsReplacementConnection) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  RdmaRpcServer server(tb.host(1), tb.sockets(), stack, kAddr);
  register_echo(server);
  RdmaRpcClient client(tb.host(0), tb.sockets(), stack);
  bool ok_a = false, ok_b = false, ok_c = false;
  bool failed_a = false, failed_b = false, failed_c = false;
  s.spawn(echo_catching(client, ok_a, failed_a));  // installs, fails
  s.spawn(echo_catching(client, ok_b, failed_b));  // waits on ready
  s.spawn(echo_catching(client, ok_c, failed_c));  // waits on ready
  s.spawn(start_rdma_server_after_failure(s, server, failed_a));
  s.run_until(sim::seconds(10));

  EXPECT_TRUE(failed_a);  // no listener at its bootstrap
  EXPECT_FALSE(failed_b);
  EXPECT_FALSE(failed_c);
  EXPECT_TRUE(ok_b);
  EXPECT_TRUE(ok_c);
  EXPECT_EQ(client.stats().connections_opened, 1u);
  // A refused bootstrap is a transport failure, not a verbs one: no
  // socket reroute.
  EXPECT_EQ(client.fallback_address_count(), 0u);
  client.close_connections();
  server.stop();
  s.drain_tasks();
}

// --- A failed rendezvous READ --------------------------------------------------
//
// A kCtrlCall whose RDMA READ fails (the rkey it names no longer resolves:
// the caller's source is gone) runs no handler. The failed READ leaves the
// fetched buffer untouched, and the pool's LIFO freelist hands the next
// same-sized fetch the buffer the last one used, so enqueuing it would run
// the previous call again. A raw RC peer sends one real kCtrlCall, waits
// for its answer, then a same-length kCtrlCall naming a deregistered
// region.

const rpc::MethodKey kCount{"test.EchoProtocol", "count"};

/// A kCall frame as the RPCoIB client serializes it, with a `n`-byte
/// BytesWritable param: large enough to sit in another pool class than
/// the response.
net::Bytes count_call_frame(const cluster::CostModel& cm, std::size_t n) {
  rpc::DataOutputBuffer out(cm);
  out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
  rpc::write_call_header(out, 1, false, 0, {}, kCount);
  rpc::BytesWritable(net::Bytes(n, net::Byte{5})).write(out);
  return net::Bytes(out.data().begin(), out.data().end());
}

struct RawRcPeer {
  RawRcPeer(Testbed& tb, verbs::VerbsStack& stack)
      : cm(stack, tb.sockets()), cq(tb.sched()), pd(stack, tb.host(0)), ring(4096) {}
  verbs::ConnectionManager cm;
  verbs::CompletionQueue cq;
  verbs::ProtectionDomain pd;
  verbs::QueuePairPtr qp;
  net::Bytes ring;  // the one receive slot, for the first call's kResp
};

Task rendezvous_calls(Testbed& tb, RawRcPeer& peer, net::Bytes& live, net::Bytes& gone,
                      bool& answered) {
  peer.qp = co_await peer.cm.connect(tb.host(0), kAddr, peer.cq, peer.cq);
  peer.qp->post_recv(2, peer.ring);
  const auto len = static_cast<std::uint32_t>(live.size());
  const verbs::MemoryRegion live_mr = peer.pd.register_mr_untimed(live);
  const ControlFrame first(Control{FrameType::kCtrlCall, live_mr.rkey, 0, len});
  co_await peer.qp->post_send(0, first.span());
  for (;;) {
    const verbs::WorkCompletion wc = co_await peer.cq.wait();
    if (wc.opcode == verbs::Opcode::kRecv) break;
  }
  answered = true;
  const verbs::MemoryRegion gone_mr = peer.pd.register_mr_untimed(gone);
  peer.pd.deregister(gone_mr);
  const ControlFrame second(Control{FrameType::kCtrlCall, gone_mr.rkey, 0, len});
  co_await peer.qp->post_send(0, second.span());
}

TEST(RpcoIB, FailedRendezvousReadRunsNoHandler) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  RdmaRpcServer server(tb.host(1), tb.sockets(), stack, kAddr);
  int runs = 0;
  server.dispatcher().register_method(
      "test.EchoProtocol", "count", [&runs](rpc::DataInput& in, rpc::DataOutput&) -> Co<void> {
        rpc::BytesWritable payload;
        payload.read_fields(in);
        ++runs;
        co_return;
      });
  server.start();
  RawRcPeer peer(tb, stack);
  net::Bytes live = count_call_frame(tb.host(0).cost(), 2000);
  net::Bytes gone(live.size());
  bool answered = false;
  s.spawn(rendezvous_calls(tb, peer, live, gone, answered));
  s.run_until(sim::seconds(1));
  ASSERT_TRUE(answered);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(server.stats().calls_handled, 1u);

  server.stop();
  s.run_until(sim::seconds(2));
  const PoolStats& sp = server.pool().native().stats();
  EXPECT_EQ(sp.acquires, sp.releases);
  s.drain_tasks();
}

// --- Restart sweep ------------------------------------------------------------
//
// A back-to-back stop(); start() swept across the first burst of traffic,
// one instant per microsecond from t = 0 (start(); stop() before any loop
// has run, then a stop during pool registration) to the burst's end.
// Each loop of the stopped run owns what it still touches, so at every
// instant each call ends with its value, a transport error or a timeout,
// one more echo succeeds, both pools balance, and once everything is
// stopped no task is left. Two cases: the UD plane, and RC with batching
// at RPCOIB_SHARDS shards (default 2) mixing batched, eager and
// rendezvous-sized calls, so a rendezvous fetch is in flight at some
// instants. Small pools keep registration, and with it the sweep, short.

enum Outcome : int { kPending = 0, kValue, kTransportError, kWrongValue };

struct RestartRig {
  static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4};
  static constexpr int kLanes = 2;        // concurrent callers per client
  static constexpr int kCallsPerLane = 4;

  static PoolConfig small_pool() {
    PoolConfig pool;
    pool.buffers_per_class = 2;
    pool.prealloc_max_class = 4096;
    pool.srq_depth = 8;
    return pool;
  }

  RestartRig(Scheduler& s, bool ud, int shards)
      : tb(s, Testbed::cluster_b()),
        stack(tb.fabric()),
        server(tb.host(1), tb.sockets(), stack, kAddr, server_cfg(ud, shards)),
        outcomes(std::size(kClientHosts) * kLanes * kCallsPerLane, kPending) {
    register_echo(server);
    rpc::BatchConfig batch;
    batch.enabled = !ud;
    server.set_batch(batch);
    server.start();
    rpc::RpcRetryPolicy retry;
    retry.call_timeout = sim::millis(2);
    retry.max_retries = 2;
    retry.backoff_base = sim::micros(200);
    RdmaClientConfig ccfg;
    ccfg.pool = small_pool();
    ccfg.ud.enabled = ud;
    for (const cluster::HostId h : kClientHosts) {
      clients.push_back(std::make_unique<RdmaRpcClient>(tb.host(h), tb.sockets(), stack, ccfg));
      clients.back()->set_retry_policy(retry);
      clients.back()->set_batch(batch);
    }
    // UD calls stay sub-MTU; the RC case adds rendezvous-sized ones.
    const std::vector<std::size_t> sizes =
        ud ? std::vector<std::size_t>{16, 256, 2000} : std::vector<std::size_t>{64, 2000, 16384};
    std::size_t slot = 0;
    for (auto& c : clients) {
      for (int lane = 0; lane < kLanes; ++lane) {
        std::vector<std::size_t> mine;
        for (int i = 0; i < kCallsPerLane; ++i) mine.push_back(sizes[(slot + i) % sizes.size()]);
        s.spawn(echo_lane(*c, mine, &outcomes[slot], &last_end));
        slot += kCallsPerLane;
      }
    }
  }
  ~RestartRig() {
    for (auto& c : clients) c->close_connections();
    server.stop();
    tb.sched().drain_tasks();
  }

  static RdmaServerConfig server_cfg(bool ud, int shards) {
    RdmaServerConfig cfg;
    cfg.shards = shards;
    cfg.pool = small_pool();
    cfg.ud.enabled = ud;
    cfg.ud.server_endpoints = 2;
    cfg.ud.recv_depth = 8;
    return cfg;
  }

  static Task echo_lane(rpc::RpcClient& c, std::vector<std::size_t> sizes, int* outcomes,
                        sim::Time* last_end) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      net::Bytes payload(sizes[i]);
      for (std::size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<net::Byte>(b * 7 + i);
      }
      rpc::BytesWritable req(payload);
      rpc::BytesWritable resp;
      try {
        co_await c.call(kAddr, kEcho, req, &resp);
        outcomes[i] = resp.value == payload ? kValue : kWrongValue;
      } catch (const rpc::RpcTransportError&) {
        outcomes[i] = kTransportError;
      }
      *last_end = std::max(*last_end, c.host().sched().now());
    }
  }

  Testbed tb;
  verbs::VerbsStack stack;
  RdmaRpcServer server;
  std::vector<std::unique_ptr<RdmaRpcClient>> clients;
  std::vector<int> outcomes;
  sim::Time last_end = 0;
};

void restart_sweep(bool ud, int shards) {
  // The burst's end, from a run without a restart.
  sim::Time burst_end = 0;
  {
    Scheduler s;
    RestartRig rig(s, ud, shards);
    s.run_until(sim::millis(50));
    for (const int o : rig.outcomes) ASSERT_EQ(o, kValue);
    burst_end = rig.last_end;
  }
  ASSERT_GT(burst_end, 0u);
  for (sim::Time t = 0; t <= burst_end; t += sim::micros(1)) {
    SCOPED_TRACE("restart at " + std::to_string(sim::to_us(t)) + " us");
    Scheduler s;
    RestartRig rig(s, ud, shards);
    s.run_until(t);
    rig.server.stop();
    rig.server.start();
    s.run_until(t + sim::millis(50));
    for (const int o : rig.outcomes) {
      ASSERT_TRUE(o == kValue || o == kTransportError) << "outcome " << o;
    }
    bool ok = false;
    s.spawn(call_echo(*rig.clients.front(), 512, ok));
    s.run_until(s.now() + sim::millis(50));
    ASSERT_TRUE(ok);

    for (auto& c : rig.clients) c->close_connections();
    rig.server.stop();
    s.run_until(s.now() + sim::millis(50));
    for (auto& c : rig.clients) {
      ASSERT_EQ(c->pool().native().stats().acquires, c->pool().native().stats().releases);
    }
    const PoolStats& sp = rig.server.pool().native().stats();
    ASSERT_EQ(sp.acquires, sp.releases);
    ASSERT_EQ(s.live_task_count(), 0u);
  }
}

TEST(RpcoIB, RestartMidTrafficServesAgainUd) { restart_sweep(true, chaos_shards(1)); }

TEST(RpcoIB, RestartMidTrafficServesAgainRcBatched) { restart_sweep(false, chaos_shards(2)); }

}  // namespace
}  // namespace rpcoib::oib
