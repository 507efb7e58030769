// End-to-end tests of the RPCoIB path: echo over eager and rendezvous,
// concurrency, exceptions, latency vs the socket baseline, history warmup,
// engine-mode switching.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/testbed.hpp"
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

}  // namespace
}  // namespace rpcoib::oib
