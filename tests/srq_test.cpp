// Shared-receive-queue coverage: verbs-level SRQ semantics (shared ring,
// FIFO consumption across QPs, RNR parking, low-watermark limit events,
// teardown drain), and the RPCoIB server rebuilt on it — registered
// receive memory flat in connection count, backpressure under a tiny ring,
// idle-connection eviction with transparent client re-bootstrap, legacy
// per-QP-ring mode, and seed determinism of the srq.* counters.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/testbed.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib {
namespace {

using net::Address;
using net::Byte;
using net::Bytes;
using net::Testbed;
using sim::Co;
using sim::Scheduler;
using sim::Task;

// --- Verbs-level SRQ units --------------------------------------------------

/// `n` client QPs bootstrapped one at a time (unambiguous pairing), all
/// server ends attached to one SRQ with qp_context = index + 1.
struct SrqFixture {
  SrqFixture(Scheduler& s, int n)
      : sched(s),
        tb(s, Testbed::cluster_b()),
        stack(tb.fabric()),
        cm(stack, tb.sockets()),
        srq(s),
        server_scq(s),
        server_rcq(s) {
    net::Listener& l = *tb.sockets().listen({1, 7100});
    for (int i = 0; i < n; ++i) {
      client_scq.push_back(std::make_unique<verbs::CompletionQueue>(s));
      client_rcq.push_back(std::make_unique<verbs::CompletionQueue>(s));
      verbs::QueuePairPtr sq, cq;
      s.spawn(accept_one(l, sq));
      s.spawn(connect_one(i, cq));
      s.run();
      sq->set_srq(&srq);
      sq->set_context(static_cast<std::uint64_t>(i) + 1);
      server_qps.push_back(std::move(sq));
      client_qps.push_back(std::move(cq));
    }
  }

  Task accept_one(net::Listener& l, verbs::QueuePairPtr& out) {
    net::SocketPtr boot = co_await l.accept();
    out = co_await cm.accept(boot, server_scq, server_rcq);
  }
  Task connect_one(int i, verbs::QueuePairPtr& out) {
    out = co_await cm.connect(tb.host(0), {1, 7100}, *client_scq[i], *client_rcq[i]);
  }

  Scheduler& sched;
  Testbed tb;
  verbs::VerbsStack stack;
  verbs::ConnectionManager cm;
  verbs::SharedReceiveQueue srq;
  verbs::CompletionQueue server_scq, server_rcq;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> client_scq, client_rcq;
  std::vector<verbs::QueuePairPtr> server_qps, client_qps;
};

Task do_send(verbs::QueuePairPtr qp, Bytes payload) { co_await qp->post_send(1, payload); }

Bytes pattern(std::size_t n, int seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<Byte>(i * 7 + seed);
  return b;
}

TEST(SharedReceiveQueue, SendsFromDifferentQpsConsumeOneRingFifo) {
  Scheduler s;
  SrqFixture f(s, 2);

  Bytes r1(64), r2(64);
  f.srq.post_recv(11, r1);
  f.srq.post_recv(12, r2);
  EXPECT_EQ(f.srq.posted(), 2u);

  Bytes m1 = pattern(16, 1), m2 = pattern(24, 2);
  s.spawn(do_send(f.client_qps[0], m1));
  s.spawn(do_send(f.client_qps[1], m2));
  s.run();

  // Ring buffers are consumed in posting order; each completion names its
  // connection via qp_context (the wr_id only names the shared buffer).
  verbs::WorkCompletion wc;
  ASSERT_TRUE(f.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_EQ(wc.qp_context, 1u);
  EXPECT_EQ(wc.byte_len, m1.size());
  EXPECT_EQ(0, std::memcmp(r1.data(), m1.data(), m1.size()));
  ASSERT_TRUE(f.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 12u);
  EXPECT_EQ(wc.qp_context, 2u);
  EXPECT_EQ(0, std::memcmp(r2.data(), m2.data(), m2.size()));
  EXPECT_EQ(f.srq.posted(), 0u);
  EXPECT_EQ(f.srq.rnr_stalls(), 0u);
}

TEST(SharedReceiveQueue, EmptyRingParksArrivalsAndDrainsInArrivalOrder) {
  Scheduler s;
  SrqFixture f(s, 2);

  Bytes m1 = pattern(16, 1), m2 = pattern(16, 2);
  s.spawn(do_send(f.client_qps[0], m1));
  s.run();
  s.spawn(do_send(f.client_qps[1], m2));
  s.run();

  // RNR: both arrivals found the ring dry and parked.
  verbs::WorkCompletion wc;
  EXPECT_FALSE(f.server_rcq.poll(wc));
  EXPECT_EQ(f.srq.rnr_stalls(), 2u);

  // Buffers posted later satisfy parked QPs in arrival order.
  Bytes r1(64), r2(64);
  f.srq.post_recv(21, r1);
  ASSERT_TRUE(f.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 21u);
  EXPECT_EQ(wc.qp_context, 1u);
  EXPECT_EQ(0, std::memcmp(r1.data(), m1.data(), m1.size()));
  f.srq.post_recv(22, r2);
  ASSERT_TRUE(f.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 22u);
  EXPECT_EQ(wc.qp_context, 2u);
  EXPECT_EQ(0, std::memcmp(r2.data(), m2.data(), m2.size()));
}

Task limit_watcher(verbs::SharedReceiveQueue& srq, int& fires) {
  try {
    for (;;) {
      co_await srq.wait_limit();
      ++fires;
    }
  } catch (const sim::ChannelClosed&) {
  }
}

TEST(SharedReceiveQueue, LimitEventIsOneShotAndRearmBelowFiresImmediately) {
  Scheduler s;
  SrqFixture f(s, 1);

  std::vector<Bytes> rbufs(4, Bytes(64));
  for (std::size_t i = 0; i < rbufs.size(); ++i) {
    f.srq.post_recv(i + 1, rbufs[i]);
  }
  f.srq.arm_limit(2);
  int fires = 0;
  s.spawn(limit_watcher(f.srq, fires));

  // Consuming 4 -> 3 -> 2 crosses nothing; 2 -> 1 drops below the
  // watermark and fires exactly once (the event then disarms).
  for (int i = 0; i < 3; ++i) s.spawn(do_send(f.client_qps[0], pattern(8, i)));
  s.run();
  EXPECT_EQ(fires, 1);
  s.spawn(do_send(f.client_qps[0], pattern(8, 9)));
  s.run();
  EXPECT_EQ(fires, 1);  // still disarmed: no second event at 1 -> 0

  // Re-arming while already below the watermark fires immediately.
  f.srq.arm_limit(2);
  s.run();
  EXPECT_EQ(fires, 2);

  f.srq.close();
  s.run();  // watcher exits via ChannelClosed
}

TEST(SharedReceiveQueue, DrainReturnsAllPostedWrIds) {
  Scheduler s;
  SrqFixture f(s, 0);
  std::vector<Bytes> rbufs(3, Bytes(32));
  for (std::size_t i = 0; i < rbufs.size(); ++i) f.srq.post_recv(50 + i, rbufs[i]);
  const std::vector<std::uint64_t> ids = f.srq.drain_posted_recvs();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 50u);
  EXPECT_EQ(ids[2], 52u);
  EXPECT_EQ(f.srq.posted(), 0u);
}

TEST(SharedReceiveQueue, PostRecvOnAttachedQpThrowsAndDetachRestoresIt) {
  Scheduler s;
  SrqFixture f(s, 1);
  Bytes rbuf(64);
  // Like real verbs: a QP attached to an SRQ has no receive queue of its own.
  EXPECT_THROW(f.server_qps[0]->post_recv(1, rbuf), verbs::VerbsError);
  f.server_qps[0]->set_srq(nullptr);
  f.server_qps[0]->post_recv(77, rbuf);
  Bytes msg = pattern(16, 3);
  s.spawn(do_send(f.client_qps[0], msg));
  s.run();
  verbs::WorkCompletion wc;
  ASSERT_TRUE(f.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 77u);
  EXPECT_EQ(0, std::memcmp(rbuf.data(), msg.data(), msg.size()));
}

// --- RPCoIB server on the SRQ -----------------------------------------------

constexpr Address kAddr{1, 9800};
const rpc::MethodKey kEcho{"test.SrqProtocol", "echo"};

void register_echo(rpc::RpcServer& server) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method,
      [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable payload;
        payload.read_fields(in);
        rpc::BytesWritable(std::move(payload.value)).write(out);
        co_return;
      });
}

/// RPCoIB server plus `n` independent clients spread over the testbed's
/// non-server hosts (each with its own pool and connection).
struct ServerFixture {
  ServerFixture(Scheduler& s, int n, const oib::EngineConfig& scfg = {},
                const oib::EngineConfig& ccfg = {})
      : tb(s, Testbed::cluster_b()),
        stack(tb.fabric()),
        server(tb.host(1), tb.sockets(), stack, kAddr, scfg) {
    register_echo(server);
    server.start();
    static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < n; ++i) {
      clients.push_back(std::make_unique<oib::RdmaRpcClient>(
          tb.host(kClientHosts[i % 8]), tb.sockets(), stack, ccfg));
    }
  }
  ~ServerFixture() {
    for (auto& c : clients) c->close_connections();
    server.stop();
    tb.sched().drain_tasks();
  }
  Testbed tb;
  verbs::VerbsStack stack;
  oib::RdmaRpcServer server;
  std::vector<std::unique_ptr<oib::RdmaRpcClient>> clients;
};

Task call_echo(rpc::RpcClient& client, std::size_t n, bool& ok) {
  Bytes payload = pattern(n, 5);
  rpc::BytesWritable req(payload);
  rpc::BytesWritable resp;
  co_await client.call(kAddr, kEcho, req, &resp);
  ok = (resp.value == payload);
}

/// One 64-byte echo per client; returns the server's receive-ring peak.
std::uint64_t ring_peak_with(int nclients, std::size_t srq_depth) {
  Scheduler s;
  oib::EngineConfig scfg;
  scfg.pool.srq_depth = srq_depth;
  ServerFixture f(s, nclients, scfg);
  std::vector<char> oks(static_cast<std::size_t>(nclients), 0);
  for (int i = 0; i < nclients; ++i) {
    bool* ok = reinterpret_cast<bool*>(&oks[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(*f.clients[static_cast<std::size_t>(i)], 64, *ok));
  }
  s.run_until(sim::seconds(30));
  for (int i = 0; i < nclients; ++i) {
    EXPECT_TRUE(oks[static_cast<std::size_t>(i)]) << "client " << i;
  }
  const std::uint64_t peak = f.server.stats().recv_ring_bytes_peak;
  for (auto& c : f.clients) c->close_connections();
  f.server.stop();
  s.drain_tasks();
  return peak;
}

// The tentpole property: with the SRQ the server's posted receive memory is
// a function of srq_depth, not of how many connections accept() creates.
// The legacy per-QP rings grow linearly in connection count.
TEST(SrqServer, RegisteredRecvRingFlatInConnectionCount) {
  const std::uint64_t srq2 = ring_peak_with(2, 64);
  const std::uint64_t srq8 = ring_peak_with(8, 64);
  EXPECT_GT(srq2, 0u);
  EXPECT_EQ(srq8, srq2);

  const std::uint64_t perqp2 = ring_peak_with(2, 0);
  const std::uint64_t perqp8 = ring_peak_with(8, 0);
  EXPECT_GE(perqp8, perqp2 * 3);  // ~4x, allowing accept-timing slack
}

TEST(SrqServer, TinyRingBackpressuresWithRnrAndRefillsButCompletesAllCalls) {
  Scheduler s;
  oib::EngineConfig scfg;
  scfg.pool.srq_depth = 2;
  ServerFixture f(s, 6, scfg);
  // Warm phase: bootstrap every connection (staggered by the serial accept
  // handshakes) so the burst below is pure same-tick eager traffic.
  std::vector<char> warm(6, 0);
  for (int i = 0; i < 6; ++i) {
    bool* ok = reinterpret_cast<bool*>(&warm[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(*f.clients[static_cast<std::size_t>(i)], 64, *ok));
  }
  s.run_until(sim::seconds(5));
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(warm[static_cast<std::size_t>(i)]) << i;

  // Burst: the hosts are equidistant, so one call per warmed client lands
  // on the server in the same tick — more arrivals than the 2-deep ring.
  constexpr int kCalls = 12;
  std::vector<char> oks(kCalls, 0);
  for (int i = 0; i < kCalls; ++i) {
    bool* ok = reinterpret_cast<bool*>(&oks[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(*f.clients[static_cast<std::size_t>(i) % 6], 64, *ok));
  }
  s.run_until(sim::seconds(30));
  for (int i = 0; i < kCalls; ++i) EXPECT_TRUE(oks[static_cast<std::size_t>(i)]) << i;

  const rpc::RpcStats& ss = f.server.stats();
  // Some arrivals must have parked (RNR backpressure), the watermark
  // refill must have run, and every call still completed. The ring-bytes
  // peak counts buffers from post to completion processing, so an RNR
  // drain burst bounds it by in-flight calls — not by connection count.
  EXPECT_GT(ss.srq_rnr_stalls, 0u);
  EXPECT_GE(ss.srq_refills, 1u);
  EXPECT_GT(ss.srq_posted, 0u);
  EXPECT_LE(ss.recv_ring_bytes_peak,
            static_cast<std::uint64_t>(kCalls + 2) * oib::WireDefaults::kRecvBufSize);
}

Task two_calls_with_idle_gap(Scheduler& s, rpc::RpcClient& client, bool& ok1, bool& ok2) {
  co_await [](rpc::RpcClient& c, bool& ok) -> Co<void> {
    Bytes payload = pattern(64, 5);
    rpc::BytesWritable req(payload);
    rpc::BytesWritable resp;
    co_await c.call(kAddr, kEcho, req, &resp);
    ok = (resp.value == payload);
  }(client, ok1);
  co_await sim::delay(s, sim::seconds(3));  // idle past the eviction horizon
  co_await [](rpc::RpcClient& c, bool& ok) -> Co<void> {
    Bytes payload = pattern(64, 6);
    rpc::BytesWritable req(payload);
    rpc::BytesWritable resp;
    co_await c.call(kAddr, kEcho, req, &resp);
    ok = (resp.value == payload);
  }(client, ok2);
}

TEST(SrqServer, IdleEvictionIsTransparentToTheClient) {
  Scheduler s;
  oib::EngineConfig scfg;
  scfg.pool.srq_idle_evict = sim::seconds(1);
  ServerFixture f(s, 1, scfg);
  bool ok1 = false, ok2 = false;
  s.spawn(two_calls_with_idle_gap(s, *f.clients[0], ok1, ok2));
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);  // re-bootstrapped transparently after the eviction
  EXPECT_GE(f.server.stats().srq_evictions, 1u);
  EXPECT_EQ(f.clients[0]->stats().connections_opened, 2u);
}

TEST(SrqServer, LegacyPerQpRingModeStillServes) {
  Scheduler s;
  oib::EngineConfig scfg;
  scfg.pool.srq_depth = 0;  // legacy mode
  ServerFixture f(s, 1, scfg);
  bool ok = false;
  s.spawn(call_echo(*f.clients[0], 512, ok));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(f.server.stats().srq_posted, 0u);
  EXPECT_EQ(f.server.stats().srq_refills, 0u);
  EXPECT_GT(f.server.stats().recv_ring_bytes_peak, 0u);  // per-QP ring
}

std::vector<std::uint64_t> srq_counter_run() {
  Scheduler s;
  oib::EngineConfig scfg;
  scfg.pool.srq_depth = 2;
  ServerFixture f(s, 4, scfg);
  std::vector<char> oks(8, 0);
  for (int i = 0; i < 8; ++i) {
    bool* ok = reinterpret_cast<bool*>(&oks[static_cast<std::size_t>(i)]);
    s.spawn(call_echo(*f.clients[static_cast<std::size_t>(i) % 4], 64, *ok));
  }
  s.run_until(sim::seconds(30));
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(oks[static_cast<std::size_t>(i)]) << i;
  const rpc::RpcStats& ss = f.server.stats();
  return {ss.srq_posted, ss.srq_refills, ss.srq_rnr_stalls, ss.recv_ring_bytes_peak,
          ss.calls_handled};
}

TEST(SrqServer, SrqCountersAreSeedDeterministic) {
  EXPECT_EQ(srq_counter_run(), srq_counter_run());
}

}  // namespace
}  // namespace rpcoib
