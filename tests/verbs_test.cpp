// Tests for the simulated verbs layer: registration, send/recv matching,
// RDMA read/write data integrity, pattern-payload WRITEs, completion
// ordering, error paths.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <numeric>
#include <string>

#include "net/testbed.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::verbs {
namespace {

using net::Byte;
using net::Bytes;
using net::Testbed;
using net::Transport;
using sim::Scheduler;
using sim::Task;

struct VerbsFixture {
  explicit VerbsFixture(Scheduler& s) : tb(s, Testbed::cluster_b()), stack(tb.fabric()), cm(stack, tb.sockets()) {}
  Testbed tb;
  VerbsStack stack;
  ConnectionManager cm;
};

TEST(MemoryRegion, RegisterResolveDeregister) {
  Scheduler s;
  VerbsFixture f(s);
  ProtectionDomain pd(f.stack, f.tb.host(0));
  Bytes buf(4096);
  MemoryRegion mr = pd.register_mr_untimed(buf);
  EXPECT_GT(mr.rkey, 0u);
  EXPECT_EQ(f.stack.resolve(mr.rkey, 0, 4096).data(), buf.data());
  EXPECT_EQ(f.stack.resolve(mr.rkey, 100, 8).data(), buf.data() + 100);
  EXPECT_THROW(f.stack.resolve(mr.rkey, 4000, 200), VerbsError);
  pd.deregister(mr);
  EXPECT_THROW(f.stack.resolve(mr.rkey, 0, 1), VerbsError);
}

TEST(MemoryRegion, DeregisteredKeyIsUnknownAndNeverReused) {
  Scheduler s;
  VerbsFixture f(s);
  ProtectionDomain pd(f.stack, f.tb.host(0));
  Bytes a(64), b(64);
  const MemoryRegion first = pd.register_mr_untimed(a);
  pd.deregister(first);
  try {
    (void)f.stack.resolve(first.rkey, 0, 1);
    ADD_FAILURE() << "a deregistered rkey resolved";
  } catch (const VerbsError& e) {
    EXPECT_STREQ(e.what(), "unknown rkey");
  }
  const MemoryRegion second = pd.register_mr_untimed(b);
  EXPECT_NE(second.rkey, first.rkey);
  EXPECT_THROW(f.stack.resolve(first.rkey, 0, 1), VerbsError);
  EXPECT_EQ(f.stack.resolve(second.rkey, 0, 64).data(), b.data());
  EXPECT_THROW(f.stack.resolve(second.rkey + 1, 0, 1), VerbsError);  // never issued
}

TEST(VerbsStack, SpareStagingListIsBounded) {
  Scheduler s;
  VerbsFixture f(s);
  for (std::size_t i = 0; i < VerbsStack::kSpareStaging + 8; ++i) {
    f.stack.recycle_staging(Bytes(64));
  }
  f.stack.recycle_staging(Bytes(VerbsStack::kSpareStagingBytes + 1));  // too big to keep
  std::size_t kept = 0;
  for (;;) {
    const Bytes b = f.stack.take_staging();
    if (b.capacity() == 0) break;
    EXPECT_TRUE(b.empty());
    EXPECT_LE(b.capacity(), VerbsStack::kSpareStagingBytes);
    ++kept;
  }
  EXPECT_EQ(kept, VerbsStack::kSpareStaging);
}

TEST(MemoryRegion, RegistrationCostScalesWithSize) {
  Scheduler s;
  VerbsFixture f(s);
  EXPECT_LT(f.stack.registration_cost(4096), f.stack.registration_cost(1 << 20));
}

Task server_side(VerbsFixture& f, net::Listener& l, CompletionQueue& scq, CompletionQueue& rcq,
                 QueuePairPtr& out) {
  net::SocketPtr boot = co_await l.accept();
  out = co_await f.cm.accept(boot, scq, rcq);
}

Task client_side(VerbsFixture& f, net::Address addr, CompletionQueue& scq,
                 CompletionQueue& rcq, QueuePairPtr& out) {
  out = co_await f.cm.connect(f.tb.host(0), addr, scq, rcq);
}

struct ConnectedPair {
  ConnectedPair(Scheduler& s, VerbsFixture& f)
      : client_scq(s), client_rcq(s), server_scq(s), server_rcq(s) {
    net::Listener& l = *f.tb.sockets().listen({1, 7000});
    s.spawn(server_side(f, l, server_scq, server_rcq, server_qp));
    s.spawn(client_side(f, {1, 7000}, client_scq, client_rcq, client_qp));
    s.run();
  }
  CompletionQueue client_scq, client_rcq, server_scq, server_rcq;
  QueuePairPtr client_qp, server_qp;
};

TEST(ConnectionManager, EstablishesConnectedQpPair) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  ASSERT_TRUE(p.client_qp);
  ASSERT_TRUE(p.server_qp);
  EXPECT_TRUE(p.client_qp->connected());
  EXPECT_TRUE(p.server_qp->connected());
  EXPECT_EQ(p.client_qp->remote_host(), 1);
  EXPECT_EQ(p.server_qp->remote_host(), 0);
}

Task do_send(QueuePairPtr qp, Bytes payload) { co_await qp->post_send(1, payload); }

TEST(QueuePair, SendConsumesPostedRecvFifo) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  Bytes rbuf1(64), rbuf2(64);
  p.server_qp->post_recv(11, rbuf1);
  p.server_qp->post_recv(12, rbuf2);

  Bytes m1(16);
  std::iota(m1.begin(), m1.end(), Byte{1});
  Bytes m2(24);
  std::iota(m2.begin(), m2.end(), Byte{100});
  s.spawn(do_send(p.client_qp, m1));
  s.spawn(do_send(p.client_qp, m2));
  s.run();

  WorkCompletion wc;
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_EQ(wc.opcode, Opcode::kRecv);
  EXPECT_EQ(wc.byte_len, 16u);
  EXPECT_EQ(0, memcmp(rbuf1.data(), m1.data(), m1.size()));
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 12u);
  EXPECT_EQ(wc.byte_len, 24u);
  EXPECT_EQ(0, memcmp(rbuf2.data(), m2.data(), m2.size()));
  // Sender got two kSend completions.
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kSend);
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_FALSE(p.client_scq.poll(wc));
}

TEST(QueuePair, SendBeforeRecvParksUntilRecvPosted) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  Bytes msg(8, Byte{7});
  s.spawn(do_send(p.client_qp, msg));
  s.run();
  WorkCompletion wc;
  EXPECT_FALSE(p.server_rcq.poll(wc));  // nothing posted yet (RNR parking)

  Bytes rbuf(8);
  p.server_qp->post_recv(42, rbuf);
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 42u);
  EXPECT_EQ(rbuf, msg);
}

Task do_write(QueuePairPtr qp, Bytes payload, RemoteBuffer dst, std::optional<std::uint32_t> imm) {
  co_await qp->post_rdma_write(5, payload, dst, imm);
}

TEST(QueuePair, RdmaWritePlacesBytesAndRaisesImm) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes target(256, Byte{0});
  MemoryRegion mr = server_pd.register_mr_untimed(target);

  Bytes payload(200);
  std::iota(payload.begin(), payload.end(), Byte{0});
  s.spawn(do_write(p.client_qp, payload, RemoteBuffer{mr.rkey, 16, 240}, 0xBEEF));
  s.run();

  EXPECT_EQ(0, memcmp(target.data() + 16, payload.data(), payload.size()));
  WorkCompletion wc;
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRecvRdmaWithImm);
  EXPECT_EQ(wc.imm_data, 0xBEEFu);
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRdmaWrite);
}

Task do_pattern_write(QueuePairPtr qp, std::size_t n, std::uint64_t seed, RemoteBuffer dst) {
  co_await qp->post_rdma_write(5, net::Payload::pattern(n, seed), dst, 0xCAFE);
}

TEST(QueuePair, PatternRdmaWriteMovesOnlyItsDescriptor) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes target(256, Byte{0x5A});
  MemoryRegion mr = server_pd.register_mr_untimed(target);

  s.spawn(do_pattern_write(p.client_qp, 200, 77, RemoteBuffer{mr.rkey, 16, 240}));
  s.run();

  EXPECT_EQ(target, Bytes(256, Byte{0x5A}));
  WorkCompletion wc;
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRecvRdmaWithImm);
  EXPECT_EQ(wc.imm_data, 0xCAFEu);
  EXPECT_EQ(wc.byte_len, 200u);
  EXPECT_TRUE(wc.pattern);
  EXPECT_EQ(wc.pattern_seed, 77u);
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRdmaWrite);
  EXPECT_EQ(wc.byte_len, 200u);
}

TEST(QueuePair, BytesRdmaWriteCompletionIsNotAPattern) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes target(64, Byte{0});
  MemoryRegion mr = server_pd.register_mr_untimed(target);
  s.spawn(do_write(p.client_qp, Bytes(32, Byte{9}), RemoteBuffer{mr.rkey, 0, 64}, 1));
  s.run();

  WorkCompletion wc;
  ASSERT_TRUE(p.server_rcq.poll(wc));
  EXPECT_EQ(wc.byte_len, 32u);
  EXPECT_FALSE(wc.pattern);
}

/// How one RDMA WRITE of `n` bytes to `dst` ends: "ok", "post: <why>" if
/// post_rdma_write threw, or "arrival: <why>" if the write failed where it
/// landed. `pattern` picks a pattern payload over real bytes.
std::string write_outcome(bool pattern, std::size_t n, RemoteBuffer dst) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes target(256, Byte{0});
  const MemoryRegion mr = server_pd.register_mr_untimed(target);
  if (dst.rkey == 0) dst.rkey = mr.rkey;
  const Bytes bytes(n, Byte{1});
  std::string outcome = "ok";
  s.spawn([](QueuePairPtr qp, net::Payload payload, RemoteBuffer dst,
             std::string& outcome) -> Task {
    try {
      co_await qp->post_rdma_write(5, payload, dst, 1);
    } catch (const VerbsError& e) {
      outcome = std::string("post: ") + e.what();
    }
  }(p.client_qp, pattern ? net::Payload::pattern(n, 3) : net::Payload(bytes), dst, outcome));
  try {
    s.run();
  } catch (const VerbsError& e) {
    outcome = std::string("arrival: ") + e.what();
  }
  return outcome;
}

TEST(QueuePair, PatternRdmaWriteFailsExactlyAsABytesWrite) {
  struct Case {
    std::size_t n;
    RemoteBuffer dst;  // rkey 0: the registered region's
    const char* expect;
  };
  const Case cases[] = {
      {64, RemoteBuffer{0, 0, 64}, "ok"},
      {65, RemoteBuffer{0, 0, 64}, "post: RDMA write larger than remote buffer"},
      {64, RemoteBuffer{0xDEAD, 0, 64}, "arrival: unknown rkey"},
      {64, RemoteBuffer{0, 224, 64}, "arrival: remote access out of bounds"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(write_outcome(false, c.n, c.dst), c.expect);
    EXPECT_EQ(write_outcome(true, c.n, c.dst), c.expect);
  }
}

Task do_read(QueuePairPtr qp, net::MutByteSpan local, RemoteBuffer src) {
  co_await qp->post_rdma_read(6, local, src);
}

TEST(QueuePair, RdmaReadFetchesRemoteBytes) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);

  ProtectionDomain server_pd(f.stack, f.tb.host(1));
  Bytes remote(512);
  std::iota(remote.begin(), remote.end(), Byte{0});
  MemoryRegion mr = server_pd.register_mr_untimed(remote);

  Bytes local(128, Byte{0});
  s.spawn(do_read(p.client_qp, local, RemoteBuffer{mr.rkey, 64, 128}));
  s.run();

  EXPECT_EQ(0, memcmp(local.data(), remote.data() + 64, 128));
  WorkCompletion wc;
  ASSERT_TRUE(p.client_scq.poll(wc));
  EXPECT_EQ(wc.opcode, Opcode::kRdmaRead);
  EXPECT_EQ(wc.byte_len, 128u);
  // One-sided: the server CQs saw nothing.
  EXPECT_FALSE(p.server_rcq.poll(wc));
  EXPECT_FALSE(p.server_scq.poll(wc));
}

Task read_then(QueuePairPtr qp, net::MutByteSpan local, RemoteBuffer src,
               std::function<void()> then) {
  co_await qp->post_rdma_read(6, local, src);
  then();  // the request is on the wire, not yet at the responder
}

TEST(QueuePair, RdmaReadThroughTornDownResponderFailsUntouched) {
  for (const bool destroy : {false, true}) {
    SCOPED_TRACE(destroy ? "responder QP destroyed" : "responder QP disconnected");
    Scheduler s;
    VerbsFixture f(s);
    ConnectedPair p(s, f);
    ProtectionDomain server_pd(f.stack, f.tb.host(1));
    Bytes remote(512);
    std::iota(remote.begin(), remote.end(), Byte{0});
    const MemoryRegion mr = server_pd.register_mr_untimed(remote);

    Bytes local(128, Byte{0xEE});
    s.spawn(read_then(p.client_qp, local, RemoteBuffer{mr.rkey, 0, 128}, [&p, destroy] {
      if (destroy) {
        p.server_qp.reset();
      } else {
        p.server_qp->disconnect();
      }
    }));
    s.run();

    // The region is still registered, but no QP is left to serve the READ.
    EXPECT_EQ(Bytes(128, Byte{0xEE}), local);
    WorkCompletion wc;
    ASSERT_TRUE(p.client_scq.poll(wc));
    EXPECT_EQ(wc.opcode, Opcode::kRdmaRead);
    EXPECT_EQ(wc.status, 1u);
    EXPECT_EQ(wc.byte_len, 0u);
    EXPECT_FALSE(p.client_scq.poll(wc));
  }
}

Task expect_send_throws(QueuePairPtr qp, bool& threw) {
  Bytes b(4);
  try {
    co_await qp->post_send(1, b);
  } catch (const VerbsError&) {
    threw = true;
  }
}

TEST(QueuePair, DisconnectedSendThrows) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  p.client_qp->disconnect();
  bool threw = false;
  s.spawn(expect_send_throws(p.client_qp, threw));
  s.run();
  EXPECT_TRUE(threw);
}

Task latency_probe(ConnectedPair& p, Scheduler& s, sim::Time& oneway) {
  Bytes msg(1);
  const sim::Time t0 = s.now();
  co_await p.client_qp->post_send(1, msg);
  (void)co_await p.server_rcq.wait();
  oneway = s.now() - t0;
}

TEST(QueuePair, SmallMessageLatencyNearHardwareFigure) {
  Scheduler s;
  VerbsFixture f(s);
  ConnectedPair p(s, f);
  Bytes rbuf(64);
  p.server_qp->post_recv(1, rbuf);
  sim::Time oneway = 0;
  s.spawn(latency_probe(p, s, oneway));
  s.run();
  // ~1.3us wire + doorbell/poll: must be in the small single-digit us range.
  EXPECT_GT(sim::to_us(oneway), 1.0);
  EXPECT_LT(sim::to_us(oneway), 5.0);
}

}  // namespace
}  // namespace rpcoib::verbs
