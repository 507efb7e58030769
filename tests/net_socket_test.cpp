// Tests for the simulated fabric and socket layer: timing, egress
// serialization, stream assembly, EOF, refused connections.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/testbed.hpp"
#include "sim/task.hpp"

namespace rpcoib::net {
namespace {

using sim::Co;
using sim::Scheduler;
using sim::Task;

TEST(Fabric, WireTimeScalesWithSizeAndBandwidth) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  const NetParams& ib = tb.fabric().params(Transport::kIBVerbs);
  // 3.2 GB/s: 3200 bytes take ~1us.
  EXPECT_NEAR(sim::to_us(ib.wire_time(3200)), 1.0, 0.05);
  const NetParams& ge = tb.fabric().params(Transport::kOneGigE);
  EXPECT_GT(ge.wire_time(3200), ib.wire_time(3200));
}

TEST(Fabric, EgressSerializesBackToBackMessages) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  // Two 1 MB messages from the same host: the second arrives one full
  // transmission time after the first.
  sim::Time a1 = 0, a2 = 0;
  tb.fabric().deliver(0, 1, Transport::kIPoIB, 1 << 20, [&] { a1 = s.now(); });
  tb.fabric().deliver(0, 1, Transport::kIPoIB, 1 << 20, [&] { a2 = s.now(); });
  s.run();
  const sim::Dur xmit = tb.fabric().params(Transport::kIPoIB).wire_time(1 << 20);
  EXPECT_EQ(a2 - a1, xmit);
}

Task echo_server(Testbed& tb, Listener& l) {
  SocketPtr sock = co_await l.accept();
  Bytes buf(5);
  co_await sock->read_full(buf);
  co_await sock->write(buf);
  (void)tb;
}

Task echo_client(Testbed& tb, Address addr, Transport t, std::string& got, sim::Time& rtt) {
  const sim::Time start = tb.sched().now();
  SocketPtr sock = co_await tb.sockets().connect(tb.host(0), addr, t);
  const Bytes msg = {'h', 'e', 'l', 'l', 'o'};
  co_await sock->write(msg);
  Bytes buf(5);
  co_await sock->read_full(buf);
  got.assign(buf.begin(), buf.end());
  rtt = tb.sched().now() - start;
}

TEST(Socket, EchoRoundTripOnEveryTransport) {
  for (Transport t : {Transport::kOneGigE, Transport::kTenGigE, Transport::kIPoIB,
                      Transport::kIBVerbs}) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    Listener& l = *tb.sockets().listen({1, 9000});
    std::string got;
    sim::Time rtt = 0;
    s.spawn(echo_server(tb, l));
    s.spawn(echo_client(tb, {1, 9000}, t, got, rtt));
    s.run();
    EXPECT_EQ(got, "hello") << transport_name(t);
    EXPECT_GT(rtt, 0u);
  }
}

TEST(Socket, FasterTransportsHaveLowerRtt) {
  auto rtt_of = [](Transport t) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    Listener& l = *tb.sockets().listen({1, 9000});
    std::string got;
    sim::Time rtt = 0;
    s.spawn(echo_server(tb, l));
    s.spawn(echo_client(tb, {1, 9000}, t, got, rtt));
    s.run();
    return rtt;
  };
  EXPECT_LT(rtt_of(Transport::kIBVerbs), rtt_of(Transport::kIPoIB));
  EXPECT_LT(rtt_of(Transport::kTenGigE), rtt_of(Transport::kOneGigE));
}

Task frag_server(Testbed& tb, Listener& l, Bytes& assembled) {
  (void)tb;
  SocketPtr sock = co_await l.accept();
  assembled.resize(10);
  co_await sock->read_full(assembled);
}

Task frag_client(Testbed& tb, Address addr) {
  SocketPtr sock = co_await tb.sockets().connect(tb.host(0), addr, Transport::kIPoIB);
  // Send 10 bytes as 4 fragments; the reader must reassemble.
  Bytes all(10);
  std::iota(all.begin(), all.end(), Byte{0});
  const ByteSpan span(all);
  co_await sock->write(span.subspan(0, 3));
  co_await sock->write(span.subspan(3, 1));
  co_await sock->write(span.subspan(4, 5));
  co_await sock->write(span.subspan(9, 1));
}

TEST(Socket, ReadFullAssemblesAcrossChunks) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  Listener& l = *tb.sockets().listen({2, 9001});
  Bytes assembled;
  s.spawn(frag_server(tb, l, assembled));
  s.spawn(frag_client(tb, {2, 9001}));
  s.run();
  Bytes expect(10);
  std::iota(expect.begin(), expect.end(), Byte{0});
  EXPECT_EQ(assembled, expect);
}

Task eof_server(Testbed& tb, Listener& l, bool& got_eof) {
  (void)tb;
  SocketPtr sock = co_await l.accept();
  Bytes buf(100);
  try {
    co_await sock->read_full(buf);
  } catch (const SocketError&) {
    got_eof = true;
  }
}

Task eof_client(Testbed& tb, Address addr) {
  SocketPtr sock = co_await tb.sockets().connect(tb.host(0), addr, Transport::kIPoIB);
  const Bytes part{1, 2, 3};
  co_await sock->write(part);
  sock->close();
}

TEST(Socket, PeerCloseSurfacesAsEofError) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  Listener& l = *tb.sockets().listen({3, 9002});
  bool got_eof = false;
  s.spawn(eof_server(tb, l, got_eof));
  s.spawn(eof_client(tb, {3, 9002}));
  s.run();
  EXPECT_TRUE(got_eof);
}

Task refused_client(Testbed& tb, bool& refused) {
  try {
    (void)co_await tb.sockets().connect(tb.host(0), {4, 1234}, Transport::kIPoIB);
  } catch (const SocketError&) {
    refused = true;
  }
}

TEST(Socket, ConnectToUnboundPortIsRefused) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  bool refused = false;
  s.spawn(refused_client(tb, refused));
  s.run();
  EXPECT_TRUE(refused);
}

TEST(SocketTable, DuplicateBindThrows) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  tb.sockets().listen({1, 9000});
  EXPECT_THROW(tb.sockets().listen({1, 9000}), SocketError);
  tb.sockets().unlisten({1, 9000});
  EXPECT_NO_THROW(tb.sockets().listen({1, 9000}));
}

Task accept_once(std::shared_ptr<Listener> l, bool& closed, SocketPtr& got) {
  try {
    got = co_await l->accept();
  } catch (const sim::ChannelClosed&) {
    closed = true;
  }
}

// unlisten() then listen() again on the same address, with no scheduler
// step between them: the old acceptor (parked on the accept queue, or
// spawned but not yet run) owns the old Listener, so it wakes on a live,
// closed queue and unwinds, while a new connection reaches only the new
// listener's acceptor.
TEST(SocketTable, RelistenWithNoStepBetweenLeavesOldAcceptorClosed) {
  for (const bool parked : {true, false}) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    bool old_closed = false, new_closed = false;
    SocketPtr old_got, new_got;
    s.spawn(accept_once(tb.sockets().listen({1, 9000}), old_closed, old_got));
    if (parked) s.run();
    tb.sockets().unlisten({1, 9000});
    s.spawn(accept_once(tb.sockets().listen({1, 9000}), new_closed, new_got));
    s.spawn(frag_client(tb, {1, 9000}));
    s.run();
    EXPECT_TRUE(old_closed) << parked;
    EXPECT_EQ(old_got, nullptr) << parked;
    EXPECT_FALSE(new_closed) << parked;
    EXPECT_NE(new_got, nullptr) << parked;
  }
}

// What a peer saw of one message: its bytes, the time each 16 KiB piece
// was read, and when the sender's write returned.
struct WriteTrace {
  Bytes got;
  std::vector<sim::Time> piece_times;
  sim::Time write_done = 0;
};

Task piece_reader(Testbed& tb, Listener& l, std::size_t n, WriteTrace& out) {
  SocketPtr sock = co_await l.accept();
  out.got.resize(n);
  static constexpr std::size_t kPiece = 16 * 1024;
  for (std::size_t off = 0; off < n; off += kPiece) {
    co_await sock->read_full(MutByteSpan(out.got).subspan(off, std::min(kPiece, n - off)));
    out.piece_times.push_back(tb.sched().now());
  }
}

Task one_write(Testbed& tb, Address addr, std::size_t n, bool owning, WriteTrace& out) {
  SocketPtr sock = co_await tb.sockets().connect(tb.host(0), addr, Transport::kIPoIB);
  Bytes msg(n);
  for (std::size_t i = 0; i < n; ++i) msg[i] = static_cast<Byte>(i % 251);
  if (owning) {
    co_await sock->write(std::move(msg));
  } else {
    co_await sock->write(ByteSpan(msg));
  }
  out.write_done = tb.sched().now();
}

// The owning write moves a message of up to one segment onto the wire and
// segments a larger one like the span write: the peer reads the same bytes
// at the same virtual times either way.
TEST(Socket, OwningWriteMatchesSpanWrite) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{16 * 1024}, std::size_t{16 * 1024 + 1}}) {
    WriteTrace runs[2];
    for (const bool owning : {false, true}) {
      Scheduler s;
      Testbed tb(s, Testbed::cluster_b());
      Listener& l = *tb.sockets().listen({1, 9000});
      WriteTrace& t = runs[owning ? 1 : 0];
      s.spawn(piece_reader(tb, l, n, t));
      s.spawn(one_write(tb, {1, 9000}, n, owning, t));
      s.run();
    }
    Bytes expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = static_cast<Byte>(i % 251);
    EXPECT_EQ(runs[0].got, expect) << n;
    EXPECT_EQ(runs[1].got, expect) << n;
    EXPECT_EQ(runs[1].piece_times, runs[0].piece_times) << n;
    EXPECT_EQ(runs[1].write_done, runs[0].write_done) << n;
    EXPECT_GT(runs[0].write_done, 0u) << n;
  }
}

TEST(Testbed, ClusterShapesMatchPaper) {
  Scheduler s;
  Testbed a(s, Testbed::cluster_a());
  EXPECT_EQ(a.size(), 65);
  Testbed b(s, Testbed::cluster_b());
  EXPECT_EQ(b.size(), 9);
  EXPECT_TRUE(b.config().has_ten_gige);
}

TEST(Bytes, LargeTransferTimesAreBandwidthBound) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  // 64 MB over IPoIB at 1.6 GB/s ~ 40 ms.
  sim::Time done = 0;
  tb.fabric().deliver(0, 1, Transport::kIPoIB, 64u << 20, [&] { done = s.now(); });
  s.run();
  EXPECT_NEAR(sim::to_ms(done), 64.0 / 1.6 / 1000.0 * 1000.0, 2.0);
}

}  // namespace
}  // namespace rpcoib::net
