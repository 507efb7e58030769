// The wire codecs both transports share, and the totality of their
// decoders: the call header (rpc/protocol.hpp) over DataInputBuffer and
// RDMAInputStream, RPCoIB's rendezvous control frames (rpcoib/wire.hpp),
// the socket batch split, a socket server that must keep reading after
// a malformed frame instead of ending its reader, and the typed handler
// contract (decode the param, run the body, write the returned result)
// on the socket and RPCoIB transports.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_streams.hpp"
#include "rpcoib/wire.hpp"

namespace rpcoib {
namespace {

using rpc::BatchSplit;
using rpc::CallHeader;

const cluster::CostModel& cost() {
  static const cluster::CostModel cm;
  return cm;
}

const rpc::MethodKey kKey{"test.CodecProtocol", "lookup"};

/// One header per flag combination: bit 0 trace, bit 1 deadline, bit 2 retry.
net::Bytes encode_header(int flags, std::uint64_t id) {
  rpc::DataOutputBuffer out(cost());
  const trace::TraceContext ctx =
      (flags & 1) != 0 ? trace::TraceContext{0x1111, 0x2222} : trace::TraceContext{};
  const sim::Time deadline = (flags & 2) != 0 ? sim::millis(7) : 0;
  rpc::write_call_header(out, id, (flags & 4) != 0, deadline, ctx, kKey);
  out.write_u32(0xC0FFEE);  // the param bytes that follow the header
  return net::Bytes(out.data().begin(), out.data().end());
}

/// The field costs a throwing read of the same header accrues.
sim::Dur reference_cost(const net::Bytes& wire, int flags) {
  rpc::DataInputBuffer in(cost(), wire);
  (void)in.read_u64();
  if ((flags & 1) != 0) {
    (void)in.read_u64();
    (void)in.read_u64();
  }
  if ((flags & 2) != 0) (void)in.read_u64();
  (void)in.read_text();
  (void)in.read_text();
  return in.take_accrued();
}

template <typename Input>
void expect_round_trip(int flags) {
  const std::uint64_t id = 0x0123456789AULL;
  const net::Bytes wire = encode_header(flags, id);
  Input in(cost(), wire);
  CallHeader h;
  ASSERT_TRUE(rpc::read_call_header(in, h)) << flags;
  EXPECT_EQ(h.id, id);
  EXPECT_EQ(h.retried, (flags & 4) != 0);
  EXPECT_EQ(h.deadline, (flags & 2) != 0 ? sim::millis(7) : 0);
  EXPECT_EQ(h.ctx.valid(), (flags & 1) != 0);
  if ((flags & 1) != 0) {
    EXPECT_EQ(h.ctx.trace_id, 0x1111u);
    EXPECT_EQ(h.ctx.span_id, 0x2222u);
  }
  EXPECT_EQ(h.key, kKey);
  EXPECT_EQ(in.read_u32(), 0xC0FFEEu);  // left at the param bytes
  EXPECT_EQ(in.remaining(), 0u);
  // The total reader charges exactly what the throwing reads did.
  Input again(cost(), wire);
  ASSERT_TRUE(rpc::read_call_header(again, h));
  EXPECT_EQ(again.take_accrued(), reference_cost(wire, flags));
}

TEST(CallHeader, RoundTripsEveryFlagCombinationOnDataInputBuffer) {
  for (int flags = 0; flags < 8; ++flags) expect_round_trip<rpc::DataInputBuffer>(flags);
}

TEST(CallHeader, RoundTripsEveryFlagCombinationOnRdmaInputStream) {
  for (int flags = 0; flags < 8; ++flags) expect_round_trip<oib::RDMAInputStream>(flags);
}

TEST(CallHeader, EveryTruncatedPrefixIsMalformedWithoutThrowing) {
  for (int flags = 0; flags < 8; ++flags) {
    net::Bytes wire = encode_header(flags, 42);
    wire.resize(wire.size() - 4);  // the header alone
    for (std::size_t n = 0; n < wire.size(); ++n) {
      const net::ByteSpan prefix(wire.data(), n);
      CallHeader h;
      rpc::DataInputBuffer a(cost(), prefix);
      oib::RDMAInputStream b(cost(), prefix);
      bool ok_a = true, ok_b = true;
      EXPECT_NO_THROW(ok_a = rpc::read_call_header(a, h)) << flags << " " << n;
      EXPECT_NO_THROW(ok_b = rpc::read_call_header(b, h)) << flags << " " << n;
      EXPECT_FALSE(ok_a) << flags << " " << n;
      EXPECT_FALSE(ok_b) << flags << " " << n;
    }
  }
}

TEST(CallHeader, NegativeTextLengthIsMalformed) {
  net::Bytes wire = encode_header(0, 42);
  wire[8] = 0x87;  // vint marker for a negative length
  rpc::DataInputBuffer in(cost(), wire);
  CallHeader h;
  EXPECT_FALSE(rpc::read_call_header(in, h));
}

// ---- RPCoIB control frames ---------------------------------------------------

TEST(ControlFrame, RoundTripsEveryControlType) {
  using oib::FrameType;
  for (const FrameType t :
       {FrameType::kCtrlCall, FrameType::kCtrlResp, FrameType::kAck, FrameType::kNack}) {
    const bool rendezvous = t == FrameType::kCtrlCall || t == FrameType::kCtrlResp;
    const oib::Control sent{t, 0xABCD1234u, rendezvous ? 0x1122334455ULL : 0,
                            rendezvous ? 4096u : 0u};
    const oib::ControlFrame frame(sent);
    EXPECT_EQ(frame.len, rendezvous ? 17u : 5u);
    oib::Control got;
    ASSERT_TRUE(oib::parse_control(frame.span(), got));
    EXPECT_EQ(got.type, t);
    EXPECT_EQ(got.rkey, sent.rkey);
    EXPECT_EQ(got.off, sent.off);
    EXPECT_EQ(got.len, sent.len);
    for (std::size_t n = 0; n < frame.len; ++n) {
      EXPECT_FALSE(oib::parse_control(net::ByteSpan(frame.bytes, n), got)) << n;
    }
  }
}

TEST(ControlFrame, NonControlTypesAreRejected) {
  net::Bytes frame(17, 0);
  oib::Control got;
  for (const oib::FrameType t : {oib::FrameType::kCall, oib::FrameType::kResp,
                                 oib::FrameType::kBatch, oib::FrameType::kUdCall}) {
    frame[0] = static_cast<net::Byte>(t);
    EXPECT_FALSE(oib::parse_control(frame, got));
  }
}

// ---- Socket batch split --------------------------------------------------------

/// A socket batch payload: [u64 kWireBatchFlag|count][u32 len_i][payload_i].
net::Bytes wire_batch(std::uint64_t count, const std::vector<std::uint32_t>& lens,
                      std::size_t payload_bytes) {
  rpc::DataOutputBuffer out(cost());
  out.write_u64(trace::kWireBatchFlag | count);
  for (const std::uint32_t len : lens) out.write_u32(len);
  for (std::size_t i = 0; i < payload_bytes; ++i) out.write_u8(static_cast<std::uint8_t>(i));
  return net::Bytes(out.data().begin(), out.data().end());
}

BatchSplit split(const net::Bytes& frame, std::vector<net::ByteSpan>& subs) {
  rpc::DataInputBuffer in(cost(), frame);
  return rpc::split_wire_batch(in, frame, subs);
}

TEST(WireBatchSplit, SplitsAWellFormedFrameIntoItsPayloads) {
  const net::Bytes frame = wire_batch(3, {2, 0, 3}, 5);
  EXPECT_TRUE(rpc::is_wire_batch(frame));
  std::vector<net::ByteSpan> subs;
  ASSERT_EQ(split(frame, subs), BatchSplit::kOk);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].size(), 2u);
  EXPECT_EQ(subs[1].size(), 0u);
  EXPECT_EQ(subs[2].size(), 3u);
  EXPECT_EQ(subs[2][0], 2);
  EXPECT_EQ(subs[2].data() + 3, frame.data() + frame.size());
}

TEST(WireBatchSplit, TruncatedLeadingWordIsRejected) {
  const net::Bytes frame = wire_batch(1, {0}, 0);
  std::vector<net::ByteSpan> subs;
  const net::Bytes cut(frame.begin(), frame.begin() + 5);
  EXPECT_FALSE(rpc::is_wire_batch(cut));
  EXPECT_EQ(split(cut, subs), BatchSplit::kTruncated);
}

TEST(WireBatchSplit, ZeroCountIsRejected) {
  std::vector<net::ByteSpan> subs;
  EXPECT_EQ(split(wire_batch(0, {}, 0), subs), BatchSplit::kEmpty);
}

TEST(WireBatchSplit, CountPastTheFrameIsRejected) {
  std::vector<net::ByteSpan> subs;
  // Five lengths claimed, room for two.
  EXPECT_EQ(split(wire_batch(5, {0, 0}, 0), subs), BatchSplit::kBadCount);
  // The largest count the mask admits, no table at all.
  EXPECT_EQ(split(wire_batch(0xFFFFFFFFu, {}, 0), subs), BatchSplit::kBadCount);
}

TEST(WireBatchSplit, SubLengthPastTheEndIsRejected) {
  std::vector<net::ByteSpan> subs;
  EXPECT_EQ(split(wire_batch(2, {2, 9}, 4), subs), BatchSplit::kBadLength);
  EXPECT_EQ(split(wire_batch(1, {0xFFFFFFFFu}, 1), subs), BatchSplit::kBadLength);
}

TEST(WireBatchSplit, TrailingBytesAreRejected) {
  std::vector<net::ByteSpan> subs;
  EXPECT_EQ(split(wire_batch(2, {1, 1}, 3), subs), BatchSplit::kBadLength);
}

/// Everything a BufferedOutputStream (the socket transports' stream) wrote.
template <typename Write>
net::Bytes stream_bytes(Write write) {
  rpc::BufferedOutputStream out(cost());
  write(out);
  out.flush();
  return out.take_pending();
}

TEST(WireBatchSplit, EncodeThenSplitRoundTripsByteExact) {
  const std::vector<net::Bytes> items = {{1, 2}, {}, {3, 4, 5}, net::Bytes(300, 7)};
  const std::vector<net::ByteSpan> payloads(items.begin(), items.end());
  const net::Bytes wire =
      stream_bytes([&](rpc::DataOutput& out) { rpc::encode_wire_batch(out, payloads); });
  rpc::DataInputBuffer len_in(cost(), wire);
  ASSERT_EQ(len_in.read_u32(), wire.size() - 4);
  const net::Bytes frame(wire.begin() + 4, wire.end());
  // The layout, spelled out: flagged count, length table, payloads.
  const net::Bytes want = stream_bytes([&](rpc::DataOutput& out) {
    out.write_u64(trace::kWireBatchFlag | items.size());
    for (const net::Bytes& m : items) out.write_u32(static_cast<std::uint32_t>(m.size()));
    for (const net::Bytes& m : items) out.write_payload(m);
  });
  EXPECT_EQ(frame, want);
  std::vector<net::ByteSpan> subs;
  ASSERT_EQ(split(frame, subs), BatchSplit::kOk);
  ASSERT_EQ(subs.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(net::Bytes(subs[i].begin(), subs[i].end()), items[i]) << i;
  }
}

TEST(WireBatchSplit, EmptyItemsRoundTripThroughDataOutputBuffer) {
  // Empty items hand write_raw an empty span whose data() is null.
  const std::vector<net::Bytes> items = {{}, {1, 2}, {}};
  const std::vector<net::ByteSpan> payloads(items.begin(), items.end());
  rpc::DataOutputBuffer out(cost());
  rpc::encode_wire_batch(out, payloads);
  const net::Bytes wire(out.data().begin(), out.data().end());
  EXPECT_EQ(wire, stream_bytes([&](rpc::DataOutput& o) { rpc::encode_wire_batch(o, payloads); }));
  const net::Bytes frame(wire.begin() + 4, wire.end());
  std::vector<net::ByteSpan> subs;
  ASSERT_EQ(split(frame, subs), BatchSplit::kOk);
  ASSERT_EQ(subs.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(net::Bytes(subs[i].begin(), subs[i].end()), items[i]) << i;
  }
}

TEST(DataOutputBuffer, EmptyWriteKeepsItsCountersAndCopyCharge) {
  rpc::DataOutputBuffer out(cost());
  out.write_u32(7);
  const rpc::BufferStats before = out.stats();
  const sim::Dur accrued = out.accrued();
  out.write_raw(net::ByteSpan{});
  EXPECT_EQ(out.length(), 4u);
  EXPECT_EQ(out.stats().bytes_copied, before.bytes_copied);
  EXPECT_EQ(out.stats().allocations, before.allocations);
  EXPECT_EQ(out.stats().mem_adjustments, before.mem_adjustments);
  EXPECT_EQ(out.accrued(), accrued + cost().heap_copy(0));
}

// ---- A socket server survives malformed frames ---------------------------------

constexpr net::Address kServerAddr{1, 9100};

/// [u32 len][payload], as the socket client frames a call.
net::Bytes framed(const net::Bytes& payload) {
  rpc::DataOutputBuffer out(cost());
  out.write_u32(static_cast<std::uint32_t>(payload.size()));
  out.write_payload(payload);
  return net::Bytes(out.data().begin(), out.data().end());
}

sim::Task raw_client(net::Testbed& tb, std::uint64_t& answered_id, std::int32_t& value) {
  net::SocketPtr sock =
      co_await tb.sockets().connect(tb.host(0), kServerAddr, net::Transport::kIPoIB);
  const net::Byte magic[] = {'h', 'r', 'p', 'c', 4};
  co_await sock->write(net::ByteSpan(magic, sizeof(magic)));

  // A call whose header stops inside its method name...
  net::Bytes truncated = encode_header(0, 7);
  truncated.resize(truncated.size() - 7);
  const net::Bytes bad_call = framed(truncated);
  co_await sock->write(bad_call);
  // ...a batch whose length table lies about its payloads...
  const net::Bytes bad_batch = framed(wire_batch(2, {4, 400}, 4));
  co_await sock->write(bad_batch);
  // ...and then a well-formed call, which must still be answered.
  rpc::DataOutputBuffer good(cost());
  rpc::write_call_header(good, 8, false, 0, {}, rpc::MethodKey{"test.Codec", "twice"});
  good.write_i32(21);
  const net::Bytes good_call = framed(net::Bytes(good.data().begin(), good.data().end()));
  co_await sock->write(good_call);

  net::Bytes len_buf(4);
  co_await sock->read_full(len_buf);
  rpc::DataInputBuffer len_in(cost(), len_buf);
  net::Bytes resp(len_in.read_u32());
  co_await sock->read_full(resp);
  rpc::DataInputBuffer in(cost(), resp);
  answered_id = in.read_u64();
  if (in.read_u8() == 0) value = in.read_i32();
  sock->close();
}

TEST(SocketServer, MalformedFramesAreDroppedAndTheReaderKeepsReading) {
  sim::Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  rpc::SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 2);
  server.dispatcher().register_method(
      "test.Codec", "twice", [](rpc::DataInput& in, rpc::DataOutput& out) -> sim::Co<void> {
        out.write_i32(2 * in.read_i32());
        co_return;
      });
  server.start();
  std::uint64_t answered_id = 0;
  std::int32_t value = 0;
  s.spawn(raw_client(tb, answered_id, value));
  s.run_until(sim::seconds(5));
  EXPECT_EQ(answered_id, 8u);
  EXPECT_EQ(value, 42);
  EXPECT_EQ(server.stats().calls_handled, 1u);
  server.stop();
  s.run_until(sim::seconds(6));
}

// ---- The typed handler contract ------------------------------------------------

const rpc::MethodKey kDouble{"test.Typed", "double"};
const rpc::MethodKey kRefuse{"test.Typed", "refuse"};
const rpc::MethodKey kLater{"test.Typed", "later"};
const rpc::MethodKey kLateRefuse{"test.Typed", "lateRefuse"};
constexpr net::Address kTypedAddr{1, 9200};
constexpr sim::Dur kLaterDelay = sim::millis(5);

/// How often each body ran, so a test can tell a body that never ran.
struct TypedRuns {
  int doubled = 0;
  int refused = 0;
};

void register_typed(rpc::Dispatcher& d, sim::Scheduler& s, TypedRuns& runs) {
  d.register_method<rpc::LongWritable>(kDouble.protocol, kDouble.method,
                                       [&runs](const rpc::LongWritable& p) {
                                         ++runs.doubled;
                                         return rpc::LongWritable(2 * p.value);
                                       });
  d.register_method<rpc::IntWritable>(kRefuse.protocol, kRefuse.method,
                                      [&runs](const rpc::IntWritable&) -> rpc::IntWritable {
                                        ++runs.refused;
                                        throw std::runtime_error("typed body refused");
                                      });
  d.register_method<rpc::IntWritable>(
      kLater.protocol, kLater.method,
      [&s](const rpc::IntWritable& p) -> sim::Co<rpc::IntWritable> {
        co_await sim::delay(s, kLaterDelay);
        co_return rpc::IntWritable(p.value + 1);
      });
  d.register_method<rpc::IntWritable>(
      kLateRefuse.protocol, kLateRefuse.method,
      [&s](const rpc::IntWritable&) -> sim::Co<rpc::IntWritable> {
        co_await sim::delay(s, kLaterDelay);
        throw std::runtime_error("typed body refused late");
      });
}

struct Invoked {
  rpc::RpcStatus status = rpc::RpcStatus::kSuccess;
  std::string error;
  std::size_t out_bytes = 0;
  bool done = false;
};

sim::Task invoke(const rpc::Dispatcher& d, const rpc::MethodKey& key, net::Bytes param,
                 Invoked& r) {
  rpc::DataInputBuffer in(cost(), param);
  rpc::DataOutputBuffer out(cost());
  rpc::Invocation<> inv(d, key, in, out);
  r.status = co_await inv;
  r.error = inv.error();
  r.out_bytes = out.length();
  r.done = true;
}

net::Bytes int_bytes(std::int32_t v) {
  rpc::DataOutputBuffer out(cost());
  rpc::IntWritable(v).write(out);
  return net::Bytes(out.data().begin(), out.data().end());
}

// A failed call writes no result bytes, whether its body threw before or
// after suspending or its param never decoded (four bytes where the
// LongWritable needs eight): the dispatcher, not a transport, observed.
TEST(TypedHandler, FailedCallWritesNoResultBytes) {
  for (const rpc::MethodKey& key : {kRefuse, kLateRefuse, kDouble}) {
    SCOPED_TRACE(key.to_string());
    sim::Scheduler s;
    rpc::Dispatcher d;
    TypedRuns runs;
    register_typed(d, s, runs);
    Invoked r;
    s.spawn(invoke(d, key, int_bytes(7), r));
    s.run();
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.status, rpc::RpcStatus::kError);
    EXPECT_EQ(r.out_bytes, 0u);
    EXPECT_EQ(runs.doubled, 0);
    if (key != kDouble) {
      EXPECT_NE(r.error.find("typed body refused"), std::string::npos) << r.error;
    }
  }
}

class TypedOverTransport : public ::testing::TestWithParam<oib::RpcMode> {};

struct TypedCall {
  bool remote_error = false;
  std::string error;
  std::int64_t value = -1;
  sim::Dur elapsed = 0;
};

template <typename Result>
sim::Task call_typed(sim::Scheduler& s, rpc::RpcClient& client, rpc::MethodKey key,
                     const rpc::Writable& param, TypedCall& out) {
  const sim::Time t0 = s.now();
  Result resp;
  try {
    co_await client.call(kTypedAddr, key, param, &resp);
    out.value = resp.value;
  } catch (const rpc::RemoteException& e) {
    out.remote_error = true;
    out.error = e.what();
  }
  out.elapsed = s.now() - t0;
}

struct TypedRig {
  sim::Scheduler s;
  net::Testbed tb{s, net::Testbed::cluster_b()};
  oib::RpcEngine engine;
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<rpc::RpcClient> client;
  TypedRuns runs;

  explicit TypedRig(oib::RpcMode mode) : engine(tb, oib::EngineConfig{.mode = mode}) {
    server = engine.make_server(tb.host(1), kTypedAddr);
    register_typed(server->dispatcher(), s, runs);
    server->start();
    client = engine.make_client(tb.host(0));
  }
  ~TypedRig() {
    server->stop();
    s.drain_tasks();
  }

  template <typename Result>
  TypedCall call(const rpc::MethodKey& key, const rpc::Writable& param) {
    TypedCall out;
    s.spawn(call_typed<Result>(s, *client, key, param, out));
    s.run_until(s.now() + sim::seconds(5));
    return out;
  }
};

TEST_P(TypedOverTransport, ResultReachesTheCaller) {
  TypedRig rig(GetParam());
  const rpc::LongWritable param(21);
  const TypedCall c = rig.call<rpc::LongWritable>(kDouble, param);
  EXPECT_FALSE(c.remote_error) << c.error;
  EXPECT_EQ(c.value, 42);
  EXPECT_EQ(rig.runs.doubled, 1);
}

TEST_P(TypedOverTransport, UndecodableParamAnswersRemoteExceptionWithoutRunningTheBody) {
  TypedRig rig(GetParam());
  const rpc::IntWritable param(21);  // the method decodes a LongWritable
  const TypedCall c = rig.call<rpc::LongWritable>(kDouble, param);
  EXPECT_TRUE(c.remote_error);
  EXPECT_EQ(c.value, -1);
  EXPECT_EQ(rig.runs.doubled, 0);
}

TEST_P(TypedOverTransport, ThrowingBodyReachesTheCallerAsItsMessage) {
  TypedRig rig(GetParam());
  const rpc::IntWritable param(7);
  const TypedCall c = rig.call<rpc::IntWritable>(kRefuse, param);
  EXPECT_TRUE(c.remote_error);
  EXPECT_NE(c.error.find("typed body refused"), std::string::npos) << c.error;
  EXPECT_EQ(rig.runs.refused, 1);
}

TEST_P(TypedOverTransport, AsyncResultArrivesAfterItsSuspension) {
  TypedRig rig(GetParam());
  const rpc::IntWritable param(41);
  const TypedCall c = rig.call<rpc::IntWritable>(kLater, param);
  EXPECT_FALSE(c.remote_error) << c.error;
  EXPECT_EQ(c.value, 42);
  EXPECT_GE(c.elapsed, kLaterDelay);
}

INSTANTIATE_TEST_SUITE_P(Transports, TypedOverTransport,
                         ::testing::Values(oib::RpcMode::kSocketIPoIB, oib::RpcMode::kRpcoIB),
                         [](const ::testing::TestParamInfo<oib::RpcMode>& info) {
                           return info.param == oib::RpcMode::kRpcoIB ? "RPCoIB" : "IPoIB";
                         });

}  // namespace
}  // namespace rpcoib
