// Layout goldens for the little-endian transport frames (net/frame.hpp).
//
// Every frame kind the field codec serves is encoded from one populated
// instance and compared with recorded bytes; the recorded bytes were the
// wire before the codec existed, so a layout change fails here until its
// golden is re-recorded on purpose. Each frame must also decode back to the
// same bytes, refuse every strict prefix without throwing, and refuse an
// over-large count before allocating for it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hdfs/data_transfer.hpp"
#include "mapred/tasktracker.hpp"
#include "net/frame.hpp"
#include "rpc/buffers.hpp"
#include "rpc/session.hpp"
#include "rpcoib/onesided.hpp"
#include "rpcoib/wire.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib {
namespace {

using oib::FrameType;

std::string to_hex(net::ByteSpan b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (net::Byte x : b) {
    s += kDigits[x >> 4];
    s += kDigits[x & 0xF];
  }
  return s;
}

net::Bytes from_hex(const std::string& h) {
  net::Bytes b;
  for (std::size_t i = 0; i + 1 < h.size(); i += 2) {
    b.push_back(static_cast<net::Byte>(std::stoi(h.substr(i, 2), nullptr, 16)));
  }
  return b;
}

/// `m` encodes to `golden`, and the golden decodes to a frame that encodes
/// to it again. Prefixes shorter than `must_have` bytes are refused; longer
/// ones (a frame ending in a clamped or rest-of-frame field) decode.
template <typename M>
void expect_layout(const M& m, const std::string& golden, std::size_t must_have = SIZE_MAX) {
  const net::Bytes wire = net::encode_frame(m);
  EXPECT_EQ(to_hex(wire), golden);
  EXPECT_EQ(net::frame_size(m), wire.size());
  const net::Bytes recorded = from_hex(golden);
  M back;
  ASSERT_TRUE(net::decode_frame(recorded, back));
  EXPECT_EQ(to_hex(net::encode_frame(back)), golden);
  for (std::size_t n = 0; n < recorded.size(); ++n) {
    M part;
    bool ok = false;
    EXPECT_NO_THROW(ok = net::decode_frame(net::ByteSpan(recorded).first(n), part));
    EXPECT_EQ(ok, n >= must_have) << "prefix of " << n << " bytes";
  }
}

// ---- Stream plane ------------------------------------------------------------

const net::Bytes kAppMeta{'a', 'b'};

TEST(FrameLayout, StreamRouteForAnApplicationOpen) {
  // The app meta runs to the end of the route: any prefix with the route
  // byte reads as an application open with a shorter meta.
  expect_layout(oib::StreamRoute{oib::StreamRoute::kApp, 0, kAppMeta}, "006162", 1);
}

TEST(FrameLayout, StreamRouteForAFetchResponse) {
  expect_layout(oib::StreamRoute{oib::StreamRoute::kFetch, 0x0102030405060708ull, {}},
                "010807060504030201");
}

TEST(FrameLayout, StreamOpen) {
  const net::Bytes routed = net::encode_frame(oib::StreamRoute{oib::StreamRoute::kApp, 0, kAppMeta});
  expect_layout(oib::StreamOpenFrame{0x1122334455667788ull, 0x100000200ull, 262144, 4, routed},
                "0788776655443322110002000001000000000004000400000003000000006162");
}

TEST(FrameLayout, StreamGrant) {
  expect_layout(oib::StreamGrantFrame{7, true, {{0xAABBCCDDu, 0x1000, 65536}, {2, 0, 3}}},
                "0807000000000000000102ddccbbaa0010000000000000000001000200000000000000000000"
                "0003000000");
  expect_layout(oib::StreamGrantFrame{7, false, {}}, "0807000000000000000000");
}

TEST(FrameLayout, StreamCreditAndDone) {
  expect_layout(oib::StreamCreditFrame{7, 0x01020304}, "09070000000000000004030201");
  expect_layout(oib::StreamDoneFrame{7, 2}, "0a070000000000000002");
}

TEST(FrameLayout, StreamAbortClampsAnOverLongReason) {
  const std::string reason = "deadline";
  // Past the fixed 13 bytes, a cut reason reads as the bytes present.
  expect_layout(oib::StreamAbortFrame{7, net::byte_view(reason)},
                "0b070000000000000008000000646561646c696e65", 13);
  const net::Bytes over = from_hex("0b0700000000000000ffffffff6465");
  oib::StreamAbortFrame cut;
  ASSERT_TRUE(net::decode_frame(over, cut));
  EXPECT_EQ(std::string(cut.reason.begin(), cut.reason.end()), "de");
}

TEST(FrameLayout, StreamFetchCarriesTheShuffleMeta) {
  const net::Bytes meta = net::encode_frame(mapred::ShuffleMeta{0x12345678});
  expect_layout(mapred::ShuffleMeta{0x12345678}, "7856341200000000");
  expect_layout(oib::StreamFetchFrame{0x99, meta}, "0c9900000000000000080000007856341200000000");
}

TEST(FrameLayout, OverLongBlobsAreRefused) {
  oib::StreamOpenFrame open;
  EXPECT_FALSE(net::decode_frame(
      from_hex("07" "0100000000000000" "0000000000000000" "00000000" "00000000" "ffffffff" "00"),
      open));
  oib::StreamFetchFrame fetch;
  EXPECT_FALSE(net::decode_frame(from_hex("0c0100000000000000090000007856341200000000"), fetch));
}

TEST(FrameLayout, GrantSlotCountPastTheFrameIsRefusedBeforeAllocating) {
  oib::StreamGrantFrame g;
  EXPECT_FALSE(net::decode_frame(from_hex("08070000000000000001ff0000000000"), g));
  EXPECT_EQ(g.slots.capacity(), 0u);
}

// ---- Rendezvous control frames and kBatch -----------------------------------

TEST(FrameLayout, ControlFrames) {
  const oib::Control call{FrameType::kCtrlCall, 0x01020304u, 0x1122334455667788ull, 0x0A0B0C0Du};
  expect_layout(call, "020403020188776655443322110d0c0b0a");
  EXPECT_EQ(to_hex(oib::ControlFrame(call).span()), "020403020188776655443322110d0c0b0a");
  const oib::Control nack{FrameType::kNack, 0xDEADBEEFu};
  expect_layout(nack, "05efbeadde");
  EXPECT_EQ(to_hex(oib::ControlFrame(nack).span()), "05efbeadde");
  // Trailing bytes are ignored.
  oib::Control got;
  EXPECT_TRUE(oib::parse_control(from_hex("05efbeadde00"), got));
  EXPECT_EQ(got.rkey, 0xDEADBEEFu);
}

TEST(FrameLayout, Batch) {
  const std::vector<net::Bytes> items{{0x00, 0x01, 0x02}, {}, {0xFF}};
  net::Bytes frame(oib::batch_frame_size(items));
  oib::encode_batch(items, frame.data());
  EXPECT_EQ(to_hex(frame), "0603000000030000000000000001000000000102ff");
  std::vector<net::ByteSpan> subs;
  ASSERT_EQ(oib::split_batch(frame, subs), oib::BatchSplit::kOk);
  std::vector<net::Bytes> back;
  for (net::ByteSpan s : subs) back.emplace_back(s.begin(), s.end());
  net::Bytes again(oib::batch_frame_size(back));
  oib::encode_batch(back, again.data());
  EXPECT_EQ(again, frame);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    oib::BatchSplit v = oib::BatchSplit::kOk;
    EXPECT_NO_THROW(v = oib::split_batch(net::ByteSpan(frame).first(n), subs));
    EXPECT_NE(v, oib::BatchSplit::kOk) << "prefix of " << n << " bytes";
  }
}

TEST(FrameLayout, BatchCountPastTheFrameIsRefusedBeforeAllocating) {
  std::vector<net::ByteSpan> subs;
  EXPECT_EQ(oib::split_batch(from_hex("06ffffffff00000000"), subs), oib::BatchSplit::kBadCount);
  EXPECT_EQ(subs.capacity(), 0u);
}

// ---- HDFS block meta -----------------------------------------------------------

TEST(FrameLayout, StreamBlockMeta) {
  hdfs::StreamBlockMeta m;
  m.block.id = 0x1234;
  m.block.num_bytes = 67108864;
  m.downstream = {3, 17};
  expect_layout(m, "341200000000000000000004000000000203000000000000001100000000000000");
}

TEST(FrameLayout, BlockMetaCountPastTheFrameIsRefusedBeforeAllocating) {
  hdfs::StreamBlockMeta m;
  EXPECT_FALSE(net::decode_frame(
      from_hex("3412000000000000" "0000000400000000" "c8" "0300000000000000"), m));
  EXPECT_EQ(m.downstream.capacity(), 0u);
}

// ---- Verbs bootstrap blob and UD GRH -------------------------------------------

TEST(FrameLayout, EndpointInfo) {
  using Info = verbs::ConnectionManager::BootstrapInfo;
  const std::string zeros(2 * 48, '0');
  expect_layout(Info{0x0000561234567890ull, 4096, 0xABCDEF},
                "9078563412560000" "0010000000000000" "efcdab0000000000" + zeros);
  expect_layout(Info{0, 8192, 0}, "0000000000000000" "0020000000000000" "0000000000000000" + zeros);
  EXPECT_EQ(net::frame_size(Info{}), Info::kBytes);
}

TEST(FrameLayout, UdGrh) {
  expect_layout(verbs::UdEndpoint::Grh{5, 0x1001},
                "0500000001100000" + std::string(2 * 32, '0'));
  EXPECT_EQ(net::frame_size(verbs::UdEndpoint::Grh{}), verbs::UdEndpoint::kGrhBytes);
}

// ---- One-sided slot ------------------------------------------------------------

TEST(FrameLayout, OneSidedSlot) {
  using Region = oib::OneSidedRegion;
  EXPECT_EQ(net::frame_size(Region::SlotHeader{}), Region::kHeaderBytes);
  EXPECT_EQ(net::frame_size(Region::SlotTrailer{}), Region::kTrailerBytes);
  expect_layout(Region::SlotHeader{4, 3, 0xFEEDFACECAFEBEEFull, 5},
                "04000000000000000300000000000000efbefecacefaedfe0500000000000000");
  expect_layout(Region::SlotTrailer{4}, "0400000000000000");
}

// ---- Socket preamble and the kUdCall header --------------------------------------

TEST(FrameLayout, SocketPreamble) {
  expect_layout(rpc::Preamble{rpc::Preamble::kSessionVersion, 0x0102030405060708ull},
                "68727063050807060504030201");
  expect_layout(rpc::Preamble{}, "6872706304");
}

TEST(FrameLayout, UdCallHeaderIsBigEndian) {
  const cluster::CostModel cm{};
  net::Bytes buf(oib::kUdHeaderBytes);
  rpc::SpanOutput out(cm, buf);
  oib::write_ud_header(out, 0x0102030405060708ull);
  EXPECT_EQ(to_hex(buf), "0d0102030405060708");
  EXPECT_EQ(oib::read_be64(buf.data() + 1), 0x0102030405060708ull);
  EXPECT_THROW(oib::write_ud_header(out, 1), rpc::SerializationError);
}

}  // namespace
}  // namespace rpcoib
