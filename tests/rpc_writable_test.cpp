// Serialization framework tests: primitive round-trips, Hadoop VInt wire
// compatibility, Algorithm-1 growth behaviour, buffered stream costs.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "cluster/cost_model.hpp"
#include "rpc/buffers.hpp"
#include "rpc/writable.hpp"

namespace rpcoib::rpc {
namespace {

const cluster::CostModel kCm{};

TEST(VInt, SingleByteRange) {
  // Hadoop encodes [-112, 127] as one byte.
  for (std::int64_t v : {-112LL, -1LL, 0LL, 1LL, 127LL}) {
    DataOutputBuffer out(kCm);
    out.write_vi64(v);
    EXPECT_EQ(out.length(), 1u) << v;
    DataInputBuffer in(kCm, out.data());
    EXPECT_EQ(in.read_vi64(), v);
  }
}

TEST(VInt, KnownWireBytes) {
  // writeVLong(128) => first byte -113 (one magnitude byte), then 0x80.
  DataOutputBuffer out(kCm);
  out.write_vi64(128);
  ASSERT_EQ(out.length(), 2u);
  EXPECT_EQ(static_cast<std::int8_t>(out.data()[0]), -113);
  EXPECT_EQ(out.data()[1], 0x80);
  // writeVLong(-129) => -(129) - ... encoded via ~v = 128: first byte -121, then 0x80.
  DataOutputBuffer out2(kCm);
  out2.write_vi64(-129);
  ASSERT_EQ(out2.length(), 2u);
  EXPECT_EQ(static_cast<std::int8_t>(out2.data()[0]), -121);
  EXPECT_EQ(out2.data()[1], 0x80);
}

class VIntRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(VIntRoundTrip, RoundTrips) {
  DataOutputBuffer out(kCm);
  out.write_vi64(GetParam());
  DataInputBuffer in(kCm, out.data());
  EXPECT_EQ(in.read_vi64(), GetParam());
  EXPECT_EQ(in.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VIntRoundTrip,
    ::testing::Values(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max(), -1, 0, 1, 127, 128, -112,
                      -113, 255, 256, 65535, 65536, -65536, 1LL << 31, -(1LL << 31),
                      1LL << 47, 0x12345678ABCDLL, -0x12345678ABCDLL));

TEST(Primitives, FixedWidthRoundTrip) {
  DataOutputBuffer out(kCm);
  out.write_u8(0xAB);
  out.write_bool(true);
  out.write_u16(0xBEEF);
  out.write_u32(0xDEADBEEF);
  out.write_u64(0x0123456789ABCDEFULL);
  out.write_i32(-42);
  out.write_i64(-1234567890123LL);
  out.write_f64(3.14159);

  DataInputBuffer in(kCm, out.data());
  EXPECT_EQ(in.read_u8(), 0xAB);
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read_u16(), 0xBEEF);
  EXPECT_EQ(in.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(in.read_i32(), -42);
  EXPECT_EQ(in.read_i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(in.read_f64(), 3.14159);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(Primitives, BigEndianOnWire) {
  DataOutputBuffer out(kCm);
  out.write_u32(0x01020304);
  ASSERT_EQ(out.length(), 4u);
  EXPECT_EQ(out.data()[0], 0x01);
  EXPECT_EQ(out.data()[3], 0x04);
}

TEST(TextAndBytes, RoundTrip) {
  DataOutputBuffer out(kCm);
  out.write_text("hello, hadoop");
  out.write_text("");
  net::Bytes blob(300);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<net::Byte>(i);
  out.write_bytes(blob);

  DataInputBuffer in(kCm, out.data());
  EXPECT_EQ(in.read_text(), "hello, hadoop");
  EXPECT_EQ(in.read_text(), "");
  EXPECT_EQ(in.read_bytes(), blob);
}

TEST(Writables, AllPrimitiveWritablesRoundTrip) {
  DataOutputBuffer out(kCm);
  IntWritable(42).write(out);
  LongWritable(-7).write(out);
  VLongWritable(300).write(out);
  BooleanWritable(true).write(out);
  Text("xyz").write(out);
  BytesWritable(net::Bytes{1, 2, 3}).write(out);
  NullWritable().write(out);

  DataInputBuffer in(kCm, out.data());
  IntWritable i;
  i.read_fields(in);
  EXPECT_EQ(i.value, 42);
  LongWritable l;
  l.read_fields(in);
  EXPECT_EQ(l.value, -7);
  VLongWritable vl;
  vl.read_fields(in);
  EXPECT_EQ(vl.value, 300);
  BooleanWritable b;
  b.read_fields(in);
  EXPECT_TRUE(b.value);
  Text t;
  t.read_fields(in);
  EXPECT_EQ(t.value, "xyz");
  BytesWritable bw;
  bw.read_fields(in);
  EXPECT_EQ(bw.value, (net::Bytes{1, 2, 3}));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(ReadPastEnd, Throws) {
  DataOutputBuffer out(kCm);
  out.write_u16(7);
  DataInputBuffer in(kCm, out.data());
  EXPECT_EQ(in.read_u16(), 7);
  EXPECT_THROW(in.read_u32(), SerializationError);
}

TEST(CorruptLength, Throws) {
  DataOutputBuffer out(kCm);
  out.write_u32(1000000);  // bytes length far beyond buffer
  DataInputBuffer in(kCm, out.data());
  EXPECT_THROW(in.read_bytes(), SerializationError);
}

// --- Algorithm 1 ----------------------------------------------------------

TEST(Algorithm1, StartsAt32BytesAndDoubles) {
  DataOutputBuffer d(kCm);
  EXPECT_EQ(d.capacity(), 32u);
  net::Bytes payload(33, net::Byte{1});
  d.write_raw(payload);
  EXPECT_EQ(d.capacity(), 64u);
  EXPECT_EQ(d.stats().mem_adjustments, 1u);
}

TEST(Algorithm1, GrowsToExactWhenDoublingInsufficient) {
  DataOutputBuffer d(kCm);
  net::Bytes payload(1000, net::Byte{2});
  d.write_raw(payload);
  // max(32*2, 1000) = 1000.
  EXPECT_EQ(d.capacity(), 1000u);
  EXPECT_EQ(d.stats().mem_adjustments, 1u);
}

TEST(Algorithm1, ManySmallWritesCauseRepeatedAdjustments) {
  // The Writable pattern the paper highlights: many small field writes
  // force the buffer through the full doubling ladder.
  DataOutputBuffer d(kCm);
  for (int i = 0; i < 300; ++i) d.write_u32(static_cast<std::uint32_t>(i));
  // 1200 bytes through 32 -> 64 -> 128 -> 256 -> 512 -> 1024 -> 2048.
  EXPECT_EQ(d.stats().mem_adjustments, 6u);
  EXPECT_EQ(d.length(), 1200u);
  EXPECT_EQ(d.capacity(), 2048u);
}

TEST(Algorithm1, CopiedBytesExceedPayloadUnderGrowth) {
  DataOutputBuffer d(kCm);
  for (int i = 0; i < 300; ++i) d.write_u32(static_cast<std::uint32_t>(i));
  // Old-data copies on each adjustment mean total memcpy > payload.
  EXPECT_GT(d.stats().bytes_copied, d.length());
}

TEST(Algorithm1, LargeInitialBufferAvoidsAdjustments) {
  DataOutputBuffer d(kCm, kServerInitialBuffer);
  for (int i = 0; i < 300; ++i) d.write_u32(static_cast<std::uint32_t>(i));
  EXPECT_EQ(d.stats().mem_adjustments, 0u);
}

TEST(Algorithm1, ResetKeepsCapacity) {
  DataOutputBuffer d(kCm);
  net::Bytes payload(500, net::Byte{3});
  d.write_raw(payload);
  const std::size_t cap = d.capacity();
  d.reset();
  EXPECT_EQ(d.length(), 0u);
  EXPECT_EQ(d.capacity(), cap);
  d.write_raw(payload);
  EXPECT_EQ(d.stats().mem_adjustments, 1u);  // no new growth after reset
}

TEST(Algorithm1, AccruedCostGrowsWithAdjustments) {
  DataOutputBuffer small(kCm);
  DataOutputBuffer big(kCm, kServerInitialBuffer);
  sim::Dur small_cost = small.take_accrued();  // initial alloc only
  sim::Dur big_cost = big.take_accrued();
  net::Bytes payload(4096, net::Byte{1});
  for (int i = 0; i < 4096; i += 4) small.write_raw(net::ByteSpan(payload.data(), 4));
  for (int i = 0; i < 4096; i += 4) big.write_raw(net::ByteSpan(payload.data(), 4));
  small_cost = small.take_accrued();
  big_cost = big.take_accrued();
  // Same payload, but the 32-byte start pays reallocation copies.
  EXPECT_GT(small_cost, big_cost);
  EXPECT_GT(small.stats().mem_adjustments, 5u);
  EXPECT_EQ(big.stats().mem_adjustments, 0u);
}

// Property sweep: for any write pattern, capacity >= length, geometric
// adjustment count, and content integrity.
class Alg1Property : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Alg1Property, InvariantsHold) {
  const std::size_t total = GetParam();
  DataOutputBuffer d(kCm);
  net::Bytes expect;
  std::size_t written = 0;
  std::uint32_t x = 12345;
  while (written < total) {
    x = x * 1664525 + 1013904223;
    const std::size_t n = 1 + x % 97;
    net::Bytes chunk(std::min(n, total - written));
    for (auto& b : chunk) {
      x = x * 1664525 + 1013904223;
      b = static_cast<net::Byte>(x);
    }
    d.write_raw(chunk);
    expect.insert(expect.end(), chunk.begin(), chunk.end());
    written += chunk.size();
    ASSERT_GE(d.capacity(), d.length());
  }
  ASSERT_EQ(d.length(), total);
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), d.data().begin()));
  // Adjustments are bounded by the doubling ladder from 32 to total.
  std::size_t ladder = 0, cap = 32;
  while (cap < total) {
    cap *= 2;
    ++ladder;
  }
  EXPECT_LE(d.stats().mem_adjustments, ladder + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Alg1Property,
                         ::testing::Values(1, 31, 32, 33, 64, 100, 1000, 4096, 65536,
                                           1u << 20));

// --- BufferedOutputStream --------------------------------------------------

TEST(BufferedStream, FlushMakesPendingAvailableOnce) {
  BufferedOutputStream out(kCm);
  out.write_u32(0xAABBCCDD);
  EXPECT_TRUE(out.take_pending().empty());  // nothing before flush
  out.write_u32(0x11223344);
  out.flush();
  net::Bytes p = out.take_pending();
  EXPECT_EQ(p.size(), 8u);
  EXPECT_TRUE(out.take_pending().empty());
}

TEST(BufferedStream, NativeCopyChargedOnFlush) {
  BufferedOutputStream out(kCm);
  (void)out.take_accrued();
  net::Bytes big(100000, net::Byte{9});
  out.write_raw(big);
  const sim::Dur before_flush = out.accrued();
  out.flush();
  // Flush adds the JVM-heap -> native copy on top of the buffering copy.
  EXPECT_GT(out.accrued(), before_flush);
  EXPECT_GE(out.take_pending().size(), big.size());
}

// A small stream buffer spills to pending_ several times before the flush:
// the bytes leave in write order, and the modelled cost is the one heap
// allocation, one heap copy per write and one native copy of the total.
TEST(BufferedStream, RepeatedSpillsKeepByteOrderAndCharges) {
  constexpr std::size_t kBufSize = 16;
  BufferedOutputStream out(kCm, kBufSize);
  net::Bytes expect;
  sim::Dur charge = kCm.heap_alloc(kBufSize);
  for (int w = 0; w < 12; ++w) {
    net::Bytes chunk(static_cast<std::size_t>(5 + w % 4));
    for (std::size_t j = 0; j < chunk.size(); ++j) {
      chunk[j] = static_cast<net::Byte>(w * 16 + static_cast<int>(j));
    }
    out.write_raw(chunk);
    expect.insert(expect.end(), chunk.begin(), chunk.end());
    charge += kCm.heap_copy(chunk.size());
  }
  ASSERT_GT(expect.size(), 4 * kBufSize);  // several spills
  out.flush();
  charge += kCm.native_copy(expect.size());
  EXPECT_EQ(out.take_pending(), expect);
  EXPECT_EQ(out.take_accrued(), charge);
  EXPECT_EQ(out.stats().allocations, 1u);
  EXPECT_EQ(out.stats().alloc_time, kCm.heap_alloc(kBufSize));
  EXPECT_EQ(out.stats().bytes_copied, expect.size());

  // The stream goes on after a take: the next flush carries only new bytes.
  out.write_u32(0x01020304);
  out.flush();
  EXPECT_EQ(out.take_pending(), (net::Bytes{1, 2, 3, 4}));
}

}  // namespace
}  // namespace rpcoib::rpc
