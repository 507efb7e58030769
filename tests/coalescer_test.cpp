// The shared batching pieces in isolation: Coalescer<Sink>'s append policy
// and linger timer driven through a fake Sink, and the RPCoIB kBatch codec
// (encode_batch / split_batch) — including frames whose header lies about
// what was received.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "rpc/batch.hpp"
#include "rpcoib/wire.hpp"

namespace rpcoib {
namespace {

using rpc::Coalescer;

// ---- Coalescer -------------------------------------------------------------

/// Records every flush the coalescer hands it. Copies share one State, the
/// way transport sinks share their connection.
struct FakeSink {
  struct State {
    sim::Scheduler* sched = nullptr;
    std::size_t limit = rpc::kUnboundedBatch;
    sim::Dur linger_cap = rpc::kUncappedLinger;
    bool stopped = false;
    bool count = true;
    rpc::RpcStats stats;
    std::vector<std::vector<net::Bytes>> flushed;
    std::vector<trace::TraceContext> flushed_ctx;
    std::vector<sim::Time> flushed_at;
  };
  std::shared_ptr<State> st;

  sim::Scheduler& sched() const { return *st->sched; }
  std::size_t limit() const { return st->limit; }
  sim::Dur linger_cap() const { return st->linger_cap; }
  bool stopped() const { return st->stopped; }
  rpc::RpcStats* flush_stats() const { return st->count ? &st->stats : nullptr; }
  sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext ctx) const {
    return record(st, std::move(items), ctx);
  }
  static sim::Co<void> record(std::shared_ptr<State> st, std::vector<net::Bytes> items,
                              trace::TraceContext ctx) {
    st->flushed.push_back(std::move(items));
    st->flushed_ctx.push_back(ctx);
    st->flushed_at.push_back(st->sched->now());
    co_return;
  }
};

rpc::BatchConfig config(std::size_t max_calls, std::size_t max_bytes, sim::Dur linger) {
  rpc::BatchConfig cfg;
  cfg.enabled = true;
  cfg.max_calls = max_calls;
  cfg.max_bytes = max_bytes;
  cfg.linger = linger;
  return cfg;
}

/// Append messages of the given sizes, `gap` apart in virtual time, from
/// one simulated caller.
sim::Task caller(Coalescer<FakeSink>& co, FakeSink sink, std::vector<std::size_t> sizes,
                 sim::Dur gap, trace::TraceContext ctx = {}) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0 && gap > 0) co_await sim::delay(sink.sched(), gap);
    net::Bytes payload(sizes[i], static_cast<net::Byte>(i));
    co_await co.append(sink, std::move(payload), ctx);
  }
}

struct Rig {
  sim::Scheduler sched;
  FakeSink sink{std::make_shared<FakeSink::State>()};
  Rig() { sink.st->sched = &sched; }
};

TEST(Coalescer, OverflowPreFlushesTheOpenBatch) {
  Rig r;
  r.sink.st->limit = 100;
  Coalescer<FakeSink> co(config(16, 8192, sim::micros(30)));
  r.sched.spawn(caller(co, r.sink, {60, 60}, 0));
  r.sched.run();
  // The second message would cross the limit: the first goes out alone
  // before it is buffered, and the second leaves on its own timer.
  ASSERT_EQ(r.sink.st->flushed.size(), 2u);
  EXPECT_EQ(r.sink.st->flushed[0].size(), 1u);
  EXPECT_EQ(r.sink.st->flushed[1].size(), 1u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_full, 1u);
  EXPECT_EQ(r.sink.st->stats.batched_calls, 2u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_immediate, 1u);
}

TEST(Coalescer, FullBatchFlushesInlineAndItsTimerStandsDown) {
  Rig r;
  Coalescer<FakeSink> co(config(3, 8192, sim::micros(30)));
  r.sched.spawn(caller(co, r.sink, {10, 10, 10}, 0));
  r.sched.run();
  // One frame of three; the timer armed by the first append finds its
  // epoch already flushed and does nothing.
  ASSERT_EQ(r.sink.st->flushed.size(), 1u);
  EXPECT_EQ(r.sink.st->flushed[0].size(), 3u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_full, 1u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_linger, 0u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_immediate, 0u);
}

TEST(Coalescer, ZeroLingerFlushesOnTheNextTick) {
  Rig r;
  Coalescer<FakeSink> co(config(16, 8192, sim::micros(30)));
  // Sparse arrivals (no EWMA yet): the adaptive linger is zero, but the
  // timer still yields one tick, so a same-instant second caller joins.
  r.sched.spawn(caller(co, r.sink, {10}, 0));
  r.sched.spawn(caller(co, r.sink, {20}, 0));
  r.sched.run();
  ASSERT_EQ(r.sink.st->flushed.size(), 1u);
  EXPECT_EQ(r.sink.st->flushed[0].size(), 2u);
  EXPECT_EQ(r.sink.st->flushed_at[0], 0u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_immediate, 1u);
}

TEST(Coalescer, DenseArrivalsLingerUpToTheSinkCap) {
  Rig r;
  r.sink.st->linger_cap = sim::micros(30) / 4;  // the server's response cap
  r.sink.st->count = false;                     // ...which counts no reasons
  Coalescer<FakeSink> co(config(16, 8192, sim::micros(30)));
  // The first two arrivals (1 us apart) find no gap history and flush on
  // the next tick; by the third the EWMA gap (1 us) is under the linger,
  // so that batch waits min(linger, cap) for company.
  r.sched.spawn(caller(co, r.sink, {10, 10, 10}, sim::micros(1)));
  r.sched.run();
  ASSERT_EQ(r.sink.st->flushed.size(), 3u);
  EXPECT_EQ(r.sink.st->flushed_at[1], sim::micros(1));
  EXPECT_EQ(r.sink.st->flushed_at[2], sim::micros(2) + sim::micros(30) / 4);
  EXPECT_EQ(r.sink.st->stats.batched_calls, 0u);
  EXPECT_EQ(r.sink.st->stats.batch_flush_linger, 0u);
}

TEST(Coalescer, StoppedSinkStandsDownTheTimer) {
  Rig r;
  Coalescer<FakeSink> co(config(16, 8192, sim::micros(30)));
  r.sched.spawn(caller(co, r.sink, {10}, 0));
  r.sink.st->stopped = true;
  r.sched.run();
  EXPECT_TRUE(r.sink.st->flushed.empty());
  EXPECT_EQ(co.batcher().count(), 1u);
}

TEST(Coalescer, UnboundedLimitAppendsThenFlushesLikeTheSocketClient) {
  // The socket client never pre-flushes: the message that crosses
  // max_bytes is appended first and leaves in the same frame.
  Rig unbounded;
  Coalescer<FakeSink> a(config(16, 100, sim::micros(30)));
  unbounded.sched.spawn(caller(a, unbounded.sink, {60, 60}, 0));
  unbounded.sched.run();
  ASSERT_EQ(unbounded.sink.st->flushed.size(), 1u);
  EXPECT_EQ(unbounded.sink.st->flushed[0].size(), 2u);
  EXPECT_EQ(unbounded.sink.st->stats.batch_flush_full, 1u);

  // A bounded sink at the same byte limit splits the pair instead.
  Rig bounded;
  bounded.sink.st->limit = 100;
  Coalescer<FakeSink> b(config(16, 100, sim::micros(30)));
  bounded.sched.spawn(caller(b, bounded.sink, {60, 60}, 0));
  bounded.sched.run();
  ASSERT_EQ(bounded.sink.st->flushed.size(), 2u);
  EXPECT_EQ(bounded.sink.st->flushed[0].size(), 1u);
}

TEST(Coalescer, FirstTracedMessageParentsTheFlush) {
  Rig r;
  Coalescer<FakeSink> co(config(2, 8192, sim::micros(30)));
  const trace::TraceContext traced{11, 22};
  r.sched.spawn(caller(co, r.sink, {10}, 0, traced));
  r.sched.spawn(caller(co, r.sink, {10}, 0, trace::TraceContext{33, 44}));
  r.sched.run();
  ASSERT_EQ(r.sink.st->flushed_ctx.size(), 1u);
  EXPECT_EQ(r.sink.st->flushed_ctx[0].trace_id, 11u);
  EXPECT_EQ(r.sink.st->flushed_ctx[0].span_id, 22u);
}

// ---- kBatch codec ----------------------------------------------------------

using oib::BatchSplit;

net::Bytes header(std::uint32_t count, const std::vector<std::uint32_t>& lens) {
  net::Bytes f(oib::kBatchHeaderBytes + 4 * lens.size());
  f[0] = static_cast<net::Byte>(oib::FrameType::kBatch);
  std::memcpy(f.data() + 1, &count, 4);
  for (std::size_t i = 0; i < lens.size(); ++i) std::memcpy(f.data() + 5 + 4 * i, &lens[i], 4);
  return f;
}

TEST(BatchSplit, EncodeSplitRoundTripsByteExactly) {
  const std::vector<net::Bytes> items{{1, 2, 3}, {}, net::Bytes(17, 0x5A), {9}};
  net::Bytes frame(oib::batch_frame_size(items));
  oib::encode_batch(items, frame.data());
  EXPECT_EQ(frame.size(), 5u + 4 * 4 + 3 + 0 + 17 + 1);
  std::vector<net::ByteSpan> subs;
  ASSERT_EQ(oib::split_batch(frame, subs), BatchSplit::kOk);
  ASSERT_EQ(subs.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(net::Bytes(subs[i].begin(), subs[i].end()), items[i]) << "sub-frame " << i;
  }
}

TEST(BatchSplit, TruncatedHeaderIsRejected) {
  std::vector<net::ByteSpan> subs;
  const net::Bytes frame{static_cast<net::Byte>(oib::FrameType::kBatch), 1, 0};
  EXPECT_EQ(oib::split_batch(frame, subs), BatchSplit::kTruncated);
  EXPECT_EQ(oib::split_batch(net::ByteSpan(frame.data(), 1), subs), BatchSplit::kTruncated);
}

TEST(BatchSplit, ZeroCountIsRejected) {
  std::vector<net::ByteSpan> subs;
  EXPECT_EQ(oib::split_batch(header(0, {}), subs), BatchSplit::kEmpty);
}

TEST(BatchSplit, CountPastTheFrameIsRejected) {
  std::vector<net::ByteSpan> subs;
  // Claims five sub-frames but only carries two length words.
  EXPECT_EQ(oib::split_batch(header(5, {0, 0}), subs), BatchSplit::kBadCount);
  // A count so large the length table alone would overflow any buffer.
  EXPECT_EQ(oib::split_batch(header(0xFFFFFFFFu, {0}), subs), BatchSplit::kBadCount);
}

TEST(BatchSplit, SubLengthPastTheEndIsRejected) {
  std::vector<net::ByteSpan> subs;
  net::Bytes frame = header(2, {4, 100});
  frame.insert(frame.end(), 10, 0xEE);  // 4 + 6 bytes: the second runs out
  EXPECT_EQ(oib::split_batch(frame, subs), BatchSplit::kBadLength);
  net::Bytes huge = header(1, {0xFFFFFFFFu});
  huge.push_back(0);
  EXPECT_EQ(oib::split_batch(huge, subs), BatchSplit::kBadLength);
}

TEST(BatchSplit, TrailingBytesAreRejected) {
  const std::vector<net::Bytes> items{{1, 2}};
  net::Bytes frame(oib::batch_frame_size(items));
  oib::encode_batch(items, frame.data());
  frame.push_back(0);
  std::vector<net::ByteSpan> subs;
  EXPECT_EQ(oib::split_batch(frame, subs), BatchSplit::kBadLength);
}

}  // namespace
}  // namespace rpcoib
