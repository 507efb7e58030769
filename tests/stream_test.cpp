// Stream subsystem tests: pipelined chunk transfer integrity, the fallback
// matrix (threshold, capped pools, grant refusal), edge geometries (payload
// an exact multiple of chunk_size, sub-chunk payload, ring_depth=1),
// per-chunk deadline expiry, pool-balance invariants after teardown, and
// chunk payloads (a relay forwarding them as landed, real and pattern chunks
// in one stream, pattern chunks landing over a slot's stale bytes).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/testbed.hpp"
#include "rpcoib/stream/stream.hpp"

namespace rpcoib::oib::stream {
namespace {

using net::Testbed;
using sim::Scheduler;
using sim::Task;

StreamConfig stream_cfg(std::size_t chunk = 64 * 1024, std::size_t depth = 4) {
  StreamConfig c;
  c.enabled = true;
  c.chunk_size = chunk;
  c.ring_depth = depth;
  c.min_stream_bytes = 128 * 1024;
  return c;
}

struct Fixture {
  explicit Fixture(Scheduler& s, StreamConfig cfg = stream_cfg(), PoolConfig apool = {},
                   PoolConfig bpool = {})
      : tb(s, Testbed::cluster_a(2)),
        stack(tb.fabric()),
        a(tb.host(0), tb.sockets(), stack, cfg, apool),
        b(tb.host(1), tb.sockets(), stack, cfg, bpool) {}

  // Tests stop hubs explicitly where teardown matters; this drain only
  // reclaims still-suspended daemon frames (conn loops, pool init) so the
  // leak checker stays quiet.
  ~Fixture() { tb.sched().drain_tasks(); }

  Testbed tb;
  verbs::VerbsStack stack;
  StreamHub a;  // opener side
  StreamHub b;  // listener side
};

constexpr net::Address kDst{1, kHdfsStreamPort};

struct Received {
  net::Bytes meta;
  std::vector<net::Bytes> chunks;
  bool finished = false;
  std::string error;
};

// Consume a stream fully, copying every chunk out. `hold` delays each
// release; from chunk index `stall_at` on, the consumer stops releasing for
// `stall_for` before continuing (provoking writer-side credit stalls or
// deadline expiry).
Task consume(Scheduler& s, StreamReaderPtr r, net::Bytes meta, Received* out,
             sim::Dur hold, std::uint64_t stall_at, sim::Dur stall_for) {
  out->meta = std::move(meta);
  bool ok = false;  // co_await is not allowed inside a handler
  try {
    const std::uint64_t n = r->num_chunks();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i == stall_at) co_await sim::delay(s, stall_for);
      Chunk c = co_await r->next_chunk();
      out->chunks.emplace_back(c.bytes().begin(), c.bytes().end());
      if (hold > 0) co_await sim::delay(s, hold);
      co_await r->release_chunk(c.seq);
    }
    co_await r->finish(0);
    ok = true;
  } catch (const StreamAbortedError& e) {
    out->error = e.what();
  }
  if (ok) {
    out->finished = true;
  } else {
    co_await r->abort(out->error);
  }
}

StreamHub::OpenHandler consumer(Scheduler& s, Received* out, sim::Dur hold = 0,
                                std::uint64_t stall_at = ~0ULL, sim::Dur stall_for = 0) {
  return [&s, out, hold, stall_at, stall_for](StreamReaderPtr r, net::Bytes meta) {
    return consume(s, std::move(r), std::move(meta), out, hold, stall_at, stall_for);
  };
}

struct WriteResult {
  int status = -1;  // -2 = open fell back, -3 = aborted, else receiver status
  std::string error;
};

sim::Co<void> drive_write(StreamHub& hub, net::Address dst, net::Bytes meta,
                          std::uint64_t nbytes, WriteResult* out) {
  StreamWriterPtr w = co_await hub.open(dst, std::move(meta), nbytes);
  if (w == nullptr) {
    out->status = -2;
    co_return;
  }
  try {
    co_await w->write_all();
    out->status = co_await w->close();
  } catch (const StreamAbortedError& e) {
    out->status = -3;
    out->error = e.what();
  } catch (const std::exception& e) {
    out->status = -4;
    out->error = std::string("unexpected: ") + e.what();
  }
}

Task write_task(StreamHub& hub, net::Address dst, net::Bytes meta, std::uint64_t nbytes,
                WriteResult* out) {
  co_await drive_write(hub, dst, std::move(meta), nbytes, out);
}

// write_all's integrity pattern: byte j of chunk k is (k * 131 + j) & 0xff.
bool pattern_ok(const std::vector<net::Bytes>& chunks, std::uint64_t nbytes,
                std::size_t chunk_size) {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    if (chunks[k].size() > chunk_size) return false;
    for (std::size_t j = 0; j < chunks[k].size(); ++j) {
      if (chunks[k][j] != static_cast<net::Byte>((k * 131 + j) & 0xff)) return false;
    }
    total += chunks[k].size();
  }
  return total == nbytes;
}

void expect_balanced(StreamHub& hub) {
  const PoolStats& ps = hub.pool().stats();
  EXPECT_EQ(ps.acquires, ps.releases);
}

TEST(Stream, ExactMultipleRoundTrip) {
  Scheduler s;
  Fixture f(s);
  Received rx;
  f.b.listen(kDst, consumer(s, &rx));
  WriteResult wr;
  const std::uint64_t nbytes = 512 * 1024;  // exactly 8 x 64K chunks
  s.spawn(write_task(f.a, kDst, {net::Byte{0x42}}, nbytes, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(rx.finished) << rx.error;
  ASSERT_EQ(rx.chunks.size(), 8u);
  for (const net::Bytes& c : rx.chunks) EXPECT_EQ(c.size(), 64u * 1024);
  EXPECT_TRUE(pattern_ok(rx.chunks, nbytes, 64 * 1024));
  ASSERT_EQ(rx.meta.size(), 1u);
  EXPECT_EQ(rx.meta[0], net::Byte{0x42});

  EXPECT_EQ(f.a.stats().streams_opened, 1u);
  EXPECT_EQ(f.a.stats().stream_chunks, 8u);
  EXPECT_EQ(f.a.stats().stream_bytes, nbytes);
  EXPECT_EQ(f.b.stats().streams_opened, 1u);
  EXPECT_EQ(f.a.stats().stream_aborts, 0u);

  f.a.stop();
  f.b.stop();
  s.run_until(sim::seconds(31));
  expect_balanced(f.a);
  expect_balanced(f.b);
}

TEST(Stream, PartialTailChunk) {
  Scheduler s;
  Fixture f(s);
  Received rx;
  f.b.listen(kDst, consumer(s, &rx));
  WriteResult wr;
  const std::uint64_t nbytes = 2 * 64 * 1024 + 2048;  // 64K, 64K, 2K
  s.spawn(write_task(f.a, kDst, {}, nbytes, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(rx.finished) << rx.error;
  ASSERT_EQ(rx.chunks.size(), 3u);
  EXPECT_EQ(rx.chunks.back().size(), 2048u);
  EXPECT_TRUE(pattern_ok(rx.chunks, nbytes, 64 * 1024));
}

TEST(Stream, SubChunkPayload) {
  Scheduler s;
  StreamConfig cfg = stream_cfg();
  cfg.min_stream_bytes = 16 * 1024;
  Fixture f(s, cfg);
  Received rx;
  f.b.listen(kDst, consumer(s, &rx));
  WriteResult wr;
  const std::uint64_t nbytes = 20 * 1024;  // below one chunk
  ASSERT_TRUE(f.a.should_stream(nbytes));
  s.spawn(write_task(f.a, kDst, {}, nbytes, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(rx.finished) << rx.error;
  ASSERT_EQ(rx.chunks.size(), 1u);
  EXPECT_EQ(rx.chunks.front().size(), nbytes);
  EXPECT_TRUE(pattern_ok(rx.chunks, nbytes, 64 * 1024));
}

TEST(Stream, ShouldStreamThresholds) {
  Scheduler s;
  Fixture f(s);
  EXPECT_FALSE(f.a.should_stream(0));
  EXPECT_FALSE(f.a.should_stream(128 * 1024 - 1));  // below min_stream_bytes
  EXPECT_TRUE(f.a.should_stream(128 * 1024));
  // 16-bit chunk-sequence space: > 65535 chunks cannot stream.
  EXPECT_FALSE(f.a.should_stream(static_cast<std::uint64_t>(64 * 1024) * 65536 + 1));

  StreamConfig off;  // enabled = false
  StreamHub c(f.tb.host(0), f.tb.sockets(), f.stack, off, PoolConfig{});
  EXPECT_FALSE(c.should_stream(10u << 20));
}

TEST(Stream, RingDepthOne) {
  Scheduler s;
  Fixture f(s, stream_cfg(64 * 1024, 1));
  Received rx;
  // Hold each chunk briefly so its credit always lags the writer's next
  // take: serialization alone can otherwise cover the credit round-trip.
  f.b.listen(kDst, consumer(s, &rx, sim::millis(1)));
  WriteResult wr;
  const std::uint64_t nbytes = 256 * 1024;
  s.spawn(write_task(f.a, kDst, {}, nbytes, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(rx.finished) << rx.error;
  ASSERT_EQ(rx.chunks.size(), 4u);
  EXPECT_TRUE(pattern_ok(rx.chunks, nbytes, 64 * 1024));
  // Depth 1 serializes every chunk behind the previous credit.
  EXPECT_GT(f.a.stats().stream_credit_stalls, 0u);
}

TEST(Stream, WriterDeadlineExpiresOnStalledReader) {
  Scheduler s;
  StreamConfig cfg = stream_cfg(64 * 1024, 2);
  cfg.chunk_deadline = sim::millis(50);
  Fixture f(s, cfg);
  Received rx;
  // Reader stalls 2 s before chunk 1 — far past the 50 ms chunk deadline.
  f.b.listen(kDst, consumer(s, &rx, 0, 1, sim::seconds(2)));
  WriteResult wr;
  s.spawn(write_task(f.a, kDst, {}, 512 * 1024, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, -3);
  EXPECT_FALSE(rx.finished);
  EXPECT_GE(f.a.stats().stream_deadline_expiries, 1u);
  EXPECT_GE(f.a.stats().stream_aborts, 1u);

  f.a.stop();
  f.b.stop();
  s.run_until(sim::seconds(31));
  expect_balanced(f.a);
  expect_balanced(f.b);
}

TEST(Stream, ReaderDeadlineExpiresOnSilentWriter) {
  Scheduler s;
  StreamConfig cfg = stream_cfg(64 * 1024, 2);
  cfg.chunk_deadline = sim::millis(50);
  Fixture f(s, cfg);
  Received rx;
  f.b.listen(kDst, consumer(s, &rx));
  // Open a stream and never write: the reader's chunk deadline fires and
  // aborts back into the writer.
  bool opened = false;
  bool writer_failed = false;
  s.spawn([](Fixture& f, bool& opened, bool& writer_failed) -> Task {
    StreamWriterPtr w = co_await f.a.open(kDst, {}, 512 * 1024);
    opened = w != nullptr;
    if (!opened) co_return;
    co_await sim::delay(f.tb.sched(), sim::seconds(1));
    bool aborted = false;  // co_await is not allowed inside a handler
    try {
      co_await w->write_chunk(net::Bytes(1024));
    } catch (const StreamAbortedError&) {
      aborted = true;
    }
    writer_failed = aborted;
    if (aborted) {
      const std::string why = "peer gone";
      co_await w->abort(why);
    }
  }(f, opened, writer_failed));
  s.run_until(sim::seconds(30));

  EXPECT_TRUE(opened);
  EXPECT_TRUE(writer_failed);
  EXPECT_FALSE(rx.finished);
  EXPECT_GE(f.b.stats().stream_deadline_expiries, 1u);
  EXPECT_GE(f.b.stats().stream_aborts, 1u);

  f.a.stop();
  f.b.stop();
  s.run_until(sim::seconds(31));
  expect_balanced(f.a);
  expect_balanced(f.b);
}

TEST(Stream, CappedReceiverGrantsPartialRingThenRefuses) {
  Scheduler s;
  StreamConfig cfg = stream_cfg(256 * 1024, 4);  // above prealloc_max_class
  PoolConfig capped;
  // The cap is a lifetime demand-allocation budget. Connection bootstrap
  // takes 8 (16 ctrl recvs minus 8 preallocated 2 KB buffers), leaving
  // room for exactly 2 of the 4 requested 256 KB ring slots.
  capped.demand_alloc_cap = 10;
  Fixture f(s, cfg, PoolConfig{}, capped);
  Received rx1;
  // First stream holds its (partial) ring for a while.
  f.b.listen(kDst, consumer(s, &rx1, sim::millis(200)));
  WriteResult w1, w2;
  const std::uint64_t nbytes = 1u << 20;
  s.spawn(write_task(f.a, kDst, {}, nbytes, &w1));
  // Second stream arrives while the first holds both demand-capped slots:
  // its grant is refused and the opener falls back.
  s.spawn([](Scheduler& s, Fixture& f, std::uint64_t nbytes, WriteResult* out) -> Task {
    co_await sim::delay(s, sim::millis(10));
    co_await drive_write(f.a, kDst, {}, nbytes, out);
  }(s, f, nbytes, &w2));
  s.run_until(sim::seconds(120));

  EXPECT_EQ(w1.status, 0) << w1.error;
  EXPECT_TRUE(rx1.finished) << rx1.error;
  EXPECT_EQ(w2.status, -2);  // open returned null: legacy-path fallback
  EXPECT_GT(f.b.stats().stream_pool_denied, 0u);
  EXPECT_GE(f.a.stats().stream_fallbacks, 1u);

  f.a.stop();
  f.b.stop();
  s.run_until(sim::seconds(121));
  expect_balanced(f.a);
  expect_balanced(f.b);
}

TEST(Stream, CappedSenderFallsBackBeforeOpening) {
  Scheduler s;
  StreamConfig cfg = stream_cfg(256 * 1024, 4);
  PoolConfig capped;
  // 8 ctrl-recv demand allocations + 2 of the 4 staging slots (see the
  // receiver-side test above for the budget arithmetic).
  capped.demand_alloc_cap = 10;
  Fixture f(s, cfg, capped, PoolConfig{});
  Received rx1, rx2;
  f.b.listen(kDst, consumer(s, &rx1, sim::millis(200)));
  WriteResult w1, w2;
  const std::uint64_t nbytes = 1u << 20;
  s.spawn(write_task(f.a, kDst, {}, nbytes, &w1));
  s.spawn([](Scheduler& s, Fixture& f, std::uint64_t nbytes, WriteResult* out) -> Task {
    co_await sim::delay(s, sim::millis(10));
    co_await drive_write(f.a, kDst, {}, nbytes, out);
  }(s, f, nbytes, &w2));
  s.run_until(sim::seconds(120));

  // First stream runs (staging capped to 2 slots); the second finds the
  // sender's own pool dry and falls back without touching the wire.
  EXPECT_EQ(w1.status, 0) << w1.error;
  EXPECT_EQ(w2.status, -2);
  EXPECT_GT(f.a.stats().stream_pool_denied, 0u);
  EXPECT_GE(f.a.stats().stream_fallbacks, 1u);

  f.a.stop();
  f.b.stop();
  s.run_until(sim::seconds(121));
  expect_balanced(f.a);
  expect_balanced(f.b);
}

Task serve_fetch(StreamHub& hub, StreamHub::ConnPtr conn, std::uint64_t token,
                 std::uint64_t nbytes) {
  StreamWriterPtr w = co_await hub.open_on(std::move(conn), token, nbytes);
  if (w == nullptr) co_return;
  bool aborted = false;  // co_await is not allowed inside a handler
  try {
    co_await w->write_all();
    co_await w->close();
  } catch (const StreamAbortedError&) {
    aborted = true;
  }
  if (aborted) {
    const std::string why = "fetch aborted";
    co_await w->abort(why);
  }
}

Task fetch_consume(StreamHub& hub, std::vector<net::Bytes>& chunks, bool& finished) {
  net::Bytes meta{net::Byte{7}};  // named: gcc rejects a braced temp under co_await
  StreamReaderPtr r = co_await hub.fetch(kDst, std::move(meta));
  if (r == nullptr) co_return;
  bool ok = false;  // co_await is not allowed inside a handler
  std::string err;
  try {
    const std::uint64_t n = r->num_chunks();
    for (std::uint64_t i = 0; i < n; ++i) {
      Chunk c = co_await r->next_chunk();
      chunks.emplace_back(c.bytes().begin(), c.bytes().end());
      co_await r->release_chunk(c.seq);
    }
    co_await r->finish(0);
    ok = true;
  } catch (const StreamAbortedError& e) {
    err = e.what();
  }
  if (!ok) co_await r->abort(err);
  finished = ok;
}

TEST(Stream, FetchRoleFlip) {
  Scheduler s;
  Fixture f(s);
  const std::uint64_t nbytes = 512 * 1024;
  // Server side: serve fetches by opening a stream back on the same
  // connection (the shuffle pattern).
  f.b.listen(
      kDst, [](StreamReaderPtr, net::Bytes) -> Task { co_return; },
      [&f, nbytes](StreamHub::ConnPtr conn, std::uint64_t token, net::Bytes) {
        return serve_fetch(f.b, std::move(conn), token, nbytes);
      });
  std::vector<net::Bytes> chunks;
  bool finished = false;
  s.spawn(fetch_consume(f.a, chunks, finished));
  s.run_until(sim::seconds(30));

  EXPECT_TRUE(finished);
  ASSERT_EQ(chunks.size(), 8u);
  EXPECT_TRUE(pattern_ok(chunks, nbytes, 64 * 1024));

  f.a.stop();
  f.b.stop();
  s.run_until(sim::seconds(31));
  expect_balanced(f.a);
  expect_balanced(f.b);
}

// ---- Payloads: relay, mixed streams, stale ring slots --------------------------

/// The pattern chunk with seed k, spelled as pattern_ok spells it.
net::Bytes pattern_chunk(std::uint64_t k, std::size_t n) {
  net::Bytes c(n);
  for (std::size_t j = 0; j < n; ++j) c[j] = static_cast<net::Byte>((k * 131 + j) & 0xff);
  return c;
}

/// A DataNode-style relay: open the next leg, forward each chunk's payload
/// exactly as it landed, never reading it.
Task relay(StreamHub& hub, net::Address next, StreamReaderPtr r, std::vector<bool>* patterns,
           bool* done) {
  StreamWriterPtr fwd = co_await hub.open(next, {}, r->total_bytes());
  bool ok = false;  // co_await is not allowed inside a handler
  std::string why = "relay refused";
  if (fwd != nullptr) {
    try {
      for (std::uint64_t i = 0; i < r->num_chunks(); ++i) {
        Chunk c = co_await r->next_chunk();
        patterns->push_back(c.payload.is_pattern());
        co_await fwd->write_chunk(c.payload);
        co_await r->release_chunk(c.seq);
      }
      const std::uint8_t status = co_await fwd->close();
      co_await r->finish(status);
      ok = true;
    } catch (const StreamAbortedError& e) {
      why = e.what();
    }
  }
  if (!ok) {
    if (fwd != nullptr) co_await fwd->abort(why);
    co_await r->abort(why);
  }
  *done = ok;
}

/// Three hubs in a line, A -> B -> C, as a client and two DataNodes.
struct Pipeline3 {
  explicit Pipeline3(Scheduler& s)
      : tb(s, Testbed::cluster_a(3)),
        stack(tb.fabric()),
        a(tb.host(0), tb.sockets(), stack, stream_cfg(), PoolConfig{}),
        b(tb.host(1), tb.sockets(), stack, stream_cfg(), PoolConfig{}),
        c(tb.host(2), tb.sockets(), stack, stream_cfg(), PoolConfig{}) {}
  ~Pipeline3() { tb.sched().drain_tasks(); }

  Testbed tb;
  verbs::VerbsStack stack;
  StreamHub a, b, c;
};

TEST(StreamPayload, RelayForwardsPatternPayloadsThatHoldAtTheLastHop) {
  Scheduler s;
  Pipeline3 p(s);
  StreamHub& a = p.a;
  StreamHub& b = p.b;
  StreamHub& c = p.c;
  constexpr net::Address kHopC{2, kHdfsStreamPort};
  std::vector<bool> patterns;
  bool relayed = false;
  b.listen(kDst, [&](StreamReaderPtr r, net::Bytes) {
    return relay(b, kHopC, std::move(r), &patterns, &relayed);
  });
  Received rx;
  c.listen(kHopC, consumer(s, &rx));
  WriteResult wr;
  const std::uint64_t nbytes = 3 * 64 * 1024 + 4096;  // three full chunks and a tail
  s.spawn(write_task(a, kDst, {}, nbytes, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(relayed);
  EXPECT_TRUE(rx.finished) << rx.error;
  ASSERT_EQ(rx.chunks.size(), 4u);
  EXPECT_TRUE(pattern_ok(rx.chunks, nbytes, 64 * 1024));
  EXPECT_EQ(patterns, std::vector<bool>(4, true));
  EXPECT_EQ(b.stats().stream_bytes, nbytes);

  a.stop();
  b.stop();
  c.stop();
  s.run_until(sim::seconds(31));
  expect_balanced(a);
  expect_balanced(b);
  expect_balanced(c);
}

/// Offset between a mixed stream's pattern seeds and their sequence
/// numbers, so a seed derived from the sequence number would show.
constexpr std::uint64_t kSeedBase = 100;

/// Write `chunks` in order: an empty entry k is sent as a pattern with
/// seed kSeedBase + k, any other entry as its real bytes.
Task write_mixed(StreamHub& hub, std::vector<net::Bytes> chunks, std::uint64_t nbytes,
                 WriteResult* out) {
  StreamWriterPtr w = co_await hub.open(kDst, {}, nbytes);
  if (w == nullptr) {
    out->status = -2;
    co_return;
  }
  try {
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      if (chunks[k].empty()) {
        co_await w->write_chunk(net::Payload::pattern(w->chunk_size(), kSeedBase + k));
      } else {
        co_await w->write_chunk(chunks[k]);
      }
    }
    out->status = co_await w->close();
  } catch (const StreamAbortedError& e) {
    out->status = -3;
    out->error = e.what();
  }
}

TEST(StreamPayload, MixedRealAndPatternChunksArriveExactly) {
  Scheduler s;
  Fixture f(s);
  Received rx;
  f.b.listen(kDst, consumer(s, &rx));
  constexpr std::size_t kChunk = 64 * 1024;
  net::Bytes head(kChunk, net::Byte{0xEE});
  net::Bytes tail(kChunk);
  for (std::size_t j = 0; j < kChunk; ++j) tail[j] = static_cast<net::Byte>(j * 7 + 3);
  // Real bytes, two patterns, real bytes again.
  const std::vector<net::Bytes> sent = {head, {}, {}, tail};
  WriteResult wr;
  s.spawn(write_mixed(f.a, sent, 4 * kChunk, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(rx.finished) << rx.error;
  ASSERT_EQ(rx.chunks.size(), 4u);
  EXPECT_EQ(rx.chunks[0], head);
  EXPECT_EQ(rx.chunks[1], pattern_chunk(kSeedBase + 1, kChunk));
  EXPECT_EQ(rx.chunks[2], pattern_chunk(kSeedBase + 2, kChunk));
  EXPECT_EQ(rx.chunks[3], tail);
}

struct SlotReads {
  std::vector<net::Bytes> chunks;
  bool idempotent = true;  // every second bytes() call returned the same view
  bool stable = true;      // the view held its bytes until release_chunk
  bool finished = false;
};

/// Read each chunk twice through bytes(), hold it across a delay, check it
/// again, then release it.
Task read_slots(Scheduler& s, StreamReaderPtr r, SlotReads* out) {
  bool ok = false;  // co_await is not allowed inside a handler
  std::string why;
  try {
    for (std::uint64_t i = 0; i < r->num_chunks(); ++i) {
      Chunk c = co_await r->next_chunk();
      const net::ByteSpan first = c.bytes();
      const net::Bytes copy(first.begin(), first.end());
      const net::ByteSpan again = c.bytes();
      out->idempotent = out->idempotent && again.data() == first.data() &&
                        again.size() == first.size() &&
                        net::Bytes(again.begin(), again.end()) == copy;
      co_await sim::delay(s, sim::millis(1));
      out->stable = out->stable && net::Bytes(first.begin(), first.end()) == copy;
      out->chunks.push_back(copy);
      co_await r->release_chunk(c.seq);
    }
    co_await r->finish(0);
    ok = true;
  } catch (const StreamAbortedError& e) {
    why = e.what();
  }
  if (!ok) co_await r->abort(why);
  out->finished = ok;
}

TEST(StreamPayload, PatternChunkNeverShowsTheStaleBytesOfItsSlot) {
  Scheduler s;
  Fixture f(s, stream_cfg(64 * 1024, 1));  // depth 1: chunk k+1 lands in chunk k's slot
  SlotReads rx;
  f.b.listen(kDst, [&s, &rx](StreamReaderPtr r, net::Bytes) {
    return read_slots(s, std::move(r), &rx);
  });
  constexpr std::size_t kChunk = 64 * 1024;
  const net::Bytes real(kChunk, net::Byte{0xEE});
  // Real bytes fill the slot, then patterns land over them (the first
  // pattern onto real bytes, the next onto a read pattern), then real again.
  const std::vector<net::Bytes> sent = {real, {}, {}, real};
  WriteResult wr;
  s.spawn(write_mixed(f.a, sent, 4 * kChunk, &wr));
  s.run_until(sim::seconds(30));

  EXPECT_EQ(wr.status, 0) << wr.error;
  EXPECT_TRUE(rx.finished);
  EXPECT_TRUE(rx.idempotent);
  EXPECT_TRUE(rx.stable);
  ASSERT_EQ(rx.chunks.size(), 4u);
  EXPECT_EQ(rx.chunks[0], real);
  EXPECT_EQ(rx.chunks[1], pattern_chunk(kSeedBase + 1, kChunk));
  EXPECT_EQ(rx.chunks[2], pattern_chunk(kSeedBase + 2, kChunk));
  EXPECT_EQ(rx.chunks[3], real);
}

// ---- Control-frame decoder totality ------------------------------------------

/// Appends `v`'s low `width` bytes in host (little-endian) order, as the
/// hub's codec writes its fields.
void put(net::Bytes& f, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) f.push_back(static_cast<net::Byte>(v >> (8 * i)));
}

constexpr std::uint64_t kFuzzSid = 77;

net::Bytes frame_of(FrameType t) { return {static_cast<net::Byte>(t)}; }

net::Bytes open_frame(std::uint64_t chunk, std::uint64_t depth, std::uint64_t mlen,
                      const net::Bytes& meta) {
  net::Bytes f = frame_of(FrameType::kStreamOpen);
  put(f, kFuzzSid, 8);
  put(f, 1 << 20, 8);
  put(f, chunk, 4);
  put(f, depth, 4);
  put(f, mlen, 4);
  f.insert(f.end(), meta.begin(), meta.end());
  return f;
}

/// A well-formed frame of each control type, [kStreamOpen, kStreamFetch].
std::vector<net::Bytes> control_frames() {
  std::vector<net::Bytes> out;
  out.push_back(open_frame(64 * 1024, 4, 3, {net::Byte{0}, net::Byte{1}, net::Byte{2}}));
  net::Bytes grant = frame_of(FrameType::kStreamGrant);
  put(grant, kFuzzSid, 8);
  put(grant, 1, 1);
  put(grant, 2, 1);
  for (int i = 0; i < 2; ++i) {
    put(grant, 5, 4);
    put(grant, 0, 8);
    put(grant, 64 * 1024, 4);
  }
  out.push_back(grant);
  net::Bytes credit = frame_of(FrameType::kStreamCredit);
  put(credit, kFuzzSid, 8);
  put(credit, 3, 4);
  out.push_back(credit);
  net::Bytes done = frame_of(FrameType::kStreamDone);
  put(done, kFuzzSid, 8);
  put(done, 0, 1);
  out.push_back(done);
  net::Bytes abort = frame_of(FrameType::kStreamAbort);
  put(abort, kFuzzSid, 8);
  put(abort, 4, 4);
  for (char c : std::string("oops")) abort.push_back(static_cast<net::Byte>(c));
  out.push_back(abort);
  net::Bytes fetch = frame_of(FrameType::kStreamFetch);
  put(fetch, kFuzzSid, 8);
  put(fetch, 3, 4);
  put(fetch, 0x010203, 3);
  out.push_back(fetch);
  return out;
}

/// Bootstraps a raw QP to the hub at `addr`, sends `frames` one by one
/// (spaced so the hub reposts its control receives) and collects the
/// grants the hub answers with.
Task raw_peer(Scheduler& s, Testbed& tb, verbs::VerbsStack& stack, net::Address addr,
              const std::vector<net::Bytes>& frames, std::vector<net::Bytes>* grants) {
  verbs::ConnectionManager cm(stack, tb.sockets());
  verbs::CompletionQueue cq(s);
  verbs::QueuePairPtr qp = co_await cm.connect(tb.host(0), addr, cq, cq);
  std::vector<net::Bytes> slots(16, net::Bytes(4096));
  for (std::size_t i = 0; i < slots.size(); ++i) qp->post_recv(i, slots[i]);
  for (const net::Bytes& f : frames) {
    co_await qp->post_send(0, f);
    co_await sim::delay(s, sim::micros(50));
  }
  co_await sim::delay(s, sim::millis(10));
  verbs::WorkCompletion wc;
  while (cq.poll(wc)) {
    if (wc.opcode != verbs::Opcode::kRecv) continue;
    const net::Bytes& b = slots[wc.wr_id];
    grants->emplace_back(b.begin(), b.begin() + wc.byte_len);
  }
  qp->disconnect();
}

// Every truncated prefix of each control frame type, lengths that wrap a
// 32-bit bounds check, an abort reason longer than its frame, a chunk no
// pool class can lease and ring depths a one-byte grant cannot describe:
// each frame is dropped or answered with a refused grant. Nothing throws,
// no stream opens, no handler runs and the pool stays balanced.
TEST(StreamControl, MalformedFramesAreDroppedOrRefused) {
  Scheduler s;
  Fixture f(s);
  int opens = 0, fetches = 0;
  f.b.listen(
      kDst,
      [&opens](StreamReaderPtr, net::Bytes) -> Task {
        ++opens;
        co_return;
      },
      [&fetches](StreamHub::ConnPtr, std::uint64_t, net::Bytes) -> Task {
        ++fetches;
        co_return;
      });
  s.run_until(sim::seconds(1));  // the hub registers its pool first

  std::vector<net::Bytes> frames;
  for (const net::Bytes& whole : control_frames()) {
    for (std::size_t n = 0; n < whole.size(); ++n) {
      frames.emplace_back(whole.begin(), whole.begin() + n);
    }
  }
  // 29 + mlen and 13 + mlen wrap to 0 and to 28/12 in 32 bits.
  for (std::uint64_t mlen : {0x1'0000'0000ULL - 29, 0xffff'ffffULL}) {
    frames.push_back(open_frame(64 * 1024, 4, mlen, {}));
  }
  for (std::uint64_t mlen : {0x1'0000'0000ULL - 13, 0xffff'ffffULL}) {
    net::Bytes fetch = frame_of(FrameType::kStreamFetch);
    put(fetch, kFuzzSid, 8);
    put(fetch, mlen, 4);
    frames.push_back(fetch);
  }
  net::Bytes abort = frame_of(FrameType::kStreamAbort);
  put(abort, kFuzzSid, 8);
  put(abort, 0xffff'ffffULL, 4);
  abort.push_back(net::Byte{'x'});
  frames.push_back(abort);
  // Refused at the grant: a chunk above the pool's top class, depth 256
  // (the grant's u8 slot count) and depth 0.
  const std::size_t refusals_from = frames.size();
  frames.push_back(open_frame(f.b.pool().max_lease() + 1, 4, 1, {net::Byte{0}}));
  frames.push_back(open_frame(64 * 1024, 256, 1, {net::Byte{0}}));
  frames.push_back(open_frame(64 * 1024, 0, 1, {net::Byte{0}}));
  const std::size_t refusals = frames.size() - refusals_from;

  std::vector<net::Bytes> grants;
  s.spawn(raw_peer(s, f.tb, f.stack, kDst, frames, &grants));
  EXPECT_NO_THROW(s.run_until(sim::seconds(5)));

  ASSERT_EQ(grants.size(), refusals);
  for (const net::Bytes& g : grants) {
    ASSERT_GE(g.size(), 11u);
    EXPECT_EQ(g[0], static_cast<net::Byte>(FrameType::kStreamGrant));
    EXPECT_EQ(g[9], net::Byte{0}) << "grant accepted";
    EXPECT_EQ(g[10], net::Byte{0}) << "refused grant carries slots";
  }
  EXPECT_EQ(opens, 0);
  EXPECT_EQ(fetches, 0);
  EXPECT_EQ(f.b.stats().streams_opened, 0u);

  f.a.stop();
  f.b.stop();
  EXPECT_NO_THROW(s.run_until(sim::seconds(6)));
  expect_balanced(f.b);
}

// ---- Connections: redial, and a stop that lands in the handshake -------------

TEST(StreamConnections, RedialsWhenThePeerHubIsReplaced) {
  Scheduler s;
  Fixture f(s);
  const std::uint64_t nbytes = 512 * 1024;
  Received rx1;
  f.b.listen(kDst, consumer(s, &rx1));
  WriteResult wr1;
  s.spawn(write_task(f.a, kDst, {}, nbytes, &wr1));
  s.run_until(sim::seconds(1));
  EXPECT_EQ(wr1.status, 0) << wr1.error;

  // The listening hub goes away and a new one takes its address: the
  // opener's cached connection is found lost on adopt and dialled afresh.
  f.b.stop();
  StreamHub c(f.tb.host(1), f.tb.sockets(), f.stack, stream_cfg(), PoolConfig{});
  Received rx2;
  c.listen(kDst, consumer(s, &rx2));
  WriteResult wr2;
  s.spawn(write_task(f.a, kDst, {}, nbytes, &wr2));
  s.run_until(sim::seconds(2));

  EXPECT_EQ(wr2.status, 0) << wr2.error;
  EXPECT_TRUE(rx2.finished) << rx2.error;
  EXPECT_TRUE(pattern_ok(rx2.chunks, nbytes, 64 * 1024));
  EXPECT_EQ(f.a.stats().connections_opened, 2u);

  f.a.stop();
  c.stop();
  s.run_until(sim::seconds(3));
  expect_balanced(f.a);
  expect_balanced(f.b);
  expect_balanced(c);
  s.drain_tasks();
}

/// The first microsecond at which `side`'s pool has leased a buffer during
/// a 512 KB open from a to b: the moment that hub posts its control ring,
/// which ends its half of the handshake.
sim::Time ring_posted_at(StreamHub Fixture::* side) {
  Scheduler s;
  Fixture f(s);
  Received rx;
  f.b.listen(kDst, consumer(s, &rx));
  WriteResult wr;
  s.spawn(write_task(f.a, kDst, {}, 512 * 1024, &wr));
  sim::Time t = 0;
  while ((f.*side).pool().stats().acquires == 0 && t < sim::seconds(1)) {
    t += sim::micros(1);
    s.run_until(t);
  }
  return t;
}

Task stop_at(Scheduler& s, sim::Time at, StreamHub& hub) {
  co_await sim::delay(s, at - s.now());
  hub.stop();
}

/// stop() on `side` at every microsecond of the 100 before its control
/// ring is posted, which covers its half of the handshake, with two opens
/// sharing the one dial: once the run is over, neither pool holds a buffer.
void sweep_stop_across_handshake(StreamHub Fixture::* side) {
  const sim::Time posted = ring_posted_at(side);
  ASSERT_LT(posted, sim::seconds(1));
  for (sim::Time at = posted - sim::micros(100); at <= posted; at += sim::micros(1)) {
    Scheduler s;
    Fixture f(s);
    Received rx;
    f.b.listen(kDst, consumer(s, &rx));
    WriteResult wr1, wr2;
    s.spawn(write_task(f.a, kDst, {}, 512 * 1024, &wr1));
    s.spawn(write_task(f.a, kDst, {}, 512 * 1024, &wr2));
    s.spawn(stop_at(s, at, f.*side));
    s.run_until(sim::seconds(10));  // past the grant deadline
    f.a.stop();
    f.b.stop();
    s.run_until(sim::seconds(11));
    const PoolStats& pa = f.a.pool().stats();
    const PoolStats& pb = f.b.pool().stats();
    EXPECT_EQ(pa.acquires, pa.releases) << "opener, stop at " << at << " ns";
    EXPECT_EQ(pb.acquires, pb.releases) << "listener, stop at " << at << " ns";
  }
}

TEST(StreamConnections, ListenerStoppedInTheHandshakeKeepsNoConnection) {
  sweep_stop_across_handshake(&Fixture::b);
}

TEST(StreamConnections, OpenerStoppedInItsDialKeepsNoConnection) {
  sweep_stop_across_handshake(&Fixture::a);
}

}  // namespace
}  // namespace rpcoib::oib::stream
