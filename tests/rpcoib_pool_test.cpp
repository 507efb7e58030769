// Tests for the two-level history-based buffer pool and the RDMA streams:
// size classes, lease/release invariants, history grow/shrink (message
// size locality), stream re-gets, zero-copy reads.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/engine.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_streams.hpp"
#include "rpcoib/stream/stream.hpp"

namespace rpcoib::oib {
namespace {

using net::Testbed;
using sim::Scheduler;
using sim::Task;

struct PoolFixture {
  explicit PoolFixture(Scheduler& s, PoolConfig cfg = {})
      : tb(s, Testbed::cluster_b()), stack(tb.fabric()), pool(tb.host(0), stack, cfg),
        shadow(pool) {}
  Testbed tb;
  verbs::VerbsStack stack;
  NativeBufferPool pool;
  ShadowPool shadow;
};

Task init_pool(NativeBufferPool& p) { co_await p.initialize(); }

TEST(NativePool, ClassSizesArePowersOfTwoFromMin) {
  Scheduler s;
  PoolFixture f(s);
  EXPECT_EQ(f.pool.class_size_for(1), 512u);
  EXPECT_EQ(f.pool.class_size_for(512), 512u);
  EXPECT_EQ(f.pool.class_size_for(513), 1024u);
  EXPECT_EQ(f.pool.class_size_for(100000), 128u * 1024);
  EXPECT_EQ(f.pool.class_size_for(4u << 20), 4u << 20);
  EXPECT_THROW(f.pool.class_size_for((4u << 20) + 1), std::length_error);
}

TEST(NativePool, InitializePreallocatesAndCostsTime) {
  Scheduler s;
  PoolFixture f(s);
  s.spawn(init_pool(f.pool));
  s.run();
  // Registration of a multi-MB pool is milliseconds of virtual time.
  EXPECT_GT(sim::to_ms(s.now()), 1.0);
  // Warm acquires afterwards all hit the freelist (8 per class).
  std::vector<NativeBuffer*> got;
  for (int i = 0; i < 8; ++i) got.push_back(f.pool.acquire(4096));
  EXPECT_EQ(f.pool.stats().freelist_hits, 8u);
  EXPECT_EQ(f.pool.stats().demand_allocations, 0u);
  for (auto* b : got) f.pool.release(b);
}

TEST(NativePool, ExhaustionFallsBackToDemandAllocation) {
  Scheduler s;
  PoolFixture f(s, PoolConfig{.min_class = 512, .max_class = 4096, .buffers_per_class = 2});
  s.spawn(init_pool(f.pool));
  s.run();
  NativeBuffer* a = f.pool.acquire(512);
  NativeBuffer* b = f.pool.acquire(512);
  NativeBuffer* c = f.pool.acquire(512);  // class dry
  EXPECT_EQ(f.pool.stats().demand_allocations, 1u);
  f.pool.release(a);
  f.pool.release(b);
  f.pool.release(c);
  // The demand-allocated buffer joins the pool: next acquires all hit.
  NativeBuffer* d = f.pool.acquire(512);
  EXPECT_EQ(f.pool.stats().demand_allocations, 1u);
  f.pool.release(d);
}

TEST(NativePool, DoubleReleaseThrows) {
  Scheduler s;
  PoolFixture f(s);
  NativeBuffer* b = f.pool.acquire(512);
  f.pool.release(b);
  EXPECT_THROW(f.pool.release(b), std::logic_error);
}

TEST(NativePool, BuffersAreRegisteredForRdma) {
  Scheduler s;
  PoolFixture f(s);
  NativeBuffer* b = f.pool.acquire(2048);
  EXPECT_GT(b->mr.rkey, 0u);
  // The rkey resolves to the buffer's own memory.
  EXPECT_EQ(f.stack.resolve(b->mr.rkey, 0, 16).data(), b->span.data());
  f.pool.release(b);
}

TEST(ShadowPool, UnknownKeyGetsMinimumClass) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"p", "m"};
  NativeBuffer* b = f.shadow.acquire_for(key);
  EXPECT_EQ(b->span.size(), f.pool.config().min_class);
  f.shadow.release(b);
}

TEST(ShadowPool, HistoryGrowsOnLargerUseAndShrinksOnSmaller) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"mapred.TaskUmbilicalProtocol", "statusUpdate"};
  NativeBuffer* b = f.shadow.acquire_for(key);
  f.shadow.release_for(key, b, 3000);
  EXPECT_EQ(f.shadow.history(key), 4096u);

  // Next acquire uses the learned size.
  b = f.shadow.acquire_for(key);
  EXPECT_EQ(b->span.size(), 4096u);
  f.shadow.release_for(key, b, 3100);  // same class: a history hit
  EXPECT_EQ(f.pool.stats().history_hits, 1u);

  // A much smaller call shrinks the record (bounding footprint).
  b = f.shadow.acquire_for(key);
  f.shadow.release_for(key, b, 100);
  EXPECT_EQ(f.shadow.history(key), 512u);
  EXPECT_EQ(f.pool.stats().history_shrinks, 1u);
}

// Fig. 4's shrink rule, end to end: one oversized call must not pin a
// method's record at the large class forever — a run of small calls walks
// it back down, and subsequent acquires come from the smaller class.
TEST(ShadowPool, RunOfSmallCallsAfterLargeOneShrinksAcquiredClass) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"hdfs.ClientProtocol", "getBlockLocations"};
  // One large call teaches the history a 64 KB class...
  NativeBuffer* b = f.shadow.acquire_for(key);
  f.shadow.release_for(key, b, 60000);
  EXPECT_EQ(f.shadow.history(key), 65536u);

  // ...then a run of small calls. The first release shrinks the record;
  // every acquire after that returns the small class, not the big one.
  const std::uint64_t shrinks_before = f.pool.stats().history_shrinks;
  for (int i = 0; i < 8; ++i) {
    b = f.shadow.acquire_for(key);
    if (i > 0) EXPECT_EQ(b->span.size(), 512u) << "iteration " << i;
    f.shadow.release_for(key, b, 200);
  }
  EXPECT_EQ(f.shadow.history(key), 512u);
  EXPECT_GE(f.pool.stats().history_shrinks, shrinks_before + 1);
  // The small-run steady state is history hits, not repeated shrinking.
  EXPECT_GE(f.pool.stats().history_hits, 7u);
}

TEST(ShadowPool, MessageSizeLocalityYieldsHitsAfterFirstCall) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"hdfs.DatanodeProtocol", "blockReceived"};
  // The paper's observation: ~430-byte messages, call after call.
  for (int i = 0; i < 100; ++i) {
    NativeBuffer* b = f.shadow.acquire_for(key);
    f.shadow.release_for(key, b, 430);
  }
  EXPECT_EQ(f.pool.stats().history_hits, 99u);
  EXPECT_EQ(f.pool.stats().history_misses, 0u);
}

TEST(ShadowPool, IndependentHistoriesPerMethodKey) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey small{"p", "ping"};
  const rpc::MethodKey large{"p", "statusUpdate"};
  NativeBuffer* b = f.shadow.acquire_for(small);
  f.shadow.release_for(small, b, 100);
  b = f.shadow.acquire_for(large);
  f.shadow.release_for(large, b, 5000);
  EXPECT_EQ(f.shadow.history(small), 512u);
  EXPECT_EQ(f.shadow.history(large), 8192u);
}

// --- RDMAOutputStream ------------------------------------------------------

TEST(RdmaStream, WarmPathHasNoRegets) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"p", "m"};
  {
    RDMAOutputStream out(f.tb.host(0).cost(), f.shadow, key);
    net::Bytes payload(3000, net::Byte{1});
    out.write_raw(payload);
    // Cold path: one re-get straight to the fitting class (the pool's
    // size classes subsume the doubling ladder for a single large write).
    EXPECT_EQ(out.regets(), 1u);
    NativeBuffer* b = out.take_buffer();
    out.finish(b);
  }
  {
    RDMAOutputStream out(f.tb.host(0).cost(), f.shadow, key);
    net::Bytes payload(3000, net::Byte{2});
    out.write_raw(payload);
    EXPECT_EQ(out.regets(), 0u);  // history remembered 4096
    NativeBuffer* b = out.take_buffer();
    out.finish(b);
  }
}

TEST(RdmaStream, DataRoundTripsThroughRegisteredBuffer) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"p", "rt"};
  RDMAOutputStream out(f.tb.host(0).cost(), f.shadow, key);
  out.write_u64(0xCAFEBABEDEADBEEFULL);
  out.write_text("locality");
  out.write_vi64(430);
  RDMAInputStream in(f.tb.host(0).cost(), out.data());
  EXPECT_EQ(in.read_u64(), 0xCAFEBABEDEADBEEFULL);
  EXPECT_EQ(in.read_text(), "locality");
  EXPECT_EQ(in.read_vi64(), 430);
  NativeBuffer* b = out.take_buffer();
  out.finish(b);
}

TEST(RdmaStream, AccruedCostFarBelowAlgorithmOne) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"p", "cheap"};
  // Warm the history.
  {
    RDMAOutputStream warm(f.tb.host(0).cost(), f.shadow, key);
    net::Bytes payload(2000, net::Byte{1});
    warm.write_raw(payload);
    NativeBuffer* b = warm.take_buffer();
    warm.finish(b);
  }
  RDMAOutputStream out(f.tb.host(0).cost(), f.shadow, key);
  rpc::DataOutputBuffer alg1(f.tb.host(0).cost());  // 32-byte Hadoop default
  (void)out.take_accrued();
  (void)alg1.take_accrued();
  net::Bytes chunk(4);
  for (int i = 0; i < 500; ++i) {
    out.write_raw(chunk);
    alg1.write_raw(chunk);
  }
  EXPECT_LT(out.take_accrued(), alg1.take_accrued());
  EXPECT_EQ(out.regets(), 0u);
  EXPECT_GE(alg1.stats().mem_adjustments, 6u);
  NativeBuffer* b = out.take_buffer();
  out.finish(b);
}

Task rendezvous_call(rpc::RpcClient& client, net::Address addr, const rpc::MethodKey& key,
                     bool& failed) {
  // 64 KB is far above the eager threshold: the request goes out as a
  // rendezvous descriptor and the pooled source buffer stays leased until
  // the response (or a teardown) releases it.
  rpc::BytesWritable param(net::Bytes(64 * 1024, net::Byte{7}));
  try {
    co_await client.call(addr, key, param, nullptr);
  } catch (const rpc::RpcTransportError&) {
    failed = true;
  }
}

// Regression: fail_all() used to drop PendingCall entries without
// returning their leased rendezvous sources, leaking a pool buffer per
// in-flight large call on connection teardown.
TEST(NativePool, ConnectionTeardownReleasesLeasedRendezvousBuffers) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  RpcEngine engine(tb, oib::EngineConfig{.mode = RpcMode::kRpcoIB});
  const net::Address addr{1, 9400};
  const rpc::MethodKey sink{"test.PoolProtocol", "sink"};
  std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(1), addr);
  server->dispatcher().register_method(
      sink.protocol, sink.method,
      [&tb](rpc::DataInput& in, rpc::DataOutput& out) -> sim::Co<void> {
        rpc::BytesWritable v;
        v.read_fields(in);
        co_await sim::delay(tb.sched(), sim::seconds(5));
        rpc::BooleanWritable(true).write(out);
      });
  server->start();
  std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
  auto* rdma = dynamic_cast<RdmaRpcClient*>(client.get());
  ASSERT_NE(rdma, nullptr);

  bool failed = false;
  s.spawn(rendezvous_call(*client, addr, sink, failed));
  s.run_until(sim::seconds(1));  // handler sleeping, source still leased
  rdma->close_connections();
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(failed);
  const auto& st = rdma->pool().native().stats();
  EXPECT_EQ(st.acquires, st.releases);
  server->stop();
  s.drain_tasks();
}

// Regression: regrow() used to call the uncapped acquire(), so a client
// serializing a huge message could demand-allocate native memory past
// `demand_alloc_cap`. It now routes through try_acquire and surfaces
// exhaustion as PoolExhaustedError (the caller degrades to the socket
// fallback, mirroring the server's rendezvous NACK).
TEST(RdmaStream, RegrowHonorsDemandAllocCap) {
  Scheduler s;
  PoolFixture f(s, PoolConfig{.min_class = 512,
                              .max_class = 4u << 20,
                              .prealloc_max_class = 64u << 10,
                              .buffers_per_class = 2,
                              .demand_alloc_cap = 1});
  s.spawn(init_pool(f.pool));
  s.run();
  const rpc::MethodKey key{"p", "huge"};
  // First large stream: 256 KB class is above prealloc_max_class, so this
  // is the one demand allocation the cap allows. Keep it leased.
  RDMAOutputStream out1(f.tb.host(0).cost(), f.shadow, key);
  net::Bytes big(200 * 1024, net::Byte{1});
  out1.write_raw(big);
  EXPECT_EQ(f.pool.stats().demand_allocations, 1u);

  // Second large stream: freelist dry, cap reached — the re-get must be
  // denied rather than growing registered memory without bound.
  {
    RDMAOutputStream out2(f.tb.host(0).cost(), f.shadow, key);
    net::Bytes bigger(300 * 1024, net::Byte{2});
    EXPECT_THROW(out2.write_raw(bigger), PoolExhaustedError);
  }
  EXPECT_GE(f.pool.stats().demand_denied, 1u);
  EXPECT_EQ(f.pool.stats().demand_allocations, 1u);

  NativeBuffer* b = out1.take_buffer();
  out1.finish(b);
}

// A stream that re-gets through several classes while writing must update
// the method's history exactly once at release (to the final fitting
// class), not once per intermediate re-get.
TEST(ShadowPool, MultiRegetStreamGrowsHistoryOnce) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"p", "chunky"};
  // Teach the history the smallest class first.
  NativeBuffer* seed = f.shadow.acquire_for(key);
  f.shadow.release_for(key, seed, 400);
  ASSERT_EQ(f.shadow.history(key), 512u);

  const std::uint64_t misses_before = f.pool.stats().history_misses;
  RDMAOutputStream out(f.tb.host(0).cost(), f.shadow, key);
  net::Bytes chunk(1024, net::Byte{3});
  for (int i = 0; i < 10; ++i) out.write_raw(chunk);
  EXPECT_GE(out.regets(), 2u);  // walked 512 -> ... -> 16384
  NativeBuffer* b = out.take_buffer();
  out.finish(b);
  EXPECT_EQ(f.pool.stats().history_misses, misses_before + 1);
  EXPECT_EQ(f.shadow.history(key), f.pool.class_size_for(10 * 1024));
}

TEST(RdmaStream, AbandonedStreamReturnsBufferToPool) {
  Scheduler s;
  PoolFixture f(s);
  const rpc::MethodKey key{"p", "abandon"};
  const std::uint64_t releases_before = f.pool.stats().releases;
  {
    RDMAOutputStream out(f.tb.host(0).cost(), f.shadow, key);
    out.write_u32(1);
    // no take_buffer: destructor must release
  }
  EXPECT_EQ(f.pool.stats().releases, releases_before + 1);
}

// RdmaRpcClient and StreamHub register their pools from a task their
// constructors spawn. An owner destroyed before that task first runs, or
// between two of its registrations, must leave the task touching nothing of
// it: the task ends and no frame is left (clean under ASan/LSan).
template <typename Owner>
void destroy_owner_during_pool_init(
    const std::function<std::unique_ptr<Owner>(Testbed&, verbs::VerbsStack&)>& make,
    const std::function<NativeBufferPool&(Owner&)>& pool_of) {
  for (const bool mid_registration : {false, true}) {
    SCOPED_TRACE(mid_registration ? "between registrations" : "before the first run");
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    verbs::VerbsStack stack(tb.fabric());
    std::unique_ptr<Owner> owner = make(tb, stack);
    EXPECT_EQ(s.live_task_count(), 1u);
    if (mid_registration) {
      while (pool_of(*owner).stats().registered_bytes == 0) ASSERT_TRUE(s.step());
      ASSERT_EQ(pool_of(*owner).stats().registered_bytes, PoolConfig{}.min_class);
    }
    owner.reset();
    s.run();
    EXPECT_EQ(s.live_task_count(), 0u);
  }
}

TEST(PoolInit, ClientDestroyedBeforeOrDuringRegistration) {
  destroy_owner_during_pool_init<RdmaRpcClient>(
      [](Testbed& tb, verbs::VerbsStack& stack) {
        return std::make_unique<RdmaRpcClient>(tb.host(0), tb.sockets(), stack);
      },
      [](RdmaRpcClient& c) -> NativeBufferPool& { return c.pool().native(); });
}

TEST(PoolInit, StreamHubDestroyedBeforeOrDuringRegistration) {
  destroy_owner_during_pool_init<stream::StreamHub>(
      [](Testbed& tb, verbs::VerbsStack& stack) {
        return std::make_unique<stream::StreamHub>(tb.host(0), tb.sockets(), stack,
                                                   stream::StreamConfig{}, PoolConfig{});
      },
      [](stream::StreamHub& h) -> NativeBufferPool& { return h.pool(); });
}

}  // namespace
}  // namespace rpcoib::oib
