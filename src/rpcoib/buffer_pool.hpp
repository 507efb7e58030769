// JVM-bypass buffer management: the history-based two-level buffer pool
// (paper Section III-B / III-C, Fig. 4).
//
// Level 1 — NativeBufferPool: native (non-JVM-heap) memory arranged in
// power-of-two size classes, pre-allocated and pre-registered for RDMA
// when the RPCoIB library loads, so per-call costs are a freelist pop.
//
// Level 2 — ShadowPool: the JVM-side view. It traces buffer usage history
// per <protocol, method> key and hands out a buffer of the last-seen
// appropriate size for that call kind, exploiting Message Size Locality
// (Fig. 3). On underestimate the output stream re-gets a doubled buffer
// and the history grows; on overestimate the history shrinks, bounding
// memory footprint.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/host.hpp"
#include "net/bytes.hpp"
#include "rpc/protocol.hpp"
#include "rpcoib/wire.hpp"
#include "sim/task.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

/// Thrown by capped acquisition paths (stream regrow under
/// `demand_alloc_cap`) when the pool is dry and the cap is reached.
/// Callers degrade instead of growing native memory without bound: the
/// client routes the call onto its socket-fallback path, the server sheds
/// the call with a retryable busy status.
class PoolExhaustedError : public std::runtime_error {
 public:
  explicit PoolExhaustedError(const std::string& what) : std::runtime_error(what) {}
};

/// One pooled, registered native buffer.
struct NativeBuffer {
  std::unique_ptr<net::Byte[]> storage;  // not value-initialised (see make_buffer)
  net::MutByteSpan span;     // full usable extent
  verbs::MemoryRegion mr;    // pre-registered region covering span
  std::size_t cls = 0;       // size-class index in the owning pool
  bool leased = false;       // debugging guard against double lease/release
};

/// A posted work request's wr_id carries its pooled buffer's address
/// (0 = no buffer attached). Addresses are even, so odd wr_ids stay free
/// for ReadWaiters' READ tokens.
inline std::uint64_t wr_of(NativeBuffer* b) { return reinterpret_cast<std::uint64_t>(b); }
inline NativeBuffer* buf_of(std::uint64_t wr) { return reinterpret_cast<NativeBuffer*>(wr); }

struct PoolConfig {
  std::size_t min_class = 512;        // smallest buffer size
  std::size_t max_class = 4u << 20;   // largest registerable size (4 MB)
  /// Classes above this are not pre-populated (demand-allocated if ever
  /// used); bounds the pool's resident footprint per endpoint.
  std::size_t prealloc_max_class = 64u << 10;
  std::size_t buffers_per_class = 8;  // pre-allocated at load time
  /// Cap on lifetime demand allocations honored by try_acquire (the RPCoIB
  /// server's rendezvous fetch path): once reached, a dry freelist yields
  /// nullptr — the server NACKs instead of growing native memory without
  /// bound. 0 = uncapped (the seed behavior; plain acquire() always is).
  std::size_t demand_alloc_cap = 0;
  /// Shared-receive-queue sizing (RdmaRpcServer): depth of the server-wide
  /// pre-registered receive ring shared by every accepted connection. The
  /// refill task tops it back up from this pool once it falls to a quarter
  /// of this depth. srq_depth 0 selects the legacy per-connection recv
  /// rings (registered receive memory then grows O(connections)).
  std::size_t srq_depth = 64;
  /// RdmaRpcServer: evict connections with no receive activity for this
  /// long (LRU sweep, runs at half the threshold). The client
  /// re-bootstraps transparently on its next call. 0 = never evict.
  sim::Dur srq_idle_evict = 0;
  /// RdmaRpcClient: receive buffers pre-posted per connection.
  std::size_t recv_depth = WireDefaults::kRecvDepth;
};

struct PoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t freelist_hits = 0;
  std::uint64_t demand_allocations = 0;  // pool exhausted: allocate+register on the fly
  std::uint64_t demand_denied = 0;       // try_acquire refused: demand_alloc_cap hit
  std::uint64_t history_hits = 0;        // shadow: history size was sufficient
  std::uint64_t history_misses = 0;      // shadow: stream had to re-get a bigger buffer
  std::uint64_t history_shrinks = 0;
  std::uint64_t registered_bytes = 0;    // native bytes pinned + registered so far
};

/// Level 1: native size-class pool, pre-registered for RDMA.
class NativeBufferPool {
 public:
  NativeBufferPool(cluster::Host& host, verbs::VerbsStack& stack, PoolConfig cfg = {});
  ~NativeBufferPool();
  NativeBufferPool(const NativeBufferPool&) = delete;
  NativeBufferPool& operator=(const NativeBufferPool&) = delete;

  /// Pre-allocate and pre-register every class's buffers, charging the
  /// one-time registration cost (done at library load in the paper).
  /// `extra_size`/`extra_count` pre-provision that many additional buffers
  /// of the class serving `extra_size` — the RPCoIB server passes its SRQ
  /// ring dimensions so the initial fill is covered by load-time
  /// registration instead of counting as demand allocations.
  /// `owner_alive` is the liveness flag of the object holding this pool; it
  /// must outlive the call (the awaiting task holds a token). Once it reads
  /// false, registration stops at its next resume without touching the
  /// pool, which died with its owner.
  sim::Co<void> initialize(std::size_t extra_size = 0, std::size_t extra_count = 0,
                           const bool& owner_alive = kNoOwner);

  /// Smallest-class buffer with capacity >= size. O(1) freelist pop on the
  /// warm path; falls back to demand allocation (charged) if the class ran
  /// dry. `acquire` itself costs a freelist operation, charged by the
  /// stream layer via the returned accrual.
  NativeBuffer* acquire(std::size_t size);

  /// Like acquire(), but honors `demand_alloc_cap`: returns nullptr when
  /// the freelist is dry and the cap on demand allocations is reached.
  /// Graceful-degradation entry point (the server NACKs the rendezvous).
  NativeBuffer* try_acquire(std::size_t size);

  void release(NativeBuffer* buf);
  /// Release a buffer whose rkey a peer may still hold (an unacked
  /// rendezvous source): it is re-keyed first, so a late remote READ fails
  /// instead of reaching the buffer's next lease.
  void release_revoked(NativeBuffer* buf);

  /// Return the buffers behind a drained receive ring's wr_ids —
  /// teardown of posted receives.
  void release_posted(const std::vector<std::uint64_t>& wr_ids) {
    for (const std::uint64_t wr : wr_ids) release(buf_of(wr));
  }

  /// Size of the class that would serve `size`.
  std::size_t class_size_for(std::size_t size) const;
  /// The largest size a lease can serve (the top class); acquire() throws
  /// above it.
  std::size_t max_lease() const { return class_sizes_.back(); }

  const PoolStats& stats() const { return stats_; }
  PoolStats& stats() { return stats_; }
  cluster::Host& host() const { return host_; }
  verbs::ProtectionDomain& pd() { return pd_; }
  const PoolConfig& config() const { return cfg_; }

 private:
  static constexpr bool kNoOwner = true;  // a pool nobody else can destroy mid-call

  std::size_t class_index_for(std::size_t size) const;
  std::unique_ptr<NativeBuffer> make_buffer(std::size_t cls_index);

  cluster::Host& host_;
  verbs::ProtectionDomain pd_;
  PoolConfig cfg_;
  std::vector<std::size_t> class_sizes_;
  // Owned buffers (stable addresses) and per-class freelists of raw ptrs.
  std::vector<std::unique_ptr<NativeBuffer>> owned_;
  std::vector<std::vector<NativeBuffer*>> free_;
  PoolStats stats_;
  bool initialized_ = false;
};

/// Level 2: the shadow pool tracing message-size history per call kind.
class ShadowPool {
 public:
  explicit ShadowPool(NativeBufferPool& native) : native_(native) {}
  ShadowPool(const ShadowPool&) = delete;
  ShadowPool& operator=(const ShadowPool&) = delete;

  /// Buffer sized by the history record for `key` (pool minimum if the
  /// key was never seen).
  NativeBuffer* acquire_for(const rpc::MethodKey& key);

  /// Buffer sized for a known length (receive side: the length arrived in
  /// the control message, so no history is needed).
  NativeBuffer* acquire_sized(std::size_t size) { return native_.acquire(size); }

  /// A buffer holding a copy of `bytes`: a frame copied out of a receive
  /// slot (or split off a batch) so the slot can be reposted at once.
  NativeBuffer* acquire_copy(net::ByteSpan bytes) {
    NativeBuffer* b = native_.acquire(bytes.size());
    std::memcpy(b->span.data(), bytes.data(), bytes.size());
    return b;
  }

  /// Capped variant of acquire_sized (see NativeBufferPool::try_acquire).
  NativeBuffer* try_acquire_sized(std::size_t size) { return native_.try_acquire(size); }

  /// Return a buffer, updating the history for `key` given the bytes the
  /// call actually used (Section III-C's grow/shrink rule).
  void release_for(const rpc::MethodKey& key, NativeBuffer* buf, std::size_t used);

  /// History update alone — used when the buffer must stay leased until a
  /// completion/ack arrives but the final message size is already known.
  void update_history(const rpc::MethodKey& key, std::size_t used);

  void release(NativeBuffer* buf) { native_.release(buf); }

  /// Current history record (0 if absent) — exposed for tests/benches.
  std::size_t history(const rpc::MethodKey& key) const;

  NativeBufferPool& native() { return native_; }

 private:
  NativeBufferPool& native_;
  std::unordered_map<rpc::MethodKey, std::size_t, rpc::MethodKey::Hash> history_;
};

}  // namespace rpcoib::oib
