// RDMAOutputStream / RDMAInputStream (paper Section III-A/III-B, Fig. 2).
//
// Java-IO-compatible streams whose backing storage is a pre-registered
// native buffer from the two-level pool. Serialization writes land
// directly in RDMA-accessible memory: no JVM-heap intermediate, no
// serialize-then-copy, no heap->native copy at send time. When the buffer
// fills, the stream re-gets a doubled buffer from the pool (the warm path
// never does this, thanks to message size locality).
#pragma once

#include <cstring>
#include <string>

#include "rpc/buffers.hpp"
#include "rpc/writable.hpp"
#include "rpcoib/buffer_pool.hpp"

namespace rpcoib::oib {

class RDMAOutputStream final : public rpc::DataOutput {
 public:
  /// Acquires the initial buffer via the shadow pool's history for `key`.
  RDMAOutputStream(const cluster::CostModel& cm, ShadowPool& pool, rpc::MethodKey key)
      : rpc::DataOutput(cm), pool_(pool), key_(std::move(key)) {
    buf_ = pool_.acquire_for(key_);
    // Pool acquire is a freelist pop, amortizing the registration done at
    // library load — orders of magnitude below a JVM allocation.
    accrue(sim::from_us(kAcquireUs));
  }

  ~RDMAOutputStream() override {
    // Streams normally hand the buffer to the transport via take_buffer();
    // if serialization failed mid-way, return it without history update.
    if (buf_ != nullptr) pool_.release(buf_);
  }

  void write_raw(net::ByteSpan bs) override {
    while (count_ + bs.size() > buf_->span.size()) regrow(count_ + bs.size());
    std::memcpy(buf_->span.data() + count_, bs.data(), bs.size());
    accrue(cost_model().direct_copy(bs.size()));
    count_ += bs.size();
  }

  net::ByteSpan data() const { return net::ByteSpan(buf_->span.data(), count_); }
  std::size_t length() const { return count_; }
  const verbs::MemoryRegion& mr() const { return buf_->mr; }

  /// Times the stream had to re-get a larger buffer (the RPCoIB analogue
  /// of Algorithm 1's "memory adjustment"; ~0 on the warm path).
  std::uint64_t regets() const { return regets_; }

  /// Detach the buffer for the transport to own until the call completes.
  /// The caller must eventually `finish()` it back to the pool.
  NativeBuffer* take_buffer() {
    NativeBuffer* b = buf_;
    buf_ = nullptr;
    return b;
  }

  /// Return a taken buffer to the pool, updating the size history.
  void finish(NativeBuffer* b) { pool_.release_for(key_, b, count_); }

  const rpc::MethodKey& key() const { return key_; }

  static constexpr double kAcquireUs = 0.15;

 private:
  void regrow(std::size_t need) {
    // Mid-serialization grows honor demand_alloc_cap exactly like the
    // server's rendezvous fetch: a capped-out pool refuses the re-get
    // instead of expanding registered native memory without bound, and
    // callers degrade (client: socket fallback; server: retryable busy).
    const std::size_t want = std::max(need, buf_->span.size() * 2);
    NativeBuffer* bigger = pool_.try_acquire_sized(want);
    if (bigger == nullptr) {
      throw PoolExhaustedError("buffer pool exhausted re-getting " +
                               std::to_string(want) + " bytes for " + key_.protocol + "." +
                               key_.method);
    }
    std::memcpy(bigger->span.data(), buf_->span.data(), count_);
    accrue(cost_model().direct_copy(count_) + sim::from_us(kAcquireUs));
    pool_.release(buf_);
    buf_ = bigger;
    ++regets_;
  }

  ShadowPool& pool_;
  rpc::MethodKey key_;
  NativeBuffer* buf_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t regets_ = 0;
};

/// Reads directly from a registered native buffer — the receive side of
/// Fig. 2. No per-call heap allocation, no native->heap copy: the paper's
/// Section II-B bottleneck is structurally absent. The reader itself is
/// Hadoop's DataInputBuffer over the buffer's bytes.
using RDMAInputStream = rpc::DataInputBuffer;

}  // namespace rpcoib::oib
