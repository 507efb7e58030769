// Adaptive small-message coalescing (client call batching, server
// response batching).
//
// At high call rates the per-message framework cost — framing, syscall or
// doorbell, receive wakeup — dominates small RPCs, exactly the regime the
// paper's Reader-thread analysis (Section III-D) identifies as the socket
// path's throughput cap. The standard InfiniBand cure is coalescing:
// MPICH2-over-IB aggregates small eager messages, and Ibdxnet's send
// thread batches queued small messages into one work request. Both
// transports here do the same: sub-threshold calls accumulate per
// connection and flush as one multi-call frame when a size/count limit is
// reached or a short linger expires.
//
// The linger is adaptive: each connection tracks an EWMA of the
// inter-append gap, and when arrivals are sparse (gap >= linger) the flush
// happens on the next scheduler tick instead of waiting the full linger —
// a lone caller keeps fig5-latency behavior, while concurrent callers pay
// the linger once and amortize the per-message cost across the batch.
//
// All four batching paths — socket client calls, RPCoIB RC calls, RPCoIB
// UD datagrams and RPCoIB server responses — run one append policy and
// one linger timer, Coalescer<Sink>; each transport supplies only its
// frame limit, linger cap, stop check and flush body through the Sink.
//
// Batching is OFF by default; with it disabled every wire byte is
// identical to the unbatched build.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/bytes.hpp"
#include "rpc/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::rpc {

/// Knobs for small-message coalescing. Applied per client (requests) and
/// per server (responses); the engine sets both from one config.
struct BatchConfig {
  /// Master switch. Off keeps the seed's one-frame-per-call wire format
  /// byte for byte.
  bool enabled = false;
  /// Flush once the buffered payload reaches this many bytes. The RDMA
  /// path additionally clamps to the connection's eager threshold so a
  /// batch frame always fits a pre-posted receive buffer.
  std::size_t max_bytes = 8 * 1024;
  /// Flush once this many calls are buffered.
  std::size_t max_calls = 16;
  /// Longest a buffered call waits for company before the batch flushes.
  /// Sized to cover the phase spread of callers pipelined around a shared
  /// connection (a fraction of the small-call RTT); the adaptive estimator
  /// collapses it to zero when arrivals are sparse. Servers cap their
  /// response-side linger at a quarter of this: responses only need to
  /// cover handler-completion stagger, not caller phase alignment.
  sim::Dur linger = sim::micros(30);
  /// Only messages at or below this size are coalesced; larger ones keep
  /// their own frame (they amortize their framework cost already).
  std::size_t small_threshold = 1024;

  bool batchable(std::size_t msg_bytes) const {
    return enabled && msg_bytes <= small_threshold;
  }
};

/// EWMA estimator of inter-arrival gaps, deciding whether a linger is
/// worth paying: under sparse arrivals (gap >= linger) no company is
/// coming and the answer is zero; under dense arrivals the configured
/// linger buys a multi-message frame. Shared by the client call batcher
/// and the servers' response coalescing.
class LingerEstimator {
 public:
  /// Record one arrival at `now`.
  void note(sim::Time now) {
    if (last_ != 0 && now >= last_) {
      const double gap = static_cast<double>(now - last_);
      // EWMA with alpha 1/4: a few back-to-back arrivals are enough to
      // re-enter lingering mode after an idle spell.
      ewma_gap_ns_ = ewma_gap_ns_ == 0 ? gap : ewma_gap_ns_ * 0.75 + gap * 0.25;
    }
    last_ = now;
  }

  /// The linger the arrival pattern justifies: zero when sparse, the
  /// configured linger when arrivals have been landing closer than it.
  sim::Dur linger(sim::Dur cfg_linger) const {
    if (ewma_gap_ns_ == 0 || ewma_gap_ns_ >= static_cast<double>(cfg_linger)) return 0;
    return cfg_linger;
  }

 private:
  sim::Time last_ = 0;
  double ewma_gap_ns_ = 0;  // EWMA of inter-arrival gaps, nanoseconds
};

/// Per-connection accumulator for sub-threshold messages, shared by both
/// transports. Holds the buffered payloads, decides when the limits force
/// a flush, and runs the adaptive-linger estimator. The owner is
/// responsible for the actual wire format and for arming flush timers;
/// `epoch` invalidates timers armed for batches that already flushed.
class CallBatcher {
 public:
  explicit CallBatcher(const BatchConfig& cfg) : cfg_(cfg) {}

  /// Buffer one serialized message. `now` feeds the inter-arrival EWMA.
  void append(net::Bytes payload, sim::Time now) {
    gaps_.note(now);
    bytes_ += payload.size();
    items_.push_back(std::move(payload));
  }

  /// True once a size/count limit forces an immediate flush.
  bool full() const {
    return items_.size() >= cfg_.max_calls || bytes_ >= cfg_.max_bytes;
  }

  /// Would appending `msg_bytes` more blow `limit_bytes`? (RDMA eager
  /// frames must fit the peer's pre-posted receive buffer.)
  bool would_overflow(std::size_t msg_bytes, std::size_t limit_bytes) const {
    return !items_.empty() && bytes_ + msg_bytes > limit_bytes;
  }

  /// Linger for the batch just opened: zero under sparse arrivals (the
  /// EWMA gap says no company is coming), the configured linger otherwise.
  sim::Dur adaptive_linger() const { return gaps_.linger(cfg_.linger); }

  /// Take the buffered messages for flushing and open a new epoch (stale
  /// flush timers compare their saved epoch and stand down).
  std::vector<net::Bytes> take() {
    ++epoch_;
    bytes_ = 0;
    return std::exchange(items_, {});
  }

  bool empty() const { return items_.empty(); }
  std::size_t count() const { return items_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::uint64_t epoch() const { return epoch_; }
  const BatchConfig& config() const { return cfg_; }

 private:
  BatchConfig cfg_;
  std::vector<net::Bytes> items_;
  std::size_t bytes_ = 0;
  std::uint64_t epoch_ = 0;
  LingerEstimator gaps_;
};

/// Frame byte limit of a Sink that never pre-flushes (socket frames have
/// no receive-buffer bound; only BatchConfig's limits apply).
inline constexpr std::size_t kUnboundedBatch = std::numeric_limits<std::size_t>::max();
/// Linger cap of a Sink that takes the full adaptive linger (the clients).
inline constexpr sim::Dur kUncappedLinger = std::numeric_limits<sim::Dur>::max();

/// The one append policy + linger timer over a CallBatcher, plus the
/// batch's TraceContext (the first traced message parents batch.flush).
///
/// `Sink` is a small copyable handle naming one transport's batch owner.
/// The linger timer holds a copy, so the handle must keep the Coalescer's
/// owner alive (a shared_ptr to the connection). It provides:
///   sim::Scheduler& sched() const
///   std::size_t limit() const       frame byte limit; kUnboundedBatch = none
///   sim::Dur linger_cap() const     ceiling on the adaptive linger
///   bool stopped() const            owner torn down: stand down after a
///                                   suspension
///   RpcStats* flush_stats() const   where batched_calls and the flush
///                                   reasons are counted; null = not counted
///   sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext)
///                                   encode and send one batch frame
template <typename Sink>
class Coalescer {
 public:
  explicit Coalescer(const BatchConfig& cfg) : batcher_(cfg) {}

  /// Buffer one serialized message. A message that would push the open
  /// batch past the sink's limit first flushes it; a batch that reaches a
  /// count/size limit flushes inline; the first message of a batch arms
  /// the adaptive-linger timer.
  sim::Co<void> append(Sink sink, net::Bytes payload, const trace::TraceContext& ctx) {
    const std::size_t limit = sink.limit();
    if (batcher_.would_overflow(payload.size(), limit)) {
      if (RpcStats* st = sink.flush_stats()) ++st->batch_flush_full;
      co_await flush(sink);
      if (sink.stopped()) co_return;
    }
    const bool was_empty = batcher_.empty();
    if (was_empty && ctx.valid()) ctx_ = ctx;
    batcher_.append(std::move(payload), sink.sched().now());
    if (RpcStats* st = sink.flush_stats()) ++st->batched_calls;
    if (batcher_.full() || batcher_.bytes() >= limit) {
      if (RpcStats* st = sink.flush_stats()) ++st->batch_flush_full;
      co_await flush(sink);
    } else if (was_empty) {
      const sim::Dur linger = std::min(batcher_.adaptive_linger(), sink.linger_cap());
      sink.sched().spawn(linger_flush(sink, batcher_.epoch(), linger));
    }
  }

  /// The buffered state (stop-time accounting, idle checks, epochs).
  CallBatcher& batcher() { return batcher_; }

 private:
  /// Hand everything buffered to the sink as one batch. The items are
  /// taken before any suspension, so a concurrent limit-flush can't
  /// double-send them.
  sim::Co<void> flush(Sink sink) {
    if (batcher_.empty()) co_return;
    const trace::TraceContext ctx = std::exchange(ctx_, {});
    std::vector<net::Bytes> items = batcher_.take();
    co_await sink.flush(std::move(items), ctx);
  }

  /// Delayed flush armed per batch. A zero linger still suspends one
  /// scheduler tick, so same-timestamp arrivals coalesce while a lone
  /// message flushes "now". Stands down when the owner stopped or when
  /// `epoch` already flushed (a full() flush beat the timer).
  sim::Task linger_flush(Sink sink, std::uint64_t epoch, sim::Dur linger) {
    co_await sim::delay(sink.sched(), linger);
    if (sink.stopped()) co_return;
    if (batcher_.empty() || batcher_.epoch() != epoch) co_return;
    if (RpcStats* st = sink.flush_stats()) {
      ++(linger > 0 ? st->batch_flush_linger : st->batch_flush_immediate);
    }
    co_await flush(sink);
  }

  CallBatcher batcher_;
  trace::TraceContext ctx_;
};

}  // namespace rpcoib::rpc
