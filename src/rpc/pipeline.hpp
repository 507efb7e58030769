// Transport-independent per-shard call pipeline.
//
// Both servers used to carry a private copy of the same receive-side
// chain: admission gate (decide / shed-newest / evict-oldest), enqueue
// accounting, dequeue pairing, deadline bookkeeping, session leases, the
// exactly-once gate for retried attempts and stop()-time drain. With the
// server sharded (server.shards), each reader shard instantiates one
// CallPipeline over its own call queue, its own AdmissionController/
// RetryCache/SessionTable and its own stats block, so shards never share
// mutable state — the single-writer discipline the shard.* counters
// document.
//
// The pipeline also runs the dequeue gate and the admission-shed answer
// (leave_queue, pass_gate, shed) with their trace spans, written over a
// two-call channel each server implements:
//   send_status(call, id, status, msg) — a status-only response;
//   send_frame(call, frame)            — an already-framed response.
// The transport keeps what is genuinely transport-specific: frame
// parsing, response framing, invocation and buffer ownership.
//
// `Call` must expose `sim::Time enqueued` and `sim::Time recv_start`
// members; the protocol string used for per-protocol admission quotas is
// extracted through the functor passed at construction (the two
// transports store it differently).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/host.hpp"
#include "rpc/overload.hpp"
#include "rpc/protocol.hpp"
#include "rpc/session.hpp"
#include "rpc/stats.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

template <typename Call>
class CallPipeline {
 public:
  using ProtocolFn = std::function<const std::string&(const Call&)>;

  /// Exactly-once verdict for a dequeued call (see decide()).
  struct Verdict {
    enum Kind {
      kExecute,        // run the handler, then complete()
      kReplay,         // already executed: re-send *frame
      kDropInFlight,   // first attempt still executing: drop this one
      kRejectSession,  // retry cannot be deduplicated: terminal session-expired
    };
    Kind kind = kExecute;
    const net::Bytes* frame = nullptr;  // kReplay only; valid until the next cache mutation
  };

  CallPipeline(sim::Scheduler& sched, std::uint32_t shard_id, const OverloadConfig& cfg,
               const SessionConfig& session, ProtocolFn protocol_of)
      : shard_id_(shard_id),
        queue_(std::make_unique<sim::Channel<Call>>(sched)),
        protocol_of_(std::move(protocol_of)),
        sessions_enabled_(session.enabled),
        sessions_(session) {
    if (cfg.admission_enabled()) admission_ = std::make_unique<AdmissionController>(cfg);
    if (cfg.cache_enabled()) {
      retry_cache_ = std::make_unique<RetryCache>(cfg.retry_cache_entries);
    }
  }

  std::uint32_t shard_id() const { return shard_id_; }

  /// True when the OverloadConfig turned the admission gate on (transports
  /// skip admission-only work like header pre-parsing otherwise).
  bool admission_enabled() const { return admission_ != nullptr; }

  /// The handler's dequeue step, awaited directly (no coroutine frame per
  /// call): the queue's recv() paired with note_dequeued(). Throws
  /// sim::ChannelClosed like recv().
  struct Dequeue {
    CallPipeline& pipeline;
    typename sim::Channel<Call>::RecvAwaiter recv;
    bool await_ready() { return recv.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { recv.await_suspend(h); }
    Call await_resume() {
      Call call = recv.await_resume();
      pipeline.note_dequeued(call);
      return call;
    }
  };
  Dequeue dequeue() { return {*this, queue_->recv()}; }

  /// The admission step for one arrival: the admission policy's decision,
  /// then the eviction it may ask for. Returns the call the transport must
  /// answer busy before anything else, or nullptr:
  ///  * `&call` — the arrival is shed; drop it after answering;
  ///  * `&victim` — the queue head was evicted into `victim` (the policy
  ///    keeps the bound at every instant); answer it, then push() `call`;
  ///  * nullptr — push() `call`.
  /// The transport answers and pushes itself, so its own busy-response
  /// work (and any suspension in it) keeps its place before the push.
  Call* admit(Call& call, Call& victim) {
    if (!admission_) return nullptr;
    switch (admission_->decide(queue_->size(), protocol_of_(call))) {
      case AdmissionController::Decision::kShedNewest: return &call;
      case AdmissionController::Decision::kShedOldest:
        // The eviction can only miss when every queued call is already
        // claimed by a waking handler; then the arrival is shed instead.
        if (!try_take(victim)) return &call;
        return &victim;
      case AdmissionController::Decision::kAdmit: break;
    }
    return nullptr;
  }

  /// Admit `call` into the shard queue: stamps `enqueued`, pairs the
  /// admission accounting and tracks the depth high-water mark.
  void push(Call call, sim::Time now) {
    call.enqueued = now;
    if (admission_) admission_->on_enqueue(protocol_of_(call));
    queue_->push(std::move(call));
    ++counters_.dispatched;
    if (queue_->size() > stats_.queue_depth_peak) {
      stats_.queue_depth_peak = queue_->size();
    }
    if (stats_.queue_depth_peak > counters_.queued_peak) {
      counters_.queued_peak = stats_.queue_depth_peak;
    }
  }

  /// Pair a blocking queue().recv() with the admission accounting.
  void note_dequeued(const Call& call) {
    if (admission_) admission_->on_dequeue(protocol_of_(call));
  }

  /// Non-blocking dequeue with the same pairing (the evict-oldest path).
  bool try_take(Call& out) {
    if (!queue_->try_recv(out)) return false;
    if (admission_) admission_->on_dequeue(protocol_of_(out));
    return true;
  }

  /// One call answered busy (admission shed or a capped-out pool).
  void note_shed() {
    ++stats_.calls_shed;
    ++counters_.dropped;
  }

  /// Deadline check at dequeue: true means the caller already gave up and
  /// the call must not cost a handler. Counts calls_expired.
  bool expired_at_dequeue(sim::Time deadline, sim::Time now) {
    if (deadline == 0 || now < deadline) return false;
    ++stats_.calls_expired;
    ++counters_.dropped;
    return true;
  }

  /// Deadline check before sending: true means the handler ran but the
  /// response would be ignored. Counts responses_expired (the call itself
  /// still executed, so it is not a drop).
  bool expired_before_response(sim::Time deadline, sim::Time now) {
    if (deadline == 0 || now < deadline) return false;
    ++stats_.responses_expired;
    return true;
  }

  /// Drain every queued-but-unexecuted call at stop() with admission
  /// pairing and drop accounting; returned so the transport can release
  /// owned resources (pooled buffers) before closing the queue.
  std::vector<Call> drain() {
    std::vector<Call> out;
    Call call;
    while (queue_->try_recv(call)) {
      if (admission_) admission_->on_dequeue(protocol_of_(call));
      out.push_back(std::move(call));
    }
    stats_.dropped_on_stop += out.size();
    counters_.dropped += out.size();
    return out;
  }

  void close() { queue_->close(); }

  /// Lease bookkeeping for one call: renew (or open, unless the call is a
  /// retry) its session and drop retry-cache state for every session the
  /// sweep expired or evicted. `call_id` fences the session's incarnation
  /// when the call opens it. No-op for sessionless calls (sid 0) and with
  /// sessions disabled. Each transport calls this at its own touch point
  /// (socket: arrival, RPCoIB: dequeue) — moving one changes lease timing.
  void touch_session(std::uint64_t sid, bool retried, std::uint64_t call_id, sim::Time now) {
    if (!sessions_enabled_ || sid == 0) return;
    const SessionTable::TouchResult r =
        sessions_.touch(sid, now, /*open_if_missing=*/!retried, call_id);
    if (r.opened) ++stats_.sessions_opened;
    stats_.sessions_expired += r.expired.size();
    stats_.sessions_evicted += r.evicted.size();
    if (sessions_.peak() > stats_.session_table_peak) {
      stats_.session_table_peak = sessions_.peak();
    }
    // A dead session's retry-cache entries go with it — the dedup promise
    // is scoped to the lease, and the space bound depends on the purge.
    if (retry_cache_) {
      for (const std::uint64_t dead : r.expired) retry_cache_->forget_owner(dead);
      for (const std::uint64_t dead : r.evicted) retry_cache_->forget_owner(dead);
    }
  }

  /// The exactly-once gate, run once per dequeued call before any handler
  /// work. `owner` keys the retry cache (session id, else connection id).
  ///
  /// A retried attempt (kWireRetryFlag) on a session is refused with a
  /// terminal kRejectSession when the server cannot prove the first
  /// attempt never executed: (a) the session that would hold its dedup
  /// state is gone (expired or evicted), or (b) the session was re-opened
  /// by a later fresh call (the fence) and this retried id misses the
  /// cache — its state, if any, died with the previous incarnation. A
  /// retryable bounce would merely defer the duplicate until a fresh call
  /// revives the session. Otherwise the retry cache decides: a completed
  /// <owner, call> replays its stored frame, an in-progress one drops the
  /// duplicate (running twice is the one forbidden outcome), and a fresh
  /// one is registered in-progress and executes. Counts sessions_rejected,
  /// dedup_hits and dedup_in_flight. With no cache and a fresh call this
  /// is two branches and no allocation.
  Verdict decide(std::uint64_t owner, std::uint64_t sid, std::uint64_t call_id, bool retried,
                 sim::Time now) {
    if (retried && sid != 0 && sessions_enabled_) {
      const bool undedupable =
          !sessions_.alive(sid, now) ||
          (retry_cache_ != nullptr &&
           retry_cache_->peek(owner, call_id) == RetryCache::State::kFresh &&
           call_id < sessions_.fence(sid));
      if (undedupable) {
        ++stats_.sessions_rejected;
        return {Verdict::kRejectSession};
      }
    }
    if (!retry_cache_) return {};
    switch (retry_cache_->begin(owner, call_id)) {
      case RetryCache::State::kCompleted:
        ++stats_.dedup_hits;
        return {Verdict::kReplay, retry_cache_->completed_frame(owner, call_id)};
      case RetryCache::State::kInProgress:
        ++stats_.dedup_in_flight;
        return {Verdict::kDropInFlight};
      case RetryCache::State::kFresh: break;
    }
    return {};
  }

  /// Record an executed call's response frame for replay — also when the
  /// response itself is dropped for a passed deadline: the executed
  /// outcome must answer the retry that is already on its way.
  void complete(std::uint64_t owner, std::uint64_t call_id, net::ByteSpan frame) {
    if (retry_cache_) {
      retry_cache_->complete(owner, call_id, net::Bytes(frame.begin(), frame.end()));
    }
  }

  /// Forget an in-progress call without an outcome (shed with a retryable
  /// status): the client's retry must execute fresh.
  void forget(std::uint64_t owner, std::uint64_t call_id) {
    if (retry_cache_) retry_cache_->forget(owner, call_id);
  }

  /// The dequeue gate, first half, run on every popped call: a call whose
  /// deadline passed while it was queued is dropped with a
  /// deadline.expired span (the caller gave up; nobody reads an answer),
  /// else its queue span is recorded. False means drop. `t_dequeue` is
  /// when the call left the queue; the deadline is judged at now().
  bool leave_queue(cluster::Host& host, const CallHeader& hdr, sim::Time enqueued,
                   sim::Time t_dequeue) {
    trace::TraceCollector* tr = tracer(host, hdr);
    const sim::Time now = host.sched().now();
    if (expired_at_dequeue(hdr.deadline, now)) {
      if (tr != nullptr) {
        tr->add_complete("deadline.expired:" + hdr.key.method, trace::Kind::kServer,
                         trace::Category::kOverload, hdr.ctx, host.id(), enqueued, now);
      }
      return false;
    }
    if (tr != nullptr) {
      tr->add_complete("queue", trace::Kind::kInternal, trace::Category::kQueue, hdr.ctx,
                       host.id(), enqueued, t_dequeue);
    }
    return true;
  }

  /// The dequeue gate, second half: decide() and the answer to each
  /// verdict but execute — a session.rejected span and a terminal
  /// kSessionExpired status, an overload.dedup span and the cached frame,
  /// or nothing for an in-flight duplicate. True means run the handler.
  /// `owner` and `sid` are the call's retry-cache key and session id.
  template <typename Channel>
  sim::Co<bool> pass_gate(cluster::Host& host, Channel& ch, Call& call, const CallHeader& hdr,
                          std::uint64_t owner, std::uint64_t sid, sim::Time t_dequeue) {
    const Verdict verdict = decide(owner, sid, hdr.id, hdr.retried, t_dequeue);
    trace::TraceCollector* tr = tracer(host, hdr);
    if (verdict.kind == Verdict::kRejectSession) {
      if (tr != nullptr) {
        tr->add_complete("session.rejected:" + hdr.key.method, trace::Kind::kServer,
                         trace::Category::kSession, hdr.ctx, host.id(), t_dequeue,
                         host.sched().now());
      }
      const std::string msg = "session expired: retry cannot be deduplicated";
      co_await ch.send_status(call, hdr.id, RpcStatus::kSessionExpired, msg);
      co_return false;
    }
    if (verdict.kind == Verdict::kReplay) {
      if (tr != nullptr) {
        tr->add_complete("overload.dedup:" + hdr.key.method, trace::Kind::kServer,
                         trace::Category::kOverload, hdr.ctx, host.id(), t_dequeue,
                         host.sched().now());
      }
      co_await ch.send_frame(call, *verdict.frame);
      co_return false;
    }
    co_return verdict.kind == Verdict::kExecute;
  }

  /// The answer to a call admit() picked: counted as shed, an
  /// overload.shed span from its enqueue (or arrival) to now, and a
  /// retryable kBusy status.
  template <typename Channel>
  sim::Co<void> shed(cluster::Host& host, Channel& ch, Call& call, const CallHeader& hdr) {
    note_shed();
    if (trace::TraceCollector* tr = tracer(host, hdr)) {
      tr->add_complete("overload.shed:" + hdr.key.method, trace::Kind::kServer,
                       trace::Category::kOverload, hdr.ctx, host.id(),
                       call.enqueued != 0 ? call.enqueued : call.recv_start,
                       host.sched().now());
    }
    const std::string msg = "server busy: call queue full";
    co_await ch.send_status(call, hdr.id, RpcStatus::kBusy, msg);
  }

  /// This shard's stats block. Only this shard's loops write scalars here;
  /// the server's stats() override folds the blocks into one view.
  RpcStats& stats() { return stats_; }
  const RpcStats& stats() const { return stats_; }
  ShardCounters& counters() { return counters_; }
  const ShardCounters& counters() const { return counters_; }

 private:
  /// The host's collector when tracing is live and the call carries a
  /// context, else nullptr.
  static trace::TraceCollector* tracer(cluster::Host& host, const CallHeader& hdr) {
    return hdr.ctx.valid() ? trace::active(host.tracer()) : nullptr;
  }

  std::uint32_t shard_id_;
  std::unique_ptr<sim::Channel<Call>> queue_;
  ProtocolFn protocol_of_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<RetryCache> retry_cache_;
  bool sessions_enabled_;
  SessionTable sessions_;  // durable-session leases (home shard only)
  RpcStats stats_;
  ShardCounters counters_;
};

/// Handlers on shard `i` when `total` are split across `shards`: an even
/// split, the remainder to the low shards, at least one each. With one
/// shard that is every handler, in the unsharded server's spawn order.
inline int handlers_on_shard(int total, int shards, int i) {
  return std::max(1, total / shards + (i < total % shards ? 1 : 0));
}

}  // namespace rpcoib::rpc
