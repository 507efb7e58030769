// Transport-independent per-shard call pipeline.
//
// Both servers used to carry a private copy of the same receive-side
// chain: the call-queue bound, enqueue accounting, deadline bookkeeping,
// session leases, the exactly-once gate for retried attempts and
// stop()-time drain. With the server sharded (server.shards), each reader
// shard instantiates one CallPipeline over its own call queue, its own
// RetryCache/SessionTable and its own stats block, so shards never share
// mutable state — the single-writer discipline the shard.* counters
// document.
//
// Admission is one number, OverloadConfig::max_call_queue: an arrival
// that finds full() true is shed (Hadoop's bounded call queue drops the
// newest call), everything else is push()ed.
//
// The pipeline also runs the dequeue gate, the shed answer and the
// handler's answer bookkeeping (leave_queue, pass_gate, shed, finish) with
// their trace spans; the gate and the shed answer are written over a
// two-call channel each server implements:
//   send_status(call, id, status, msg) — a status-only response;
//   send_frame(call, frame)            — an already-framed response.
// The transport keeps what is genuinely transport-specific: frame
// parsing, response framing, invocation and buffer ownership.
//
// `Call` must expose `sim::Time enqueued` and `sim::Time recv_start`
// members.
#pragma once

#include <cstdint>
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
               const SessionConfig& session)
      : shard_id_(shard_id),
        queue_(std::make_unique<sim::Channel<Call>>(sched)),
        max_call_queue_(cfg.max_call_queue),
        sessions_enabled_(session.enabled),
        sessions_(session) {
    if (cfg.cache_enabled()) {
      retry_cache_ = std::make_unique<RetryCache>(cfg.retry_cache_entries);
    }
  }

  std::uint32_t shard_id() const { return shard_id_; }

  /// True when the call queue has a bound (transports skip bound-only
  /// work like header pre-parsing otherwise).
  bool bounded() const { return max_call_queue_ > 0; }

  /// True when an arrival must be shed: the queue holds max_call_queue
  /// calls already.
  bool full() const { return bounded() && queue_->size() >= max_call_queue_; }

  /// The handler's dequeue step, awaited directly (no coroutine frame per
  /// call). Throws sim::ChannelClosed like recv().
  typename sim::Channel<Call>::RecvAwaiter dequeue() { return queue_->recv(); }

  /// Admit `call` into the shard queue: stamps `enqueued` and tracks the
  /// depth high-water mark.
  void push(Call call, sim::Time now) {
    call.enqueued = now;
    queue_->push(std::move(call));
    ++counters_.dispatched;
    if (queue_->size() > stats_.queue_depth_peak) {
      stats_.queue_depth_peak = queue_->size();
    }
  }

  /// One call answered busy (a full queue or a capped-out pool).
  void note_shed() { ++stats_.calls_shed; }

  /// Deadline check at dequeue: true means the caller already gave up and
  /// the call must not cost a handler. Counts calls_expired.
  bool expired_at_dequeue(sim::Time deadline, sim::Time now) {
    if (deadline == 0 || now < deadline) return false;
    ++stats_.calls_expired;
    return true;
  }

  /// Drain every queued-but-unexecuted call at stop() with drop
  /// accounting; returned so the transport can release owned resources
  /// (pooled buffers) before closing the queue.
  std::vector<Call> drain() {
    std::vector<Call> out;
    Call call;
    while (queue_->try_recv(call)) out.push_back(std::move(call));
    stats_.dropped_on_stop += out.size();
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

  /// The handler's answer bookkeeping once the method ran. A busy status
  /// (a capped-out pool) forgets the call, so the client's retry executes
  /// fresh, and counts a shed; any other outcome is recorded for replay
  /// with its response `frame`. Then the deadline check: when the caller
  /// already gave up, a deadline.response span marks the unsent response.
  /// True means send the response.
  bool finish(cluster::Host& host, const CallHeader& hdr, std::uint64_t owner, RpcStatus status,
              net::ByteSpan frame) {
    if (status == RpcStatus::kBusy) {
      forget(owner, hdr.id);
      note_shed();
    } else {
      complete(owner, hdr.id, frame);
    }
    const sim::Time now = host.sched().now();
    if (!expired_before_response(hdr.deadline, now)) return true;
    if (trace::TraceCollector* tr = tracer(host, hdr)) {
      tr->add_complete("deadline.response:" + hdr.key.method, trace::Kind::kServer,
                       trace::Category::kOverload, hdr.ctx, host.id(), now, now);
    }
    return false;
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

  /// The answer to an arrival that found the queue full(): counted as
  /// shed, an overload.shed span from its arrival to now, and a retryable
  /// kBusy status.
  template <typename Channel>
  sim::Co<void> shed(cluster::Host& host, Channel& ch, Call& call, const CallHeader& hdr) {
    note_shed();
    if (trace::TraceCollector* tr = tracer(host, hdr)) {
      tr->add_complete("overload.shed:" + hdr.key.method, trace::Kind::kServer,
                       trace::Category::kOverload, hdr.ctx, host.id(),
                       call.recv_start, host.sched().now());
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
  /// Deadline check before sending: true means the handler ran but the
  /// response would be ignored. Counts responses_expired (the call itself
  /// still executed, so it is not a drop).
  bool expired_before_response(sim::Time deadline, sim::Time now) {
    if (deadline == 0 || now < deadline) return false;
    ++stats_.responses_expired;
    return true;
  }

  /// The host's collector when tracing is live and the call carries a
  /// context, else nullptr.
  static trace::TraceCollector* tracer(cluster::Host& host, const CallHeader& hdr) {
    return hdr.ctx.valid() ? trace::active(host.tracer()) : nullptr;
  }

  std::uint32_t shard_id_;
  std::unique_ptr<sim::Channel<Call>> queue_;
  std::size_t max_call_queue_;  // 0 = unbounded
  std::unique_ptr<RetryCache> retry_cache_;
  bool sessions_enabled_;
  SessionTable sessions_;  // durable-session leases (home shard only)
  RpcStats stats_;
  ShardCounters counters_;
};

/// A server receive span named `prefix` + `method` on `ctx`, when tracing
/// is on and the context is valid (the name is built only then): a call's
/// recv:<method> interval, or the batch.parse of a split batch frame.
inline void recv_span(cluster::Host& host, const char* prefix, const std::string& method,
                      const trace::TraceContext& ctx, sim::Time start, sim::Time end) {
  if (!ctx.valid()) return;
  if (trace::TraceCollector* tr = trace::active(host.tracer())) {
    tr->add_complete(prefix + method, trace::Kind::kServer, trace::Category::kRecv, ctx,
                     host.id(), start, end);
  }
}

}  // namespace rpcoib::rpc
