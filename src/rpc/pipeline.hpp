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
// document. The transport keeps what is genuinely transport-specific:
// frame parsing, busy/expired/replay frame encoding, trace-span emission
// and buffer ownership.
//
// `Call` must expose a `sim::Time enqueued` member; the protocol string
// used for per-protocol admission quotas is extracted through the functor
// passed at construction (the two transports store it differently).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rpc/overload.hpp"
#include "rpc/session.hpp"
#include "rpc/stats.hpp"
#include "sim/channel.hpp"
#include "sim/random.hpp"

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
               const SessionConfig& session, ProtocolFn protocol_of, std::uint64_t seed)
      : shard_id_(shard_id),
        queue_(std::make_unique<sim::Channel<Call>>(sched)),
        protocol_of_(std::move(protocol_of)),
        sessions_enabled_(session.enabled),
        sessions_(session),
        rng_(seed) {
    if (cfg.admission_enabled()) admission_ = std::make_unique<AdmissionController>(cfg);
    if (cfg.cache_enabled()) {
      retry_cache_ = std::make_unique<RetryCache>(cfg.retry_cache_entries);
    }
  }

  std::uint32_t shard_id() const { return shard_id_; }

  /// True when the OverloadConfig turned the admission gate on (transports
  /// skip admission-only work like header pre-parsing otherwise).
  bool admission_enabled() const { return admission_ != nullptr; }

  /// The shard's call queue. Handlers block on queue().recv() directly
  /// (no extra coroutine layer) and pair it with note_dequeued().
  sim::Channel<Call>& queue() { return *queue_; }

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

  /// Non-blocking dequeue with the same pairing — the work-stealing path
  /// (a sibling shard's idle handler) and opportunistic local pops.
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

  /// This shard's stats block. Only this shard's loops write scalars here
  /// (plus the stealing exception, which the counters record explicitly);
  /// the server's stats() override folds the blocks into one view.
  RpcStats& stats() { return stats_; }
  const RpcStats& stats() const { return stats_; }
  ShardCounters& counters() { return counters_; }
  const ShardCounters& counters() const { return counters_; }

  /// Deterministic per-shard stream (seeded per shard at construction) for
  /// tie-breaking decisions like the steal-scan start, so shard counts
  /// never perturb a sibling's draws and seeded runs stay byte-identical.
  sim::Rng& rng() { return rng_; }

 private:
  std::uint32_t shard_id_;
  std::unique_ptr<sim::Channel<Call>> queue_;
  ProtocolFn protocol_of_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<RetryCache> retry_cache_;
  bool sessions_enabled_;
  SessionTable sessions_;  // durable-session leases (home shard only)
  RpcStats stats_;
  ShardCounters counters_;
  sim::Rng rng_;
};

/// How often a stealing handler with nothing queued anywhere re-scans the
/// sibling shards. Stealing handlers poll instead of parking on their own
/// queue (a blocked recv never sees a sibling's backlog build), so this
/// bounds both the steal latency and the idle event rate.
inline constexpr sim::Dur kStealPollInterval = sim::micros(100);

/// One work-stealing poll for a handler homed on shard `home`: take the
/// home queue's head, else a sibling's, scanning from a per-shard seeded
/// start so thieves spread over victims. `shards` is a range of pointers
/// to shards with a `pipeline`. Counts steals/stolen; false when every
/// queue is empty.
template <typename Shards, typename Call>
bool take_or_steal(const Shards& shards, std::size_t home, Call& out) {
  auto& mine = shards[home]->pipeline;
  if (mine.try_take(out)) return true;
  const std::size_t start = static_cast<std::size_t>(mine.rng().next_below(shards.size()));
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const std::size_t v = (start + k) % shards.size();
    if (v == home) continue;
    if (shards[v]->pipeline.try_take(out)) {
      ++mine.counters().steals;
      ++shards[v]->pipeline.counters().stolen;
      return true;
    }
  }
  return false;
}

/// The dequeue step for a handler homed on shard `home`, awaited directly
/// (no coroutine frame per call); the call lands in `out`. Without
/// stealing it is the home queue's recv() paired with note_dequeued().
/// Stealing handlers (steal on, more than one shard) poll instead of
/// parking — a blocked recv() would never see a sibling's backlog build —
/// with take_or_steal() now and every kStealPollInterval after, until a
/// call turns up or the home queue closes; then they fall back to recv()
/// for the drain. Throws sim::ChannelClosed like recv().
template <typename Shards, typename Call>
struct Dequeue {
  const Shards& shards;
  std::size_t home;
  bool steal;
  sim::Scheduler& sched;
  Call& out;
  bool polling = false;

  bool await_ready() { return advance(); }
  void await_suspend(std::coroutine_handle<> h) {
    if (!polling) return queue().recv().await_suspend(h);
    sched.call_after(kStealPollInterval, [this, h] {
      if (advance()) {
        h.resume();
      } else {
        await_suspend(h);
      }
    });
  }
  void await_resume() {
    if (polling) return;  // a steal poll took it, already paired
    out = queue().recv().await_resume();
    shards[home]->pipeline.note_dequeued(out);
  }

  sim::Channel<Call>& queue() const { return shards[home]->pipeline.queue(); }
  /// One poll: true when `out` holds a stolen (or local) call, or recv()
  /// can complete without suspending.
  bool advance() {
    polling = steal && shards.size() > 1 && !queue().closed();
    return polling ? take_or_steal(shards, home, out) : queue().recv().await_ready();
  }
};
template <typename Shards, typename Call>
Dequeue(const Shards&, std::size_t, bool, sim::Scheduler&, Call&) -> Dequeue<Shards, Call>;

/// Handlers on shard `i` when `total` are split across `shards`: an even
/// split, the remainder to the low shards, at least one each. With one
/// shard that is every handler, in the unsharded server's spawn order.
inline int handlers_on_shard(int total, int shards, int i) {
  return std::max(1, total / shards + (i < total % shards ? 1 : 0));
}

/// Per-shard seed derivation shared by both transports: a splitmix64-style
/// mix of the server's base seed and the shard index, so every shard owns
/// an independent deterministic stream.
inline std::uint64_t shard_seed(std::uint64_t base, std::uint32_t shard_id) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (shard_id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace rpcoib::rpc
