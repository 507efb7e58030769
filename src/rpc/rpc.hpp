// Abstract RPC endpoints.
//
// Everything above the RPC layer (HDFS, MapReduce, HBase) talks to these
// interfaces; whether calls ride the default socket path or RPCoIB is a
// configuration switch (the paper's `rpc.ib.enabled`), so integrated
// experiments can flip transports without touching the components.
#pragma once

#include <functional>
#include <memory>
#include <set>

#include "cluster/host.hpp"
#include "net/socket.hpp"
#include "rpc/batch.hpp"
#include "rpc/overload.hpp"
#include "rpc/protocol.hpp"
#include "rpc/retry.hpp"
#include "rpc/session.hpp"
#include "rpc/stats.hpp"
#include "rpc/writable.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

/// Sink for the one-sided read plane: application servers (NameNode,
/// RegionServer) push the serialized response bytes for an entity here
/// whenever the backing state changes, and the transport exports them to
/// its registered seqlock region. An empty payload retracts the entry
/// (tombstone -> clients miss and fall back to RPC).
class OneSidedPublisher {
 public:
  virtual ~OneSidedPublisher() = default;
  virtual void publish(const std::string& key, net::ByteSpan payload) = 0;
};

/// Canonical region-entry key for a published response: clients and
/// servers must derive it identically for the fast path to hit.
inline std::string onesided_entry_key(const std::string& protocol,
                                      const std::string& method,
                                      const std::string& entity) {
  return protocol + "/" + method + ":" + entity;
}

class RpcClient {
 public:
  virtual ~RpcClient() {
    if (on_destroy_) on_destroy_(stats_);
  }

  /// Observer invoked with the final stats when the client dies (the
  /// engine uses this to keep Table I aggregation safe across short-lived
  /// clients).
  void set_on_destroy(std::function<void(const RpcStats&)> fn) {
    on_destroy_ = std::move(fn);
  }

  /// Invoke `key` on the server at `addr` with `param`; on success the
  /// reply is deserialized into `*response` (pass nullptr to discard).
  /// Throws RemoteException for handler errors, RpcTransportError for
  /// connection failures, RpcTimeoutError when the retry policy's call
  /// timeout expires. With a retry policy set, failed attempts on
  /// idempotent methods are re-issued after an exponential backoff; both
  /// transports run the same loop, implemented over call_attempt().
  sim::Co<void> call(net::Address addr, const MethodKey& key, const Writable& param,
                     Writable* response);

  virtual cluster::Host& host() const = 0;

  void set_retry_policy(RpcRetryPolicy p) { retry_ = std::move(p); }
  const RpcRetryPolicy& retry_policy() const { return retry_; }

  /// Small-message coalescing knobs. Set before the first call; the
  /// default keeps the seed's one-frame-per-call wire format.
  void set_batch(BatchConfig cfg) { batch_ = cfg; }
  const BatchConfig& batch() const { return batch_; }

  /// Durable-session knobs. Set before the first call; the default
  /// (disabled) mints no session id and keeps the wire format
  /// byte-identical to a sessionless build.
  void set_session(SessionConfig cfg) { session_ = cfg; }
  const SessionConfig& session() const { return session_; }

  RpcStats& stats() { return stats_; }
  const RpcStats& stats() const { return stats_; }

 protected:
  /// One transport-level attempt (no retries). The transport honors
  /// retry_policy().call_timeout by failing the attempt with
  /// RpcTimeoutError once the deadline passes. `call_id` is allocated by
  /// call() once per *logical* call, so every attempt of a retried call
  /// carries the same id — the key the server's retry cache dedups on.
  /// `retried` is true on attempts > 0; with sessions enabled the
  /// transport stamps it on the wire (kWireRetryFlag) so the server can
  /// bounce a retry whose session lease already expired.
  virtual sim::Co<void> call_attempt(net::Address addr, const MethodKey& key,
                                     const Writable& param, Writable* response,
                                     std::uint64_t call_id, bool retried) = 0;

  // ---- The transport-independent call steps ------------------------------
  // Both transports (and each RPCoIB plane) run every step of a call except
  // moving its bytes through these, so the two stay operation-for-operation
  // alike: same header bytes, same profile, same timeout, same exceptions.

  /// Write this attempt's call header (protocol.hpp). The deadline is the
  /// retry policy's call timeout from now, and the retry flag rides only
  /// with sessions on (the server bounces an undedupable retry by it), so
  /// the default wire format stays the seed's byte for byte.
  void write_call_header(DataOutput& out, std::uint64_t call_id, bool retried,
                         const MethodKey& key, const trace::TraceContext& ctx);

  /// Profile a call that just went out (the Table I / Fig. 3 feeds) and
  /// count it sent. Returns the method's profile for the total time.
  MethodProfile& record_sent(const MethodKey& key, std::uint64_t mem_adjustments,
                             std::size_t msg_len, sim::Time t_start, sim::Time t_serialized,
                             sim::Time t_sent);

  /// Record one phase of a traced call (serialize, send, deserialize) as an
  /// internal span under `ctx`. Returns its id; 0, recording nothing, when
  /// the call is untraced.
  trace::SpanId trace_phase(trace::TraceCollector* tr, const trace::TraceContext& ctx,
                            const char* name, trace::Category cat, sim::Time t0, sim::Time t1);

  /// Count one coalesced frame sent and, when its batch is traced, record
  /// the batch.flush span from `t0` (the flush's start) to now.
  void note_batch_sent(const trace::TraceContext& ctx, sim::Time t0);

  /// The reply wait under the policy's call timeout (unbounded without
  /// one): resumes true once `done` is set, false if the timeout passed
  /// first — then the transport unregisters the call and throws
  /// timeout_error(). Hoist the result before branching on it (task.hpp).
  sim::SimEvent::BoundedWaitAwaiter await_reply(sim::SimEvent& done) const {
    return done.wait_up_to(retry_.call_timeout);
  }
  RpcTimeoutError timeout_error() const;

  /// Throw what a reply's non-success status byte maps to: kSessionExpired
  /// -> SessionExpiredException (terminal), kBusy -> ServerBusyException
  /// (shed before execution, always retryable), else RemoteException.
  [[noreturn]] static void throw_status(std::uint8_t status, const std::string& msg);

  /// Count one reconnect — a failure detected and the connection torn down
  /// for the next call to re-bootstrap — and emit its kSession span. The
  /// reconnect state itself is the connection core's (client_core.hpp).
  /// No-op with sessions off, so sessionless seeded reports grow no
  /// reconnect rows.
  void note_reconnect(ReconnectCause cause);

  /// The client's stable session id, minted on first use from the host's
  /// seeded RNG (top bit set so it can never collide with a dense
  /// server-side connection id). 0 when the session layer is off — the
  /// handshake then carries no session bytes.
  std::uint64_t session_id(cluster::Host& h) {
    if (!session_.enabled) return 0;
    if (session_id_ == 0) session_id_ = h.rng().next_u64() | (1ULL << 63);
    return session_id_;
  }

  RpcStats stats_;
  RpcRetryPolicy retry_;
  BatchConfig batch_;
  SessionConfig session_;
  std::uint64_t session_id_ = 0;
  std::uint64_t next_call_id_ = 1;
  /// Addresses where at least one call has completed successfully, i.e.
  /// the server has provably opened this client's session. Until then a
  /// session-expired bounce can be the cold-start case (the session's
  /// very first datagram was lost on a lossy path) and call() may resend
  /// as fresh; afterwards the bounce is always terminal.
  std::set<net::Address> session_confirmed_;

 private:
  std::function<void(const RpcStats&)> on_destroy_;
};

class RpcServer {
 public:
  virtual ~RpcServer() = default;

  /// Method registry; populate before start().
  Dispatcher& dispatcher() { return dispatcher_; }

  /// Spawn the server's threads (Listener/Reader/Handlers/Responder).
  virtual void start() = 0;

  /// Tear down: stop accepting, close connections, drain threads. After
  /// stop() the simulation can run to quiescence.
  virtual void stop() = 0;

  /// Server-side counters. Sharded servers fold their per-shard stat
  /// blocks into this view on demand (fold_stats); the per-shard blocks
  /// stay single-writer, only this read path aggregates.
  RpcStats& stats() {
    fold_stats();
    return stats_;
  }
  const RpcStats& stats() const { return const_cast<RpcServer*>(this)->stats(); }

  /// Overload-protection knobs (call-queue bound, retry cache). Set
  /// before start(); the default keeps the seed's unbounded behavior.
  void set_overload(OverloadConfig cfg) { overload_ = cfg; }
  const OverloadConfig& overload() const { return overload_; }

  /// Response-coalescing knobs (mirrors the client's call coalescing).
  /// Set before start(); the default keeps one frame per response.
  void set_batch(BatchConfig cfg) { batch_ = cfg; }
  const BatchConfig& batch() const { return batch_; }

  /// Durable-session knobs (lease, per-shard table cap). Set before
  /// start(); disabled by default.
  void set_session(SessionConfig cfg) { session_ = cfg; }
  const SessionConfig& session() const { return session_; }

  /// The server's one-sided publish sink, or nullptr when the transport
  /// has no exported region (socket servers, onesided.enabled=false).
  /// Application servers gate their publish calls on this.
  virtual OneSidedPublisher* onesided() { return nullptr; }

 protected:
  virtual void fold_stats() {}

  Dispatcher dispatcher_;
  RpcStats stats_;
  OverloadConfig overload_;
  BatchConfig batch_;
  SessionConfig session_;
};

}  // namespace rpcoib::rpc
