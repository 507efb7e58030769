// Per-<protocol, method> RPC profiling.
//
// Feeds three paper artifacts directly:
//   Table I — avg mem-adjustment count, serialization time, send time per
//             method during a MapReduce job,
//   Fig. 1  — server-side buffer-allocation time vs total receive time,
//   Fig. 3  — per-call-type message-size sequences (size locality).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "rpc/protocol.hpp"

namespace rpcoib::rpc {

struct MethodProfile {
  metrics::Summary mem_adjustments;  // Algorithm-1 reallocation events per call
  metrics::Summary serialize_us;     // Listing 1 "Serialization" section
  metrics::Summary send_us;          // Listing 1 "Sending" section
  metrics::Summary total_us;         // full round-trip at the caller
  metrics::Summary msg_bytes;        // serialized request size
  std::vector<std::uint32_t> size_sequence;   // per-call sizes (Fig. 3)
  std::uint64_t sequence_dropped = 0;         // sizes not stored due to the cap

  void merge(const MethodProfile& o) {
    mem_adjustments.merge(o.mem_adjustments);
    serialize_us.merge(o.serialize_us);
    send_us.merge(o.send_us);
    total_us.merge(o.total_us);
    msg_bytes.merge(o.msg_bytes);
    size_sequence.insert(size_sequence.end(), o.size_sequence.begin(), o.size_sequence.end());
    sequence_dropped += o.sequence_dropped;
  }
};

/// Per-shard receive/dispatch counters (server.shards). One block per
/// reader shard, written only by that shard's loops (single-writer
/// discipline); RpcServer::stats() snapshots every block into
/// RpcStats::shards so the resilience report can show the shard.* rows.
struct ShardCounters {
  std::uint64_t conns_assigned = 0;  // connections homed on this shard
  std::uint64_t dispatched = 0;      // calls admitted into the shard queue
  std::uint64_t queued_peak = 0;     // shard call-queue high-water mark
  std::uint64_t dropped = 0;         // shed + expired + dropped at stop()

  void merge(const ShardCounters& o) {
    conns_assigned += o.conns_assigned;
    dispatched += o.dispatched;
    queued_peak = std::max(queued_peak, o.queued_peak);
    dropped += o.dropped;
  }
};

struct RpcStats {
  /// When true, every call appends its size to the per-method sequence
  /// (Fig. 3 traces; off by default to bound memory).
  bool record_sequences = false;

  /// Upper bound on stored sizes per method: the first `sequence_cap`
  /// entries are kept verbatim (Fig. 3 plots the head of the trace anyway)
  /// and the rest only counted in `sequence_dropped`. 0 = unlimited.
  std::size_t sequence_cap = 1 << 20;

  /// The one gate for appending to a per-method size sequence.
  void record_size(MethodProfile& p, std::uint32_t bytes) {
    if (!record_sequences) return;
    if (sequence_cap != 0 && p.size_sequence.size() >= sequence_cap) {
      ++p.sequence_dropped;
      return;
    }
    p.size_sequence.push_back(bytes);
  }

  std::map<MethodKey, MethodProfile> methods;

  // Server-side receive-path decomposition (Fig. 1).
  metrics::Summary recv_alloc_us;
  metrics::Summary recv_total_us;

  std::uint64_t calls_sent = 0;
  std::uint64_t calls_handled = 0;

  // Resilience counters (fault injection / retry policy).
  std::uint64_t timeouts = 0;          // attempts that hit call_timeout
  std::uint64_t transport_errors = 0;  // attempts that died on the transport
  std::uint64_t retries = 0;           // re-issued attempts
  std::uint64_t socket_reroutes = 0;   // RPCoIB calls rerouted to socket mode
  metrics::Summary backoff_us;         // backoff waits between attempts

  // Overload-protection counters. Client side:
  std::uint64_t busy_rejections = 0;  // attempts shed by the server (busy status)
  std::uint64_t nack_fallbacks = 0;   // rendezvous NACKed -> retried on socket path
  // Server side:
  std::uint64_t calls_shed = 0;         // admission control rejected the call
  std::uint64_t calls_expired = 0;      // dropped at dequeue: deadline already passed
  std::uint64_t responses_expired = 0;  // executed, but the deadline passed before send
  std::uint64_t dedup_hits = 0;         // retry cache answered with a stored response
  std::uint64_t dedup_in_flight = 0;    // duplicate dropped; first attempt still running
  std::uint64_t dropped_on_stop = 0;    // queued calls failed at stop()
  std::uint64_t pool_nacks = 0;         // rendezvous NACKed: demand-allocation cap hit
  std::uint64_t queue_depth_peak = 0;   // call-queue high-water mark

  // Small-message coalescing counters (rpc::BatchConfig). Client side:
  std::uint64_t batches_sent = 0;         // multi-call frames put on the wire
  std::uint64_t batched_calls = 0;        // calls that rode a batch frame
  std::uint64_t batch_flush_full = 0;     // flushes forced by max_calls/max_bytes
  std::uint64_t batch_flush_linger = 0;   // flushes when the linger expired
  std::uint64_t batch_flush_immediate = 0;  // zero-linger flushes (sparse arrivals)
  // Server side:
  std::uint64_t batches_received = 0;       // multi-call frames parsed
  std::uint64_t batched_calls_received = 0; // calls unpacked from batch frames
  std::uint64_t response_batches = 0;       // multi-response frames sent back
  std::uint64_t batched_responses = 0;      // responses that rode a batch frame

  // Transport bookkeeping (reconnects and the eager-threshold handshake).
  std::uint64_t connections_opened = 0;     // transport connections established
  std::uint64_t threshold_mismatches = 0;   // bootstrap saw local != peer eager threshold

  // Reconnect recovery state machine (client side, split by detection
  // cause — see rpc::ReconnectCause). Each counts one connection torn
  // down and eligible for re-bootstrap + in-flight replay.
  std::uint64_t reconnects_peer_closed = 0;    // EOF / closed by remote
  std::uint64_t reconnects_qp_error = 0;       // verbs post failed mid-call
  std::uint64_t reconnects_idle_evicted = 0;   // stale QP found on reuse
  std::uint64_t reconnects_fault_injected = 0; // FaultPlan connection kill
  std::uint64_t calls_replayed = 0;            // attempts re-sent after a reconnect
  // Session-expired bounce answered with a *fresh* resend: the session was
  // never confirmed at that address and the bounce arrived within one
  // lease of the first attempt, proving no earlier attempt executed (the
  // UD cold-start case — the session's first datagram was lost).
  std::uint64_t session_cold_restarts = 0;

  // Durable session layer (session.* knobs). Server side, per shard:
  std::uint64_t sessions_opened = 0;      // new session ids admitted
  std::uint64_t sessions_expired = 0;     // idle past the lease, state dropped
  std::uint64_t sessions_evicted = 0;     // LRU-evicted past table_cap
  std::uint64_t sessions_rejected = 0;    // retried call on expired session bounced
  std::uint64_t session_table_peak = 0;   // live-session high-water mark

  // Shared-receive-queue counters (RPCoIB server, srq.* knobs).
  std::uint64_t srq_posted = 0;          // buffers posted to the shared recv ring
  std::uint64_t srq_refills = 0;         // low-watermark refill rounds
  std::uint64_t srq_rnr_stalls = 0;      // arrivals parked while the ring was dry
  std::uint64_t srq_evictions = 0;       // idle connections evicted (LRU sweep)
  std::uint64_t recv_ring_bytes_peak = 0;  // posted recv bytes high-water mark
  std::uint64_t responses_dropped_on_stop = 0;  // finished responses dropped at stop()

  // UD datagram eager-path counters (rpcoib, ud.* knobs). Client side:
  std::uint64_t ud_datagrams_sent = 0;    // kUdCall datagrams put on the wire
  std::uint64_t ud_responses_received = 0;  // kResp datagrams demuxed to a caller
  std::uint64_t ud_rc_fallbacks = 0;      // calls too big for the UD budget -> RC path
  // Server side:
  std::uint64_t ud_calls_received = 0;    // calls unpacked from kUdCall datagrams
  std::uint64_t ud_responses_sent = 0;    // kResp datagrams sent back
  std::uint64_t ud_rx_dropped = 0;        // datagrams silently dropped (ring overrun)
  std::uint64_t ud_resp_oversize = 0;     // responses too big for a datagram, bounced

  // One-sided read-plane counters (rpcoib, onesided.* knobs). Client side:
  std::uint64_t onesided_reads = 0;       // Get/lookup calls served by RDMA READ
  std::uint64_t onesided_misses = 0;      // slot empty / hash mismatch -> RPC
  std::uint64_t onesided_conflict_fallbacks = 0;  // retry budget spent -> RPC
  std::uint64_t onesided_stale_refreshes = 0;  // stale generation, advert re-fetched
  std::uint64_t onesided_fallbacks = 0;   // all READ->RPC degradations, any cause
  // Server side:
  std::uint64_t onesided_published = 0;   // entries published into the region
  std::uint64_t onesided_reexports = 0;   // region growth re-exports (gen bumps)

  // Bulk-streaming counters (rpcoib/stream, stream.* knobs).
  std::uint64_t streams_opened = 0;     // granted streams (writer and reader hubs)
  std::uint64_t stream_chunks = 0;      // chunks RDMA-WRITTEN
  std::uint64_t stream_bytes = 0;       // payload bytes streamed
  std::uint64_t stream_credit_stalls = 0;   // writer waits for ring credit
  std::uint64_t stream_fallbacks = 0;   // open/fetch degraded to the legacy path
  std::uint64_t stream_pool_denied = 0;     // ring/staging try_acquire refusals
  std::uint64_t stream_aborts = 0;      // streams torn down before completion
  std::uint64_t stream_deadline_expiries = 0;  // per-chunk progress deadline hits

  // Per-shard snapshot (server.shards knob); empty on clients and on
  // servers that never synced their shard blocks.
  std::vector<ShardCounters> shards;

  MethodProfile& method(const MethodKey& key) { return methods[key]; }

  /// Adds `o` into this view: every kCounterRows counter (a sum, or a max
  /// for a peak), the backoff and receive-path summaries and the per-shard
  /// blocks. Per-method profiles merge through MethodProfile::merge.
  void merge(const RpcStats& o);

  /// Server-side fold of per-shard blocks into this server-wide view,
  /// shared by both servers. `blocks` is a range of pointers to reader
  /// shards whose `pipeline` exposes stats() and counters(). Every
  /// server-section row is rebuilt from scratch, so repeated syncs stay
  /// idempotent; client-section rows written directly to this view by
  /// non-shard code (e.g. threshold_mismatches) stay untouched.
  template <typename Shards>
  void fold_shards(const Shards& blocks);
};

/// Report group of a counter, in resilience_report's order. kCalls to
/// kStream form the client section; kServer onward the server section,
/// which RpcStats::fold_shards rebuilds from the shards.
enum class CounterGroup : std::uint8_t {
  kCalls,  // followed by the backoff summary rows
  kLink,
  kReconnect,
  kUdClient,
  kOneSidedClient,
  kColdRestart,
  kStream,  // followed by the fault rows
  kServer,
  kUdServer,
  kOneSidedServer,
  kSessions,  // followed by the shard rows
};

/// A gated group prints only when one of its counters is nonzero, so a run
/// that never touched a default-off plane (or never reconnected) renders
/// the same report as a build without it.
constexpr bool gated(CounterGroup g) {
  return g != CounterGroup::kCalls && g != CounterGroup::kLink &&
         g != CounterGroup::kStream && g != CounterGroup::kServer;
}

enum class CounterMerge : bool { kSum, kPeak };

/// One RpcStats counter: its field, report label (nullptr: merged and
/// folded, never printed), report group, and how two values combine.
struct CounterRow {
  std::uint64_t RpcStats::*field;
  const char* label;
  CounterGroup group;
  CounterMerge merge = CounterMerge::kSum;
};

/// The single list of RpcStats counters, in report order within each
/// group. merge, fold_shards and resilience_report all loop over it.
inline constexpr auto kCounterRows = [] {
  using enum CounterGroup;
  using enum CounterMerge;
  using S = RpcStats;
  return std::to_array<CounterRow>({
      {&S::calls_sent, "calls sent", kCalls},
      {&S::timeouts, "timeouts", kCalls},
      {&S::transport_errors, "transport errors", kCalls},
      {&S::retries, "retries", kCalls},
      {&S::socket_reroutes, "socket fallbacks", kCalls},
      {&S::busy_rejections, "busy rejections", kCalls},
      {&S::nack_fallbacks, "nack fallbacks", kCalls},
      {&S::batches_sent, "batches sent", kLink},
      {&S::batched_calls, "batched calls", kLink},
      {&S::batch_flush_full, "batch flushes (full)", kLink},
      {&S::batch_flush_linger, "batch flushes (linger)", kLink},
      {&S::batch_flush_immediate, "batch flushes (immediate)", kLink},
      {&S::connections_opened, "connections opened", kLink},
      {&S::threshold_mismatches, "threshold mismatches", kLink},
      {&S::reconnects_peer_closed, "reconnects (peer closed)", kReconnect},
      {&S::reconnects_qp_error, "reconnects (qp error)", kReconnect},
      {&S::reconnects_idle_evicted, "reconnects (idle evicted)", kReconnect},
      {&S::reconnects_fault_injected, "reconnects (fault injected)", kReconnect},
      {&S::calls_replayed, "calls replayed", kReconnect},
      {&S::ud_datagrams_sent, "ud datagrams sent", kUdClient},
      {&S::ud_responses_received, "ud responses received", kUdClient},
      {&S::ud_rc_fallbacks, "ud rc fallbacks", kUdClient},
      {&S::onesided_reads, "onesided reads", kOneSidedClient},
      {&S::onesided_misses, "onesided misses", kOneSidedClient},
      {&S::onesided_conflict_fallbacks, "onesided conflict fallbacks", kOneSidedClient},
      {&S::onesided_stale_refreshes, "onesided stale refreshes", kOneSidedClient},
      {&S::onesided_fallbacks, "onesided fallbacks", kOneSidedClient},
      {&S::session_cold_restarts, "session cold restarts", kColdRestart},
      {&S::streams_opened, "streams opened", kStream},
      {&S::stream_chunks, "stream chunks", kStream},
      {&S::stream_bytes, "stream bytes", kStream},
      {&S::stream_credit_stalls, "stream credit stalls", kStream},
      {&S::stream_fallbacks, "stream fallbacks", kStream},
      {&S::stream_pool_denied, "stream pool denied", kStream},
      {&S::stream_aborts, "stream aborts", kStream},
      {&S::stream_deadline_expiries, "stream deadline expiries", kStream},
      {&S::calls_handled, nullptr, kServer},
      {&S::calls_shed, "server calls shed", kServer},
      {&S::calls_expired, "server calls expired", kServer},
      {&S::responses_expired, "server responses expired", kServer},
      {&S::dedup_hits, "server dedup hits", kServer},
      {&S::dedup_in_flight, "server dedup in-flight", kServer},
      {&S::dropped_on_stop, "server dropped on stop", kServer},
      {&S::pool_nacks, "server pool nacks", kServer},
      {&S::queue_depth_peak, "server queue depth peak", kServer, kPeak},
      {&S::batches_received, "server batches received", kServer},
      {&S::batched_calls_received, "server batched calls", kServer},
      {&S::response_batches, "server response batches", kServer},
      {&S::batched_responses, "server batched responses", kServer},
      {&S::srq_posted, "server srq posted", kServer},
      {&S::srq_refills, "server srq refills", kServer},
      {&S::srq_rnr_stalls, "server srq rnr stalls", kServer},
      {&S::srq_evictions, "server srq evictions", kServer},
      {&S::recv_ring_bytes_peak, "server recv ring bytes peak", kServer, kPeak},
      {&S::responses_dropped_on_stop, "server responses dropped on stop", kServer},
      {&S::ud_calls_received, "server ud calls received", kUdServer},
      {&S::ud_responses_sent, "server ud responses sent", kUdServer},
      {&S::ud_rx_dropped, "server ud rx dropped", kUdServer},
      {&S::ud_resp_oversize, "server ud oversize responses", kUdServer},
      {&S::onesided_published, "server onesided published", kOneSidedServer},
      {&S::onesided_reexports, "server onesided reexports", kOneSidedServer},
      {&S::sessions_opened, "server sessions opened", kSessions},
      {&S::sessions_expired, "server sessions expired", kSessions},
      {&S::sessions_evicted, "server sessions evicted", kSessions},
      {&S::sessions_rejected, "server session rejections", kSessions},
      {&S::session_table_peak, "server session table peak", kSessions, kPeak},
  });
}();

inline void RpcStats::merge(const RpcStats& o) {
  for (const CounterRow& r : kCounterRows) {
    std::uint64_t& v = this->*r.field;
    v = r.merge == CounterMerge::kPeak ? std::max(v, o.*r.field) : v + o.*r.field;
  }
  backoff_us.merge(o.backoff_us);
  recv_alloc_us.merge(o.recv_alloc_us);
  recv_total_us.merge(o.recv_total_us);
  if (o.shards.size() > shards.size()) shards.resize(o.shards.size());
  for (std::size_t i = 0; i < o.shards.size(); ++i) shards[i].merge(o.shards[i]);
}

template <typename Shards>
void RpcStats::fold_shards(const Shards& blocks) {
  RpcStats agg;
  for (const auto& sh : blocks) {
    agg.merge(sh->pipeline.stats());
    agg.shards.push_back(sh->pipeline.counters());
  }
  for (const CounterRow& r : kCounterRows) {
    if (r.group >= CounterGroup::kServer) this->*r.field = agg.*r.field;
  }
  recv_alloc_us = agg.recv_alloc_us;
  recv_total_us = agg.recv_total_us;
  shards = std::move(agg.shards);
}

}  // namespace rpcoib::rpc
