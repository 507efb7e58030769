// Per-<protocol, method> RPC profiling.
//
// Feeds three paper artifacts directly:
//   Table I — avg mem-adjustment count, serialization time, send time per
//             method during a MapReduce job,
//   Fig. 1  — server-side buffer-allocation time vs total receive time,
//   Fig. 3  — per-call-type message-size sequences (size locality).
#pragma once

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
  std::uint64_t steals = 0;          // calls this shard's handlers took from siblings
  std::uint64_t stolen = 0;          // calls sibling handlers took from this shard
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
  std::uint64_t socket_fallbacks = 0;  // RPCoIB calls rerouted to socket mode
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

  /// Server-side fold of per-shard blocks into this server-wide view,
  /// shared by both servers. `blocks` is a range of pointers to reader
  /// shards whose `pipeline` exposes stats() and counters(). Only the
  /// shard-sourced fields are overwritten, rebuilt from scratch so repeated
  /// syncs stay idempotent; anything written directly to this view by
  /// non-shard code (e.g. threshold_mismatches) stays untouched. Returns
  /// the raw aggregate, with its shard list moved out, for transport-only
  /// fields.
  template <typename Shards>
  RpcStats fold_shards(const Shards& blocks) {
    RpcStats agg;
    for (const auto& sh : blocks) {
      const RpcStats& s = sh->pipeline.stats();
      agg.merge_resilience(s);
      agg.calls_handled += s.calls_handled;
      agg.recv_alloc_us.merge(s.recv_alloc_us);
      agg.recv_total_us.merge(s.recv_total_us);
      agg.shards.push_back(sh->pipeline.counters());
    }
    calls_handled = agg.calls_handled;
    calls_shed = agg.calls_shed;
    calls_expired = agg.calls_expired;
    responses_expired = agg.responses_expired;
    dedup_hits = agg.dedup_hits;
    dedup_in_flight = agg.dedup_in_flight;
    dropped_on_stop = agg.dropped_on_stop;
    responses_dropped_on_stop = agg.responses_dropped_on_stop;
    pool_nacks = agg.pool_nacks;
    queue_depth_peak = agg.queue_depth_peak;
    sessions_opened = agg.sessions_opened;
    sessions_expired = agg.sessions_expired;
    sessions_evicted = agg.sessions_evicted;
    sessions_rejected = agg.sessions_rejected;
    session_table_peak = agg.session_table_peak;
    batches_received = agg.batches_received;
    batched_calls_received = agg.batched_calls_received;
    response_batches = agg.response_batches;
    batched_responses = agg.batched_responses;
    recv_alloc_us = agg.recv_alloc_us;
    recv_total_us = agg.recv_total_us;
    shards = std::move(agg.shards);
    return agg;
  }

  void merge_resilience(const RpcStats& o) {
    timeouts += o.timeouts;
    transport_errors += o.transport_errors;
    retries += o.retries;
    socket_fallbacks += o.socket_fallbacks;
    backoff_us.merge(o.backoff_us);
    busy_rejections += o.busy_rejections;
    nack_fallbacks += o.nack_fallbacks;
    calls_shed += o.calls_shed;
    calls_expired += o.calls_expired;
    responses_expired += o.responses_expired;
    dedup_hits += o.dedup_hits;
    dedup_in_flight += o.dedup_in_flight;
    dropped_on_stop += o.dropped_on_stop;
    pool_nacks += o.pool_nacks;
    if (o.queue_depth_peak > queue_depth_peak) queue_depth_peak = o.queue_depth_peak;
    batches_sent += o.batches_sent;
    batched_calls += o.batched_calls;
    batch_flush_full += o.batch_flush_full;
    batch_flush_linger += o.batch_flush_linger;
    batch_flush_immediate += o.batch_flush_immediate;
    batches_received += o.batches_received;
    batched_calls_received += o.batched_calls_received;
    response_batches += o.response_batches;
    batched_responses += o.batched_responses;
    connections_opened += o.connections_opened;
    threshold_mismatches += o.threshold_mismatches;
    reconnects_peer_closed += o.reconnects_peer_closed;
    reconnects_qp_error += o.reconnects_qp_error;
    reconnects_idle_evicted += o.reconnects_idle_evicted;
    reconnects_fault_injected += o.reconnects_fault_injected;
    calls_replayed += o.calls_replayed;
    session_cold_restarts += o.session_cold_restarts;
    sessions_opened += o.sessions_opened;
    sessions_expired += o.sessions_expired;
    sessions_evicted += o.sessions_evicted;
    sessions_rejected += o.sessions_rejected;
    if (o.session_table_peak > session_table_peak) {
      session_table_peak = o.session_table_peak;
    }
    srq_posted += o.srq_posted;
    srq_refills += o.srq_refills;
    srq_rnr_stalls += o.srq_rnr_stalls;
    srq_evictions += o.srq_evictions;
    if (o.recv_ring_bytes_peak > recv_ring_bytes_peak) {
      recv_ring_bytes_peak = o.recv_ring_bytes_peak;
    }
    responses_dropped_on_stop += o.responses_dropped_on_stop;
    ud_datagrams_sent += o.ud_datagrams_sent;
    ud_responses_received += o.ud_responses_received;
    ud_rc_fallbacks += o.ud_rc_fallbacks;
    ud_calls_received += o.ud_calls_received;
    ud_responses_sent += o.ud_responses_sent;
    ud_rx_dropped += o.ud_rx_dropped;
    ud_resp_oversize += o.ud_resp_oversize;
    onesided_reads += o.onesided_reads;
    onesided_misses += o.onesided_misses;
    onesided_conflict_fallbacks += o.onesided_conflict_fallbacks;
    onesided_stale_refreshes += o.onesided_stale_refreshes;
    onesided_fallbacks += o.onesided_fallbacks;
    onesided_published += o.onesided_published;
    onesided_reexports += o.onesided_reexports;
    streams_opened += o.streams_opened;
    stream_chunks += o.stream_chunks;
    stream_bytes += o.stream_bytes;
    stream_credit_stalls += o.stream_credit_stalls;
    stream_fallbacks += o.stream_fallbacks;
    stream_pool_denied += o.stream_pool_denied;
    stream_aborts += o.stream_aborts;
    stream_deadline_expiries += o.stream_deadline_expiries;
    if (o.shards.size() > shards.size()) shards.resize(o.shards.size());
    for (std::size_t i = 0; i < o.shards.size(); ++i) {
      shards[i].conns_assigned += o.shards[i].conns_assigned;
      shards[i].dispatched += o.shards[i].dispatched;
      if (o.shards[i].queued_peak > shards[i].queued_peak) {
        shards[i].queued_peak = o.shards[i].queued_peak;
      }
      shards[i].dropped += o.shards[i].dropped;
      shards[i].steals += o.shards[i].steals;
      shards[i].stolen += o.shards[i].stolen;
    }
  }
};

}  // namespace rpcoib::rpc
