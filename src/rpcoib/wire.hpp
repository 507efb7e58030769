// RPCoIB wire protocol.
//
// The hybrid transport from Section III-D: messages at or below the eager
// threshold ride two-sided SEND into pre-posted pooled receive buffers;
// larger messages stay in the sender's registered buffer and a small
// control message tells the peer to RDMA-READ them (rendezvous).
//
// Buffer-content layouts (first byte is the frame type):
//   kCall     [u8][u64 id][text protocol][text method][param bytes]
//   kResp     [u8][u64 id][u8 status][value bytes | error text]
//   kCtrlCall [u8][u32 rkey][u64 offset][u32 len]   - fetch a kCall
//   kCtrlResp [u8][u32 rkey][u64 offset][u32 len]   - fetch a kResp
//   kAck      [u8][u32 rkey]                        - rendezvous source may be released
//   kNack     [u8][u32 rkey]                        - rendezvous refused: server pool
//                                                     exhausted (demand-alloc cap); the
//                                                     client retries via the socket path
//   kBatch    [u8][u32 count][u32 len_i x count][sub-frame_i ...]
//                                                   - coalesced eager frames; each
//                                                     sub-frame is a complete kCall or
//                                                     kResp frame (rpc::BatchConfig;
//                                                     never emitted with batching off)
//
// Bulk-streaming control frames (src/rpcoib/stream; ride their own QP,
// chunk data moves by RDMA WRITE with immediate):
//   kStreamOpen   [u8][u64 sid][u64 total][u32 chunk][u32 depth][u32 mlen][meta]
//   kStreamGrant  [u8][u64 sid][u8 accepted][u8 nslots][(u32 rkey)(u64 off)(u32 len)]*
//   kStreamCredit [u8][u64 sid][u32 seq]
//   kStreamDone   [u8][u64 sid][u8 status]
//   kStreamAbort  [u8][u64 sid][u32 rlen][reason]
//   kStreamFetch  [u8][u64 token][u32 mlen][meta]
//
// UD datagram eager path (ud.* knobs; default off):
//   kUdCall   [u8][u64 session][inner frame]      - inner is a complete kCall
//                                                   or kBatch frame; carried in
//                                                   one UD datagram to a server
//                                                   UD endpoint. session=0 means
//                                                   sessionless (dedup keyed by
//                                                   source host instead).
// UD responses are plain kResp frames sent as datagrams back to the
// client's UD endpoint (the GRH supplies the return address, the call id
// in the frame demuxes at the client).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "net/bytes.hpp"

namespace rpcoib::oib {

enum class FrameType : std::uint8_t {
  kCall = 0,
  kResp = 1,
  kCtrlCall = 2,
  kCtrlResp = 3,
  kAck = 4,
  kNack = 5,
  kBatch = 6,
  kStreamOpen = 7,
  kStreamGrant = 8,
  kStreamCredit = 9,
  kStreamDone = 10,
  kStreamAbort = 11,
  kStreamFetch = 12,
  kUdCall = 13,
};

struct WireDefaults {
  /// Eager/rendezvous switch point (tunable, Section III-D).
  static constexpr std::size_t kEagerThreshold = 4 * 1024;
  /// Pre-posted receive buffer size: must hold any eager frame.
  static constexpr std::size_t kRecvBufSize = 8 * 1024;
  /// Receive buffers pre-posted per queue pair.
  static constexpr int kRecvDepth = 16;
};

/// Unreliable-datagram eager path (ud.* knobs). Off by default: with
/// enabled=false the RC/SRQ transport is byte-identical to builds without
/// the UD layer. When on, sub-MTU eager calls (and batch frames, clamped
/// to the MTU) ride connectionless UD datagrams into a small fixed pool
/// of server endpoints, so per-client server state stays flat; RC QPs are
/// created only when a rendezvous transfer or stream needs one. UD is
/// lossy — callers must run the session + retry-cache layer
/// (SessionConfig::enabled) for exactly-once delivery under loss.
struct UdConfig {
  bool enabled = false;
  /// Server-side UD endpoint pool size (the paper's "few QPs serve all
  /// clients" scaling argument); endpoint for a call is picked by
  /// hash(session, call id).
  int server_endpoints = 4;
  /// Datagram receive buffers pre-posted per server endpoint.
  int recv_depth = 64;
  /// Datagram receive buffers pre-posted on the client endpoint. Must
  /// cover a burst of near-simultaneous responses: a batched frame can
  /// fan out to BatchConfig::max_calls handlers whose replies land
  /// back-to-back, so the default covers two full batches in flight.
  int client_recv_depth = 32;
};

/// One-sided read plane (onesided.* knobs). Off by default: with
/// enabled=false no region is registered or advertised and the wire (and
/// resilience report) stay byte-identical to builds without the layer.
/// When on, the server exports hot read-mostly state into a versioned,
/// pre-registered region of per-entry seqlock slots; clients resolve
/// eligible Get/lookup calls with RDMA READ against the advertised region
/// and fall back to plain RPC on version conflict, entry miss, or stale
/// generation — correctness never depends on the fast path.
struct OneSidedConfig {
  bool enabled = false;
  /// Direct-mapped slot count in the exported region (entry -> slot by
  /// key hash; a hash-tagged mismatch reads as a miss, never wrong data).
  int slots = 256;
  /// Initial payload capacity per slot, in bytes. An entry that outgrows
  /// it triggers a region re-export at double the capacity (new rkey,
  /// bumped generation; stale READs fail closed on the generation word).
  int slot_payload = 512;
  /// Seqlock conflict retries before the client degrades the call to RPC
  /// (onesided_conflict_fallbacks) — bounds the spin on write-hot keys.
  int max_version_retries = 2;
  /// Publisher write-window, in microseconds: the span a slot stays
  /// odd-versioned while the server copies the new payload in. Models the
  /// store not being atomic; concurrent READs observing the window see an
  /// odd or unequal version pair and retry/fall back.
  std::uint32_t write_window_us = 2;
};

/// Big-endian u64 at `p`: the call id of a kCall/kResp frame and the
/// kUdCall session id, as the stream writers lay them out.
inline std::uint64_t read_be64(const net::Byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

// ---- kBatch codec ---------------------------------------------------------
// [u8 kBatch][u32 count][u32 len_i x count][sub-frame_i ...], integers in
// host order (both ends of the simulated fabric share one). The one
// encoder serves client calls (RC and, behind the kUdCall header, UD) and
// server responses; the one splitter serves every receive path.

/// Fixed kBatch header: type byte + count word.
inline constexpr std::size_t kBatchHeaderBytes = 5;

/// Encoded size of a kBatch frame carrying `items`.
inline std::size_t batch_frame_size(const std::vector<net::Bytes>& items) {
  std::size_t n = kBatchHeaderBytes + 4 * items.size();
  for (const net::Bytes& m : items) n += m.size();
  return n;
}

/// Encode a kBatch frame carrying `items` into `out`, which must hold
/// batch_frame_size(items) bytes.
inline void encode_batch(const std::vector<net::Bytes>& items, net::Byte* out) {
  out[0] = static_cast<net::Byte>(FrameType::kBatch);
  const std::uint32_t count = static_cast<std::uint32_t>(items.size());
  std::memcpy(out + 1, &count, 4);
  std::size_t off = kBatchHeaderBytes + 4 * items.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint32_t len = static_cast<std::uint32_t>(items[i].size());
    std::memcpy(out + kBatchHeaderBytes + 4 * i, &len, 4);
    std::memcpy(out + off, items[i].data(), items[i].size());
    off += items[i].size();
  }
}

/// Outcome of split_batch. Anything but kOk means the frame is dropped.
enum class BatchSplit : std::uint8_t {
  kOk,
  kTruncated,  // shorter than the fixed header
  kEmpty,      // count == 0 (never encoded)
  kBadCount,   // the length table runs past the frame
  kBadLength,  // the sub-frame lengths disagree with the frame's size
};

/// Split a received kBatch frame (frame[0] == kBatch) into views of its
/// sub-frames, every bound checked against `frame.size()` — the received
/// byte count, never the wire's own claims. `subs` is cleared first and
/// is only meaningful on kOk.
inline BatchSplit split_batch(net::ByteSpan frame, std::vector<net::ByteSpan>& subs) {
  subs.clear();
  if (frame.size() < kBatchHeaderBytes) return BatchSplit::kTruncated;
  std::uint32_t count = 0;
  std::memcpy(&count, frame.data() + 1, 4);
  if (count == 0) return BatchSplit::kEmpty;
  if (count > (frame.size() - kBatchHeaderBytes) / 4) return BatchSplit::kBadCount;
  std::size_t off = kBatchHeaderBytes + 4 * static_cast<std::size_t>(count);
  subs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    std::memcpy(&len, frame.data() + kBatchHeaderBytes + 4 * static_cast<std::size_t>(i), 4);
    if (len > frame.size() - off) return BatchSplit::kBadLength;
    subs.push_back(frame.subspan(off, len));
    off += len;
  }
  return off == frame.size() ? BatchSplit::kOk : BatchSplit::kBadLength;
}

/// Every RdmaRpcServer also listens for plain socket RPC at
/// `addr.port + kSocketFallbackPortOffset`; clients whose QP bootstrap
/// exchange fails reroute there (socket-mode fallback). The offset keeps
/// companion listeners clear of all well-known base ports in the tree
/// (8020/8021/50060/60000/60020).
inline constexpr std::uint16_t kSocketFallbackPortOffset = 1000;

}  // namespace rpcoib::oib
