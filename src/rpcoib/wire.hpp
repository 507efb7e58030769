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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "net/bytes.hpp"
#include "rpc/protocol.hpp"

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

/// What the two ends of an RC connection settle on from the eager
/// thresholds exchanged at bootstrap (`peer` 0 = not advertised, the
/// legacy blob).
struct EagerNegotiation {
  /// min(local, peer): an eager SEND must fit buffers sized by *either*
  /// end's knob.
  std::size_t threshold = 0;
  /// Receive-ring buffer size: it follows the *larger* advertisement, not
  /// the negotiated min — when one side reads as "not advertised", the
  /// other falls back to its own knob and may legally send eager frames up
  /// to that size, so a smaller buffer would overrun.
  std::size_t ring_buf = 0;
  bool mismatch = false;  // both advertised, and they differ
};

inline EagerNegotiation negotiate_eager(std::size_t local, std::uint64_t peer,
                                        std::size_t recv_buf_size) {
  const auto p = static_cast<std::size_t>(peer);
  const std::size_t threshold = p == 0 ? local : std::min(local, p);
  return {threshold, std::max(recv_buf_size, std::max(threshold, p) + 512), p != 0 && p != local};
}

/// kUdCall wrapper: [u8 type][u64 session id, big-endian][inner frame].
inline constexpr std::size_t kUdHeaderBytes = 9;

// ---- Rendezvous control frames ---------------------------------------------
// kCtrlCall/kCtrlResp [u8][u32 rkey][u64 offset][u32 len] and kAck/kNack
// [u8][u32 rkey], integers in host order.

/// Encoded size of a control frame of type `t` (0: not a control type).
inline constexpr std::size_t control_frame_size(FrameType t) {
  switch (t) {
    case FrameType::kCtrlCall:
    case FrameType::kCtrlResp: return 17;
    case FrameType::kAck:
    case FrameType::kNack: return 5;
    default: return 0;
  }
}

/// A control frame's fields; `off` and `len` are 0 for kAck/kNack.
struct Control {
  FrameType type = FrameType::kAck;
  std::uint32_t rkey = 0;
  std::uint64_t off = 0;
  std::uint32_t len = 0;
};

/// Fixed-layout control frame, trivially destructible (safe as a co_await
/// temporary) and copied by post_send at post time.
struct ControlFrame {
  net::Byte bytes[17];
  std::size_t len = 0;

  explicit ControlFrame(const Control& c) : len(control_frame_size(c.type)) {
    bytes[0] = static_cast<net::Byte>(c.type);
    std::memcpy(bytes + 1, &c.rkey, 4);
    if (len == 17) {
      std::memcpy(bytes + 5, &c.off, 8);
      std::memcpy(bytes + 13, &c.len, 4);
    }
  }
  net::ByteSpan span() const { return net::ByteSpan(bytes, len); }
};

/// Parse a received control frame. False (with `c` unspecified) when the
/// frame is not a control type or is shorter than its type's layout.
inline bool parse_control(net::ByteSpan frame, Control& c) {
  if (frame.empty()) return false;
  c.type = static_cast<FrameType>(frame[0]);
  const std::size_t need = control_frame_size(c.type);
  if (need == 0 || frame.size() < need) return false;
  std::memcpy(&c.rkey, frame.data() + 1, 4);
  c.off = 0;
  c.len = 0;
  if (need == 17) {
    std::memcpy(&c.off, frame.data() + 5, 8);
    std::memcpy(&c.len, frame.data() + 13, 4);
  }
  return true;
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
    std::copy(items[i].begin(), items[i].end(), out + off);  // an empty item copies nothing
    off += items[i].size();
  }
}

using rpc::BatchSplit;

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
