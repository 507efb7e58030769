// RPCoIB wire protocol.
//
// The hybrid transport from Section III-D: messages at or below the eager
// threshold ride two-sided SEND into pre-posted pooled receive buffers;
// larger messages stay in the sender's registered buffer and a small
// control message tells the peer to RDMA-READ them (rendezvous).
//
// Buffer-content layouts (first byte is the frame type). kCall, kResp and
// the kUdCall header are Java order, written by rpc::DataOutput; every other
// frame is little-endian, its layout stated once as fields() below and run
// by net/frame.hpp.
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
//                 meta: [u8 1][u64 fetch token] | [u8 route != 1][app meta ...]
//   kStreamGrant  [u8][u64 sid][u8 accepted][u8 nslots][(u32 rkey)(u64 off)(u32 len)]*
//   kStreamCredit [u8][u64 sid][u32 seq]
//   kStreamDone   [u8][u64 sid][u8 status]
//   kStreamAbort  [u8][u64 sid][u32 rlen][reason]   - rlen clamped to the bytes present
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
#include <vector>

#include "net/bytes.hpp"
#include "net/frame.hpp"
#include "rpc/protocol.hpp"
#include "verbs/verbs.hpp"

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
  /// Smallest pre-posted receive buffer.
  static constexpr std::size_t kRecvBufSize = 8 * 1024;
  /// Receive buffers pre-posted per queue pair.
  static constexpr int kRecvDepth = 16;
};

/// A pre-posted receive buffer that holds any eager frame of up to
/// `threshold` payload bytes plus headers.
inline std::size_t recv_buf_for(std::size_t threshold) {
  return std::max(WireDefaults::kRecvBufSize, threshold + 512);
}

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
/// kUdCall session id, as rpc::DataOutput lays them out.
inline std::uint64_t read_be64(const net::Byte* p) {
  std::uint64_t v = 0;
  net::FrameReader(net::ByteSpan(p, 8)).be64(v);
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

inline EagerNegotiation negotiate_eager(std::size_t local, std::uint64_t peer) {
  const auto p = static_cast<std::size_t>(peer);
  const std::size_t threshold = p == 0 ? local : std::min(local, p);
  return {threshold, recv_buf_for(std::max(local, p)), p != 0 && p != local};
}

/// kUdCall wrapper: [u8 type][u64 session id, big-endian][inner frame].
inline constexpr std::size_t kUdHeaderBytes = 9;

/// Write the kUdCall header through `out`: the type byte and the session
/// id, one DataOutput field write each. Both UD send paths call this.
inline void write_ud_header(rpc::DataOutput& out, std::uint64_t session) {
  out.write_u8(static_cast<std::uint8_t>(FrameType::kUdCall));
  out.write_u64(session);
}

// ---- Frame layouts --------------------------------------------------------
// Each frame below states its layout once, as fields(); net::FrameWriter
// encodes it and net::FrameReader decodes it (little-endian, total). The
// table at the top of this file is the same layouts, for reading.

/// A rendezvous control frame; `off` and `len` are 0 for kAck/kNack.
struct Control {
  FrameType type = FrameType::kAck;
  std::uint32_t rkey = 0;
  std::uint64_t off = 0;
  std::uint32_t len = 0;
  template <typename IO>
  void fields(IO& io) {
    io.u8(type).u32(rkey);
    if (type == FrameType::kCtrlCall || type == FrameType::kCtrlResp) io.u64(off).u32(len);
  }
};

/// Fixed-layout control frame, trivially destructible (safe as a co_await
/// temporary) and copied by post_send at post time.
struct ControlFrame {
  net::Byte bytes[17];
  std::size_t len;
  explicit ControlFrame(const Control& c) : len(net::write_frame(bytes, c)) {}
  net::ByteSpan span() const { return net::ByteSpan(bytes, len); }
};

/// Parse a received control frame. False (with `c` unspecified) when the
/// frame is not a control type or is shorter than its type's layout;
/// trailing bytes are ignored.
inline bool parse_control(net::ByteSpan frame, Control& c) {
  c = Control{};
  return net::decode_frame(frame, c) && c.type >= FrameType::kCtrlCall &&
         c.type <= FrameType::kNack;
}

// kBatch serves client calls (RC and, behind the kUdCall header, UD) and
// server responses; the one splitter serves every receive path.

/// Fixed kBatch header: type byte + count word.
inline constexpr std::size_t kBatchHeaderBytes = 5;

using rpc::BatchSplit;

/// The kBatch layout, run by both directions over `items`: the sub-frames
/// being encoded (net::Bytes), or the views a split fills (net::ByteSpan).
/// Every bound is checked against the bytes the reader holds, never the
/// wire's own claims; the verdict is only meaningful when reading.
template <typename IO, typename Items>
BatchSplit batch_fields(IO& io, Items& items) {
  auto count = static_cast<std::uint32_t>(items.size());
  if (!io.tag(FrameType::kBatch).u32(count).ok()) return BatchSplit::kTruncated;
  if (count == 0) return BatchSplit::kEmpty;
  IO lens = io;  // the length table; `io` moves on to the sub-frames
  if (!io.pad(4 * std::size_t{count}).ok()) return BatchSplit::kBadCount;
  lens.resize(items, count);
  for (auto& item : items) {
    auto len = static_cast<std::uint32_t>(item.size());
    lens.u32(len);
    if (!io.raw(item, len).ok()) return BatchSplit::kBadLength;
  }
  return io.remaining() == 0 ? BatchSplit::kOk : BatchSplit::kBadLength;
}

/// Encoded size of a kBatch frame carrying `items`.
inline std::size_t batch_frame_size(const std::vector<net::Bytes>& items) {
  net::FrameWriter size;
  batch_fields(size, items);
  return size.size();
}

/// Encode a kBatch frame carrying `items` into `out`, which must hold
/// batch_frame_size(items) bytes.
inline void encode_batch(const std::vector<net::Bytes>& items, net::Byte* out) {
  net::FrameWriter w(net::MutByteSpan(out, batch_frame_size(items)));
  batch_fields(w, items);
}

/// Split a received kBatch frame (frame[0] == kBatch) into views of its
/// sub-frames. `subs` is cleared first and is only meaningful on kOk.
inline BatchSplit split_batch(net::ByteSpan frame, std::vector<net::ByteSpan>& subs) {
  subs.clear();
  net::FrameReader r(frame);
  return batch_fields(r, subs);
}

// ---- Bulk-streaming control frames (src/rpcoib/stream) ---------------------

struct StreamOpenFrame {
  std::uint64_t sid = 0, total = 0;
  std::uint32_t chunk = 0, depth = 0;
  net::ByteSpan meta;  // a StreamRoute
  template <typename IO>
  void fields(IO& io) {
    io.tag(FrameType::kStreamOpen).u64(sid).u64(total).u32(chunk).u32(depth).blob(meta);
  }
};

/// The open's meta, routed by its first byte: a stream opened back to a
/// fetcher carries the fetch token; any other route is an application open
/// whose meta (for the listen() handler) runs to the end.
struct StreamRoute {
  static constexpr std::uint8_t kApp = 0, kFetch = 1;
  std::uint8_t route = kApp;
  std::uint64_t token = 0;  // kFetch
  net::ByteSpan app;        // otherwise
  template <typename IO>
  void fields(IO& io) {
    io.u8(route);
    if (route == kFetch) io.u64(token);
    if (route != kFetch) io.raw(app, io.remaining());
  }
};

struct StreamGrantFrame {
  std::uint64_t sid = 0;
  bool accepted = false;
  std::vector<verbs::RemoteBuffer> slots;  // at most 255
  template <typename IO>
  void fields(IO& io) {
    io.tag(FrameType::kStreamGrant).u64(sid).u8(accepted).list8(
        slots, [](IO& e, verbs::RemoteBuffer& s) { e.u32(s.rkey).u64(s.offset).u32(s.length); });
  }
};

struct StreamCreditFrame {
  std::uint64_t sid = 0;
  std::uint32_t seq = 0;
  template <typename IO> void fields(IO& io) { io.tag(FrameType::kStreamCredit).u64(sid).u32(seq); }
};

struct StreamDoneFrame {
  std::uint64_t sid = 0;
  std::uint8_t status = 0;
  template <typename IO> void fields(IO& io) { io.tag(FrameType::kStreamDone).u64(sid).u8(status); }
};

/// A reason longer than the frame is cut to the bytes present.
struct StreamAbortFrame {
  std::uint64_t sid = 0;
  net::ByteSpan reason;
  template <typename IO>
  void fields(IO& io) {
    auto len = static_cast<std::uint32_t>(reason.size());
    io.tag(FrameType::kStreamAbort).u64(sid).u32(len);
    io.raw(reason, std::min<std::size_t>(len, io.remaining()));
  }
};

struct StreamFetchFrame {
  std::uint64_t token = 0;
  net::ByteSpan meta;
  template <typename IO>
  void fields(IO& io) { io.tag(FrameType::kStreamFetch).u64(token).blob(meta); }
};

/// Every RdmaRpcServer also listens for plain socket RPC at
/// `addr.port + kSocketFallbackPortOffset`; clients whose QP bootstrap
/// exchange fails reroute there (socket-mode fallback). The offset keeps
/// companion listeners clear of all well-known base ports in the tree
/// (8020/8021/50060/60000/60020).
inline constexpr std::uint16_t kSocketFallbackPortOffset = 1000;

}  // namespace rpcoib::oib
