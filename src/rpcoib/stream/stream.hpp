// Pipelined zero-copy bulk streaming (the third transfer mode beside
// eager and rendezvous).
//
// The paper's rendezvous path moves each large payload as one monolithic
// RDMA transfer, so serialization, wire time, and downstream forwarding
// never overlap. This subsystem moves multi-MB payloads as a pipeline of
// fixed-size chunks RDMA-WRITTEN (with immediate data) into a small ring
// of pre-registered receiver buffers, with credit-based flow control:
// chunk k+1 is serialized into a registered staging buffer while chunk k
// is still on the wire, the way MPICH2's pipelined rendezvous keeps the
// NIC busy between registration and send.
//
// Wire protocol (control frames ride two-sided SEND on a dedicated QP;
// chunk data is one-sided RDMA WRITE with immediate):
//   kStreamOpen   [u8][u64 sid][u64 total][u32 chunk][u32 depth][u32 mlen][meta]
//   kStreamGrant  [u8][u64 sid][u8 accepted][u8 nslots][(u32 rkey)(u64 off)(u32 len)]*
//   kStreamCredit [u8][u64 sid][u32 seq]     - receiver done with chunk seq
//   kStreamDone   [u8][u64 sid][u8 status]   - receiver consumed the stream
//   kStreamAbort  [u8][u64 sid][u32 rlen][reason]
//   kStreamFetch  [u8][u64 token][u32 mlen][meta] - role flip: ask the peer
//                                                   to open a stream back
//   chunk data:   RDMA WRITE, imm = (sid & 0xffff) << 16 | (seq & 0xffff)
//
// Chunk data is a net::Payload: real bytes, or {length, seed} for
// write_all's pattern. A pattern is charged every modelled copy but moves
// as its descriptor, through staging, the WRITE and the receive ring; it
// becomes bytes only in Chunk::bytes(), and a relay forwards it unread.
//
// Fallback matrix (the writer degrades to the legacy one-shot path, the
// caller keeps working): payload below min_stream_bytes; staging
// try_acquire denied (PoolConfig::demand_alloc_cap); receiver ring
// try_acquire denied (grant arrives with accepted=0); QP bootstrap
// failure; grant/fetch deadline expiry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "rpc/client_core.hpp"
#include "rpc/stats.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/wire.hpp"
#include "sim/sync.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib::stream {

/// Stream failure surfaced to the application mid-transfer (peer abort,
/// per-chunk deadline expiry, connection loss). DFSClient maps it onto
/// RpcTransportError so the abandonBlock retry path re-drives the block.
class StreamAbortedError : public std::runtime_error {
 public:
  explicit StreamAbortedError(const std::string& what) : std::runtime_error(what) {}
};

struct StreamConfig {
  /// Master switch; off keeps every data path byte-identical to the seed.
  bool enabled = false;
  /// Chunk granularity (stream.chunk_size). One registered buffer class.
  std::size_t chunk_size = 256 * 1024;
  /// Receiver ring slots / writer pipeline depth (stream.ring_depth).
  std::size_t ring_depth = 4;
  /// Payloads below this stay on the legacy one-shot path.
  std::uint64_t min_stream_bytes = 1u << 20;
  /// Per-chunk progress deadline: a writer stalled this long waiting for
  /// credit, or a reader waiting for a chunk, aborts the stream.
  sim::Dur chunk_deadline = sim::seconds(5);
};

/// Well-known stream listener ports (DataNode block ingest, TaskTracker
/// shuffle serving). Clear of 8020/8021/50060/60000/60020 and the +1000
/// socket-fallback companions.
inline constexpr std::uint16_t kHdfsStreamPort = 50010;
inline constexpr std::uint16_t kShuffleStreamPort = 50062;

/// Multi-shot wakeup: signal() releases every current waiter; wait()
/// resumes true on signal, false on timeout. A signal allocates nothing:
/// it wakes the waiter list in place and cancels each waiter's timer.
class Notify {
 public:
  explicit Notify(sim::Scheduler& sched) : waiters_(sched) {}

  void signal() {
    ++signals_;
    waiters_.wake_all();
  }

  struct WaitAwaiter {
    Notify& n;
    sim::Dur timeout;
    std::uint64_t seen = 0;  // signals_ when the wait began

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      seen = n.signals_;
      n.waiters_.add(h, timeout);
    }
    bool await_resume() const noexcept { return n.signals_ != seen; }
  };

  WaitAwaiter wait(sim::Dur timeout) { return WaitAwaiter{*this, timeout}; }

 private:
  sim::TimedWaiters waiters_;
  std::uint64_t signals_ = 0;
};

/// Counting gate with timed acquisition and permanent failure: the
/// writer's credit ledger (peer release -> add) and staging ledger (send
/// completion -> add). fail() wakes every waiter; takes then return false.
class Gate {
 public:
  Gate(sim::Scheduler& sched, std::int64_t initial)
      : count_(initial), notify_(sched) {}

  void add(std::int64_t n = 1) {
    count_ += n;
    notify_.signal();
  }

  void fail() {
    failed_ = true;
    notify_.signal();
  }

  /// Take one unit. `stalled`, when non-null, is set if the take had to
  /// wait (credit-stall accounting). False = failed or deadline expired.
  sim::Co<bool> take(sim::Dur timeout, bool* stalled = nullptr) {
    for (;;) {
      if (failed_) co_return false;
      if (count_ > 0) {
        --count_;
        co_return true;
      }
      if (stalled != nullptr) *stalled = true;
      const bool woke = co_await notify_.wait(timeout);
      if (!woke) co_return false;  // deadline expired
    }
  }

  bool failed() const { return failed_; }
  std::int64_t available() const { return count_; }

 private:
  std::int64_t count_;
  bool failed_ = false;
  Notify notify_;
};

class StreamHub;

/// Per-peer stream connection state (QP + CQ + live stream registries);
/// defined in stream.cpp, opaque to callers.
struct StreamConn;
using StreamConnPtr = std::shared_ptr<StreamConn>;

/// One inbound chunk as it landed in its registered ring slot. `payload`
/// is what the writer sent: a view of the landed bytes, or a pattern that
/// travelled as {length, seed} and so left the slot's old bytes in place.
/// Forward `payload` as-is to relay the chunk; read its content through
/// bytes(), never the slot. Valid until release_chunk(seq) returns the slot
/// to the wire.
class Chunk {
 public:
  std::uint64_t seq = 0;
  net::Payload payload;

  /// The chunk's content, in its ring slot. The first call writes a
  /// pattern payload into the slot; later calls return the same bytes.
  net::ByteSpan bytes() const;

 private:
  friend class StreamReader;
  Chunk(std::uint64_t s, net::Payload p, net::MutByteSpan slot)
      : seq(s), payload(p), slot_(slot) {}

  net::MutByteSpan slot_;  // the first payload.size() bytes of the ring slot
  mutable bool in_slot_ = false;
};

/// What both ends of a stream hold: the hub's pool and stats, the
/// connection, the stream's geometry, its close and failure state, and the
/// registered buffers it returns when it closes (a reader's ring, a
/// writer's staging). `Self` is the end itself: closing drops it from its
/// side's registry on the connection.
template <typename Self>
class StreamEnd {
 public:
  StreamEnd(const StreamEnd&) = delete;
  StreamEnd& operator=(const StreamEnd&) = delete;

  std::uint64_t id() const { return sid_; }
  std::uint64_t total_bytes() const { return total_; }
  std::size_t chunk_size() const { return chunk_size_; }

 protected:
  StreamEnd(StreamHub& hub, StreamConnPtr conn, std::uint64_t sid, std::uint64_t total,
            std::size_t chunk_size);
  /// Closes the end unless finish, abort or close already did.
  ~StreamEnd();

  void bump(std::uint64_t rpc::RpcStats::* counter);
  /// Return the buffers to the pool, drop the end from its connection's
  /// registry, and mark it closed.
  void close_out();

  // The owning hub can die before a detached handler finishes with this
  // end: pool/stats access is gated on the hub's liveness token, and
  // everything else needed post-construction is copied or shared here.
  cluster::Host* host_;
  NativeBufferPool* pool_;
  rpc::RpcStats* stats_;
  std::shared_ptr<bool> hub_alive_;
  sim::Dur deadline_;
  StreamConnPtr conn_;
  std::uint64_t sid_;
  std::uint64_t total_;
  std::size_t chunk_size_;
  std::vector<NativeBuffer*> buffers_;  // reader: ring slots; writer: staging
  bool failed_ = false;  // reader: upstream failure; writer: abort or conn loss
  bool closed_ = false;  // buffers released, unregistered
  std::string fail_reason_;
};

/// Receiving half: advertises the ring, consumes chunks in order, posts a
/// credit per released slot, acks completion with kStreamDone.
class StreamReader : public StreamEnd<StreamReader> {
 public:
  std::uint64_t num_chunks() const {
    return chunk_size_ == 0 ? 0 : (total_ + chunk_size_ - 1) / chunk_size_;
  }
  /// True once the stream failed under us (writer abort / lost QP): the
  /// failure came from upstream, so don't abort back into it.
  bool failed() const { return failed_; }

  /// Next chunk in sequence order (RC delivery keeps chunks ordered).
  /// Throws StreamAbortedError on writer abort, connection loss, or
  /// chunk_deadline expiry (which aborts the stream first).
  sim::Co<Chunk> next_chunk();

  /// Return chunk `seq`'s ring slot to the writer (credit).
  sim::Co<void> release_chunk(std::uint64_t seq);

  /// Ack the fully-consumed stream; releases the ring to the pool.
  sim::Co<void> finish(std::uint8_t status);

  /// Receiver-initiated teardown. Ring slots are held until the writer's
  /// echoed abort (RC-ordered after its last in-flight WRITE) or the
  /// deadline, so no WRITE lands in a recycled buffer.
  sim::Co<void> abort(const std::string& reason);

 private:
  friend class StreamHub;
  friend struct StreamConn;
  StreamReader(StreamHub& hub, StreamConnPtr conn, std::uint64_t sid,
               std::uint64_t total, std::size_t chunk_size);

  void on_chunk(const verbs::WorkCompletion& wc);
  void on_writer_abort(const std::string& reason);
  void on_conn_failed(const std::string& why);

  std::deque<Chunk> arrivals_;
  std::uint64_t arrived_ = 0;
  Notify arrival_;
  Notify echo_;  // writer's abort echo after a reader-initiated abort
  bool echo_seen_ = false;
};

/// Sending half: serializes chunk k+1 into registered staging while chunk
/// k is on the wire, gated by send completions (staging reuse) and peer
/// credits (ring reuse).
class StreamWriter : public StreamEnd<StreamWriter> {
 public:
  /// Send the next chunk (payload.size() <= chunk_size). Charges the
  /// serialization copy + doorbell, then returns at the doorbell — wire
  /// time overlaps the caller's next serialization. Real bytes are copied
  /// into staging; a pattern is charged the same copy but moves as its
  /// descriptor.
  sim::Co<void> write_chunk(net::Payload payload);

  /// Send all `total_bytes()` as pattern chunks: chunk k is
  /// net::Payload::pattern(len, k), integrity-checkable at the reader.
  sim::Co<void> write_all();

  /// Wait for the receiver's kStreamDone (deadline-bounded), drain send
  /// completions, release staging. Returns the receiver's status byte.
  /// Throws StreamAbortedError if the stream failed instead.
  sim::Co<std::uint8_t> close();

  /// Writer-initiated teardown: the abort frame is RC-ordered after every
  /// posted WRITE, so the receiver can free its ring on receipt.
  sim::Co<void> abort(const std::string& reason);

 private:
  friend class StreamHub;
  friend struct StreamConn;
  StreamWriter(StreamHub& hub, StreamConnPtr conn, std::uint64_t sid,
               std::uint64_t total, std::size_t chunk_size);

  void on_grant(bool accepted, std::vector<verbs::RemoteBuffer> slots);
  void on_credit();
  void on_done(std::uint8_t status);
  void on_peer_abort(const std::string& reason);
  void on_send_complete();
  void on_conn_failed(const std::string& why);
  sim::Co<void> drain_and_release();

  std::vector<verbs::RemoteBuffer> slots_;
  Gate staging_gate_;
  Gate credit_gate_;
  sim::SimEvent grant_ev_;
  sim::SimEvent done_ev_;
  Notify completions_;
  bool grant_accepted_ = false;
  std::uint8_t done_status_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t completed_ = 0;
};

extern template class StreamEnd<StreamReader>;
extern template class StreamEnd<StreamWriter>;

using StreamReaderPtr = std::shared_ptr<StreamReader>;
using StreamWriterPtr = std::shared_ptr<StreamWriter>;

/// Per-role endpoint: owns the registered buffer pool, the stream QPs (one
/// per peer, on the shared client connection core), their completion
/// loops, and the optional listener.
/// DFSClient, DataNode, and TaskTracker each hold one when streaming is
/// enabled; everything here is inert when it is not constructed.
class StreamHub {
 public:
  using ConnPtr = StreamConnPtr;

  /// Inbound stream handler: consume the reader fully (next_chunk /
  /// release_chunk / finish, or abort). Spawned per kStreamOpen.
  using OpenHandler = std::function<sim::Task(StreamReaderPtr, net::Bytes)>;
  /// Role-flip handler: serve a kStreamFetch by opening a stream back on
  /// the same connection (open_on). Spawned per fetch.
  using FetchHandler = std::function<sim::Task(ConnPtr, std::uint64_t, net::Bytes)>;

  StreamHub(cluster::Host& host, net::SocketTable& sockets, verbs::VerbsStack& stack,
            StreamConfig cfg, PoolConfig pool_cfg);
  ~StreamHub();
  StreamHub(const StreamHub&) = delete;
  StreamHub& operator=(const StreamHub&) = delete;

  /// Accept inbound streams at `addr`. Without a FetchHandler, fetches
  /// time out at the requester (which falls back to its legacy path).
  void listen(net::Address addr, OpenHandler on_open, FetchHandler on_fetch = nullptr);

  /// True when `nbytes` should take the stream path: enabled, at or above
  /// min_stream_bytes, and within the 16-bit chunk-sequence space.
  bool should_stream(std::uint64_t nbytes) const;

  /// Open a stream of `total_bytes` to `addr`. Returns null on any
  /// fallback condition (counted in stats); the caller takes its legacy
  /// path. `meta` reaches the peer's OpenHandler verbatim.
  sim::Co<StreamWriterPtr> open(net::Address addr, net::Bytes meta,
                                std::uint64_t total_bytes);

  /// Serve a fetch: open a stream on an already-accepted connection,
  /// routing the kStreamOpen to the fetcher waiting on `token`.
  sim::Co<StreamWriterPtr> open_on(ConnPtr conn, std::uint64_t token,
                                   std::uint64_t total_bytes);

  /// Role flip (shuffle): ask the peer at `addr` to stream `meta`-described
  /// data back. Returns null on fallback (no listener, refused, timeout).
  sim::Co<StreamReaderPtr> fetch(net::Address addr, net::Bytes meta);

  /// Abort every active stream and tear down QPs/loops. Idempotent.
  void stop();

  const StreamConfig& config() const { return cfg_; }
  cluster::Host& host() const { return host_; }
  rpc::RpcStats& stats() { return stats_; }
  const rpc::RpcStats& stats() const { return stats_; }
  NativeBufferPool& pool() { return native_; }

 private:
  template <typename Self>
  friend class StreamEnd;

  // The transport's half of the connection core (client_core.hpp).
  friend class rpc::ClientCore<StreamHub, StreamConn>;
  /// Bootstrap the QP over the peer's socket address, post the control
  /// receives and spawn the completion loop. Refused once stopped.
  sim::Co<void> dial(const ConnPtr& conn, net::Address addr);
  /// Reclaim the posted control receives, disconnect, close the CQ.
  void break_link(StreamConn& conn);
  /// The peer went away under an idle connection.
  static const char* link_lost(const StreamConn& conn);
  /// The plane has no sessions, so it counts no reconnects.
  static void note_reconnect(rpc::ReconnectCause) {}

  /// The connection to `addr`, adopted or dialled by the core; null
  /// (counted as a fallback) once stopped or when the dial fails (no
  /// stream listener, a failed bootstrap).
  sim::Co<ConnPtr> outbound(net::Address addr);

  sim::Task init_pool_task();
  sim::Task listener_loop(std::shared_ptr<net::Listener> l);
  sim::Task conn_loop(ConnPtr conn);
  void handle_frame(const ConnPtr& conn, net::ByteSpan frame);
  sim::Task handle_open(ConnPtr conn, std::uint64_t sid, std::uint64_t total,
                        std::uint32_t chunk_size, std::uint32_t depth, net::Bytes meta);
  sim::Task send_frame(ConnPtr conn, net::Bytes frame);
  sim::Co<StreamWriterPtr> open_impl(ConnPtr conn, net::Bytes routed_meta,
                                     std::uint64_t total_bytes);

  cluster::Host& host_;
  net::SocketTable& sockets_;
  verbs::VerbsStack& stack_;
  verbs::ConnectionManager cm_;
  StreamConfig cfg_;
  NativeBufferPool native_;
  sim::SimEvent pool_ready_;
  rpc::RpcStats stats_;
  std::optional<net::Address> listen_addr_;
  OpenHandler on_open_;
  FetchHandler on_fetch_;
  rpc::ClientCore<StreamHub, StreamConn> core_{*this};  // outbound
  std::vector<ConnPtr> accepted_;                       // inbound
  std::uint64_t next_sid_ = 1;
  std::uint64_t next_token_ = 1;
  bool running_ = true;
  /// Cleared by the destructor: detached loops and stream objects that
  /// outlive the hub skip pool/stats access once this goes false.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace rpcoib::oib::stream
