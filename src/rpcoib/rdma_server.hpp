// RPCoIB server (paper Section III-D).
//
// Keeps the default server's thread architecture — Listener, Reader,
// Handler pool, Responder — but the Listener accepts QP bootstrap over the
// socket address, the Reader polls a completion queue for every
// connection, calls arrive in pooled registered buffers (eager) or are
// RDMA-READ in (rendezvous), and responses are serialized straight into
// pooled registered buffers whose size comes from per-method history.
//
// `shards` > 1 replicates the whole receive/dispatch chain: connections
// are homed on the ServerCore's independent shards (by session id, else
// round-robin by dense connection id), each with its own completion
// queue, its own SRQ stripe of the shared receive ring, its own
// CallPipeline (bounded call queue + retry cache) and its own handler
// subset — so CQ polling, the queue bound and dispatch never contend
// across shards. The default of 1 keeps the server
// operation-for-operation identical to the unsharded code.
//
// Lifetime: a coroutine owns what it touches after a suspension. The
// listener loop owns its Listener, every shard loop (and each fetch,
// enqueue and response coroutine) its Shard, and the UD reader and every
// UD call their UdPlane. stop() closes them and never frees one, and
// start() builds a fresh set, so a back-to-back stop(); start() leaves
// the old run's loops to unwind off objects they still own. A closed
// completion queue still delivers the completions of work posted before
// the close, so each posted buffer still returns to the pool.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "rpc/batch.hpp"
#include "rpc/pipeline.hpp"
#include "rpc/rpc.hpp"
#include "rpc/server_core.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/onesided.hpp"
#include "rpcoib/rdma_streams.hpp"
#include "rpcoib/read_waiters.hpp"
#include "rpcoib/wire.hpp"
#include "sim/channel.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

struct RdmaServerConfig {
  int num_handlers = 8;
  /// Reader shards (server.shards). Each shard owns a disjoint set of
  /// connections end to end: CQ, SRQ stripe, call queue, handlers.
  int shards = 1;
  std::size_t eager_threshold = WireDefaults::kEagerThreshold;
  PoolConfig pool{};
  /// Evict connections with no receive activity for this long (LRU sweep,
  /// runs at half the threshold). The client re-bootstraps transparently
  /// on its next call. 0 = never evict.
  sim::Dur srq_idle_evict = 0;
  /// UD datagram eager path (default off): a small fixed pool of
  /// connectionless endpoints serves every client's sub-MTU eager calls,
  /// so per-client server state (QPs, rings) stays flat at any client
  /// count. Advertised on the verbs stack as a UdService at `addr`.
  UdConfig ud{};
  /// One-sided read plane (default off): export hot read-mostly responses
  /// into a registered seqlock region clients fetch with RDMA READ,
  /// advertised on the verbs stack as a OneSidedService at `addr`.
  OneSidedConfig onesided{};
};

class RdmaRpcServer final : public rpc::RpcServer {
 public:
  RdmaRpcServer(cluster::Host& host, net::SocketTable& sockets, verbs::VerbsStack& stack,
                net::Address addr, RdmaServerConfig cfg = {});
  ~RdmaRpcServer() override;

  void start() override;
  void stop() override;

  cluster::Host& host() const { return host_; }
  ShadowPool& pool() { return shadow_; }

  /// Publish sink for application servers; nullptr with onesided off.
  rpc::OneSidedPublisher* onesided() override { return onesided_region_.get(); }

 private:
  struct ConnState;
  // Shared across in-flight calls and the connection table so idle
  // eviction can't pull a ConnState out from under a running handler.
  using ConnPtr = std::shared_ptr<ConnState>;
  /// Coalescer sink for small kResp frames on one RC connection: frames
  /// clamp to the client's negotiated eager threshold, the linger caps at
  /// a quarter of the configured one (responses only need to cover
  /// handler-completion stagger), flush reasons are not counted, and
  /// everything stands down once the server stopped.
  struct RespSink {
    RdmaRpcServer* self;
    ConnPtr conn;
    std::shared_ptr<bool> alive;  // the server's liveness token
    sim::Scheduler& sched() const { return self->host_.sched(); }
    std::size_t limit() const;
    sim::Dur linger_cap() const { return self->batch_.linger / 4; }
    bool stopped() const { return !*alive; }
    rpc::RpcStats* flush_stats() const { return nullptr; }
    sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext) const {
      return self->flush_response_batch(conn, std::move(items), alive);
    }
  };
  struct ConnState {
    verbs::QueuePairPtr qp;
    std::uint64_t id = 0;  // dense per-server sequence number
    std::uint64_t session_id = 0;  // durable session id (0 = sessionless)
    std::uint64_t owner = 0;       // retry-cache key: session_id, else id
    std::uint32_t shard = 0;  // home shard: session-affine, else (id - 1) % shards
    // Negotiated per-connection eager/rendezvous switch point:
    // min(local, client-advertised) from the bootstrap handshake.
    std::size_t eager_threshold = 0;
    // Per-connection legacy-ring buffer size, derived from the *larger*
    // of the two advertised thresholds at the handshake — a peer that
    // advertised more than our local knob may send eager frames that big
    // when our advertisement reads as "none" (threshold 0).
    std::size_t recv_buf_size = 0;
    // Small-response coalescer, allocated only when batching is enabled.
    std::unique_ptr<rpc::Coalescer<RespSink>> responses;
    // Last receive completion; the LRU idle-eviction sweep keys on this.
    sim::Time last_recv = 0;
  };
  /// One run's UD endpoint pool: the shared CQ and the endpoints on it.
  struct UdPlane {
    explicit UdPlane(sim::Scheduler& sched) : cq(sched) {}
    verbs::CompletionQueue cq;
    std::vector<std::unique_ptr<verbs::UdEndpoint>> eps;
    bool stopped = false;
  };
  /// Where a UD arrival's response goes: the plane and endpoint that
  /// received the call, and the GRH source address. A reply whose plane
  /// was stopped is released unsent.
  struct UdReturn {
    std::shared_ptr<UdPlane> plane;
    verbs::AddressHandle peer{};
    std::size_t ep = 0;  // index into plane->eps
  };
  struct ServerCall {
    ConnPtr conn;
    NativeBuffer* buf = nullptr;  // holds the kCall frame (recv slot or fetched)
    std::uint32_t frame_len = 0;
    sim::Time recv_start = 0;
    sim::Time enqueued = 0;  // when the call entered the call queue
    // UD arrivals carry a per-datagram pseudo-ConnState (session id, owner,
    // home shard; no QP) plus the GRH return address — the response is one
    // datagram from the endpoint that received the call.
    std::optional<UdReturn> ud{};

    net::ByteSpan frame() const { return net::ByteSpan(buf->span.data(), frame_len); }
  };

  /// One reader shard: a disjoint set of connections with its own CQ, SRQ
  /// stripe and pipeline (queue/cache/stats). Everything a
  /// completion can touch lives here, so shards share no mutable state.
  /// A stopped shard takes no calls and reposts no receive buffer.
  struct Shard {
    Shard(sim::Scheduler& sched, std::uint32_t index, const rpc::OverloadConfig& cfg,
          const rpc::SessionConfig& session)
        : cq(sched), pipeline(sched, index, cfg, session) {}

    verbs::CompletionQueue cq;
    rpc::CallPipeline<ServerCall> pipeline;
    bool stopped = false;
    // This shard's stripe of the shared receive ring (null in legacy mode).
    std::unique_ptr<verbs::SharedReceiveQueue> srq;
    std::size_t srq_depth = 0;          // stripe depth
    std::size_t srq_low_watermark = 0;  // stripe refill watermark
    // Bytes currently posted as receive buffers on this shard's rings; the
    // per-shard peaks sum into stats recv_ring_bytes_peak.
    std::size_t ring_bytes = 0;
    // Rendezvous response sources awaiting the client's ack, keyed by rkey.
    std::map<std::uint32_t, NativeBuffer*> pending_resp;
    // RDMA-READ call fetches in flight on this shard's CQ.
    ReadWaiters reads;
  };

  sim::Task listener_loop(std::shared_ptr<net::Listener> l);
  sim::Task reader_loop(std::shared_ptr<Shard> shard);
  /// Drain the plane's UD CQ: unwrap kUdCall datagrams (splitting kBatch
  /// frames per sub-call *before* any session logic) and feed the same
  /// handler pipeline as RC traffic, homed by session id.
  sim::Task ud_reader_loop(std::shared_ptr<UdPlane> plane);
  /// Send one kResp datagram back through the receiving endpoint; bounces
  /// over-MTU responses with an error frame (a datagram can't fragment).
  sim::Co<void> ud_respond(ServerCall& call, NativeBuffer* buf, net::ByteSpan msg);
  sim::Task handler_loop(std::shared_ptr<Shard> owned);
  /// Refill one shard's receive stripe whenever it drops below its low
  /// watermark (woken by the SRQ limit event; exits when the SRQ closes).
  sim::Task srq_refill_loop(std::shared_ptr<Shard> shard);
  /// Periodic LRU sweep evicting connections idle past srq_idle_evict;
  /// exits once the run's liveness token `alive` flips.
  sim::Task idle_evict_loop(std::shared_ptr<bool> alive);
  sim::Task fetch_call(std::shared_ptr<Shard> shard, ConnPtr conn, std::uint32_t rkey,
                       std::uint64_t off, std::uint32_t len);
  sim::Co<void> respond(ServerCall& call, RDMAOutputStream& out);
  /// The channel CallPipeline's gate and shed answer through: a
  /// status-only response, or an already-framed one sent verbatim
  /// (retry-cache replays). A client already gone is not an error.
  friend class rpc::CallPipeline<ServerCall>;
  sim::Co<void> send_status(ServerCall& call, std::uint64_t id, rpc::RpcStatus status,
                            const std::string& msg);
  sim::Co<void> send_frame(ServerCall& call, net::ByteSpan frame);
  /// Post a framed response held in pooled `buf`: one datagram for UD
  /// arrivals, else eager SEND or a rendezvous kCtrlResp by size.
  sim::Co<void> send_response(ServerCall& call, NativeBuffer* buf, net::ByteSpan msg);
  /// The home shard's queue bound: with a bound set, a call whose header
  /// does not parse is dropped and an arrival at a full queue is answered
  /// busy; everything else is queued.
  sim::Co<void> enqueue_call(ServerCall call);
  /// A call holding a pooled copy of the kCall `frame` (a UD datagram's, or
  /// one sub-call of a split kBatch frame); the copy charge is the caller's.
  ServerCall copied_call(ConnPtr conn, net::ByteSpan frame, sim::Time recv_start,
                         std::optional<UdReturn> ud);
  /// Enqueue every sub-call of a split kBatch frame (split_batch views
  /// into `frame`) as its own pooled call, so the queue bound, deadlines
  /// and tracing all stay per call. One copy charge covers the whole frame.
  /// `ud` is set for frames that arrived in a kUdCall datagram.
  sim::Co<void> enqueue_batch(ConnPtr conn, net::ByteSpan frame,
                              const std::vector<net::ByteSpan>& subs,
                              std::optional<UdReturn> ud);
  /// Post a pooled buffer as a receive: to `shard`'s SRQ stripe, or to
  /// `conn`'s own ring in legacy (srq_depth == 0) mode. wr_id is the
  /// buffer's address.
  void post_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf);
  /// Re-post a consumed receive buffer (or return it to the pool when the
  /// stripe is full / the connection is gone).
  void recycle_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf);
  void note_ring_bytes(Shard& shard, std::size_t n);
  /// The current run's home shard of a connection (CQ, pipeline,
  /// pending_resp...). A coroutine that keeps it across a suspension
  /// holds a copy.
  const std::shared_ptr<Shard>& shard_of(const ConnState& c) { return core_.shards()[c.shard]; }
  /// Post coalesced kResp frames for `conn` as one kBatch SEND (the
  /// RespSink flush body); `alive` is the server's liveness token.
  sim::Co<void> flush_response_batch(ConnPtr conn, std::vector<net::Bytes> items,
                                     std::shared_ptr<bool> alive);
  /// Fold the per-shard stat blocks into stats_ (ServerCore::fold), then
  /// set the four fields computed outside the shards: UD rx drops,
  /// one-sided publishes/re-exports and the summed ring-bytes peak.
  void fold_stats() override;

  cluster::Host& host_;
  net::SocketTable& sockets_;
  verbs::VerbsStack& stack_;
  verbs::ConnectionManager cm_;
  net::Address addr_;
  RdmaServerConfig cfg_;
  NativeBufferPool native_;
  ShadowPool shadow_;

  // The current run's shards and UD plane (cfg_.ud; an empty plane until
  // the first start()), replaced by start(). The plane stays readable
  // after stop() for its endpoints' drop counts.
  rpc::ServerCore<Shard> core_;
  std::shared_ptr<UdPlane> ud_;
  std::size_t ud_ring_bytes_ = 0;
  std::uint64_t ud_ring_bytes_peak_ = 0;
  std::uint64_t ud_rx_dropped_base_ = 0;  // drops from endpoints of past runs
  // Exported one-sided read region (cfg_.onesided). Created at the first
  // start() and kept across stop()/start() cycles: published entries and
  // the generation survive a restart; only the advertisement toggles.
  std::unique_ptr<OneSidedRegion> onesided_region_;
  std::uint64_t conn_seq_ = 0;
  // Keyed by ConnState::id — also the qp_context stamped into kRecv
  // completions, which is how SRQ-mode completions map back to their
  // connection (the wr_id names only the shared buffer).
  std::map<std::uint64_t, ConnPtr> conns_;
  // Companion socket listener for bootstrap-failure fallback clients,
  // restarted in place with this server.
  rpc::SocketRpcServer fallback_;
  // Liveness token for detached flush timers: ConnState objects survive
  // stop() but the pool and stats must not be touched after it. Timers
  // hold a copy and stand down once *alive_ flips to false.
  std::shared_ptr<bool> alive_;
  bool running_ = false;
};

}  // namespace rpcoib::oib
