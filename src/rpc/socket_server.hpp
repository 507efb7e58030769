// Default Hadoop RPC server (socket path).
//
// The thread structure of Hadoop 0.20.2 + the Reader introduced in 1.0.3,
// exactly as Section III-D describes it:
//   Listener   — accepts connections,
//   Reader     — per-connection: reads a call (fresh ByteBuffer per call,
//                Listing 2), pushes it onto the call queue,
//   Handler xN — pop the call queue, deserialize, invoke, serialize the
//                response into a 10 KB-initial DataOutputBuffer,
//   Responder  — writes responses back on the right connection.
//
// With coalescing enabled (BatchConfig) the Reader splits client batch
// frames into individual calls (admission, deadlines and tracing all stay
// per call) and the Responder merges queued small responses per
// connection into one wire write. Batch frames are always *parsed*;
// the knob only gates emission.
//
// `num_shards` > 1 breaks the serial-Reader ceiling: connections are
// assigned round-robin (by dense connection id) to independent shards,
// each owning its own Reader slot pool, CallPipeline (call queue +
// admission + retry cache), handler subset and Responder — so no receive,
// dispatch or response work ever contends across shards. The default of 1
// keeps the server operation-for-operation identical to the unsharded
// code.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rpc/pipeline.hpp"
#include "rpc/rpc.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"
#include "trace/context.hpp"

namespace rpcoib::rpc {

class SocketRpcServer final : public RpcServer {
 public:
  /// Hadoop 1.0.3's single Reader thread per shard: all of a shard's
  /// connections serialize their receive processing through it, which is
  /// what caps socket-RPC throughput.
  static constexpr int kReaderThreads = 1;

  /// `num_shards` replicates the whole Reader/queue/Handler/Responder
  /// chain.
  SocketRpcServer(cluster::Host& host, net::SocketTable& sockets, net::Address addr,
                  int num_handlers, int num_shards = 1);
  ~SocketRpcServer() override;

  void start() override;
  void stop() override;

  cluster::Host& host() const { return host_; }
  const net::Address& addr() const { return addr_; }
  int num_shards() const { return num_shards_; }

 private:
  struct ServerCall {
    net::SocketPtr conn;
    std::uint64_t conn_id = 0;  // dense per-server connection sequence number
    std::uint64_t session_id = 0;  // durable session id (0 = sessionless)
    std::uint64_t owner = 0;       // retry-cache key: session_id, else conn_id
    std::uint32_t shard = 0;    // home shard (== conn_id's shard)
    CallHeader hdr;             // id, retry flag, deadline, trace context, method
    net::Bytes frame;        // full received frame
    std::size_t param_off = 0;  // offset of the param bytes within frame
    sim::Time recv_start = 0;   // when the frame began arriving (Fig. 1)
    sim::Dur recv_alloc = 0;    // buffer-allocation share of the receive path
    sim::Time enqueued = 0;     // when the call entered the call queue
  };
  struct Response {
    net::SocketPtr conn;
    net::Bytes data;
  };

  /// One reader shard: a disjoint set of connections with its own Reader
  /// slots, pipeline (queue/admission/cache/stats), and Responder.
  struct Shard {
    Shard(sim::Scheduler& sched, std::uint32_t index, const OverloadConfig& cfg,
          const SessionConfig& session)
        : index(index),
          pipeline(sched, index, cfg, session,
                   [](const ServerCall& c) -> const std::string& { return c.hdr.key.protocol; }),
          response_queue(sched),
          reader_slots(sched, kReaderThreads) {}

    std::uint32_t index;
    CallPipeline<ServerCall> pipeline;
    sim::Channel<Response> response_queue;
    sim::Semaphore reader_slots;
    std::vector<net::SocketPtr> conns;
    LingerEstimator resp_gaps;  // responder-side adaptive-linger estimator
  };

  sim::Task listener_loop();
  /// `home` is the listener-chosen shard (sessionless path). With sessions
  /// enabled it is null: the reader picks the shard session-affinely after
  /// the preamble, so a reconnect lands on the shard holding its dedup
  /// state.
  sim::Task reader_loop(net::SocketPtr conn, std::uint64_t conn_id, Shard* home);
  sim::Task handler_loop(Shard& shard);
  sim::Task responder_loop(Shard& shard);

  /// One call's receive-side processing (header parse, admission,
  /// enqueue) — the unit shared by the single-frame path and each
  /// sub-call of a batch frame. Returns the call's trace context so the
  /// batch path can parent its batch.parse span.
  sim::Co<trace::TraceContext> process_frame(net::SocketPtr conn, std::uint64_t conn_id,
                                             std::uint64_t session_id, Shard& shard,
                                             net::Bytes frame, sim::Time t_recv_start,
                                             sim::Dur alloc_cost);
  /// Coalesce group[begin..end) (small responses for one connection) into
  /// a single [u32 total][u64 kWireBatchFlag|n][u32 len_i][payload_i...]
  /// frame and write it.
  sim::Co<void> write_response_batch(Shard& shard, net::SocketPtr conn,
                                     const std::vector<Response*>& group,
                                     std::size_t begin, std::size_t end);

  /// Frame a response: [u32 len][u64 id][u8 status][value | error text].
  /// `cost` (if set) receives the modeled framing CPU; status-only frames
  /// (busy, session expired) are meant to be cheap and model none.
  net::Bytes response_frame(std::uint64_t id, RpcStatus status, const std::string& msg,
                            net::ByteSpan value = {}, sim::Dur* cost = nullptr) const;
  /// The channel CallPipeline's gate and shed answer through: queue a
  /// status-only or an already-framed response on the call's Responder.
  friend class CallPipeline<ServerCall>;
  sim::Co<void> send_status(ServerCall& call, std::uint64_t id, RpcStatus status,
                            const std::string& msg);
  sim::Co<void> send_frame(ServerCall& call, net::ByteSpan frame);
  /// Fold the per-shard stat blocks into stats_ (RpcStats::fold_shards).
  void fold_stats() override;

  cluster::Host& host_;
  net::SocketTable& sockets_;
  net::Address addr_;
  int num_handlers_;
  int num_shards_;
  net::Listener* listener_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Sessions only: sockets accepted but still parked on the preamble /
  /// session-id read, so homed in no shard's conns list yet. The reader
  /// moves a conn out once it picks the session-affine shard; stop()
  /// closes whatever is still in limbo here so no reader task is left
  /// pending on read_full.
  std::vector<net::SocketPtr> pending_conns_;
  std::uint64_t conn_seq_ = 0;
  bool running_ = false;
};

}  // namespace rpcoib::rpc
