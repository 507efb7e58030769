// RPCoIB client (paper Section III).
//
// Same RpcClient interface as the socket path, but:
//  * connection bootstrap exchanges QP info over the server's socket
//    address, then all traffic is native IB (Section III-D),
//  * serialization goes straight into a pre-registered pooled buffer via
//    RDMAOutputStream (JVM-bypass, Section III-B),
//  * the buffer is sized by the <protocol, method> history (Section III-C),
//  * eager SEND below the threshold, RDMA-READ rendezvous above it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "rpc/batch.hpp"
#include "rpc/client_core.hpp"
#include "rpc/rpc.hpp"
#include "rpc/socket_client.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/rdma_streams.hpp"
#include "rpcoib/read_waiters.hpp"
#include "rpcoib/wire.hpp"
#include "sim/sync.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

struct RdmaClientConfig {
  std::size_t eager_threshold = WireDefaults::kEagerThreshold;
  int recv_depth = WireDefaults::kRecvDepth;
  PoolConfig pool{};
  /// UD datagram eager path (default off): sub-MTU eager calls ride
  /// connectionless datagrams into the server's fixed UD endpoint pool;
  /// RC QPs are bootstrapped only for rendezvous-sized calls. UD is
  /// lossy — run sessions + a retry policy for exactly-once delivery.
  UdConfig ud{};
  /// One-sided read plane (default off): eligible Get/lookup calls are
  /// resolved by RDMA READ against the server's advertised seqlock
  /// region, falling back to plain RPC on miss/conflict/stale generation.
  OneSidedConfig onesided{};
};

class RdmaRpcClient final : public rpc::RpcClient {
 public:
  RdmaRpcClient(cluster::Host& host, net::SocketTable& sockets, verbs::VerbsStack& stack,
                RdmaClientConfig cfg = {});
  ~RdmaRpcClient() override;

  cluster::Host& host() const override { return host_; }
  ShadowPool& pool() { return shadow_; }
  const RdmaClientConfig& config() const { return cfg_; }

  void close_connections();

  /// Addresses currently rerouted to socket mode after a bootstrap failure.
  std::size_t fallback_address_count() const { return fallback_addrs_.size(); }

 protected:
  sim::Co<void> call_attempt(net::Address addr, const rpc::MethodKey& key,
                             const rpc::Writable& param, rpc::Writable* response,
                             std::uint64_t call_id, bool retried) override;

 private:
  struct Pending : rpc::PendingCall<Pending> {
    Pending(sim::Scheduler& s, NativeBufferPool& pool) : PendingCall(s), pool(pool) {}
    /// Return the leased rendezvous source to the pool. fail_all runs it
    /// before waking the call: a drained scheduler may never resume the
    /// call coroutine, so the release cannot be left to it.
    void release_leases() {
      if (rendezvous_buf != nullptr) {
        pool.release(rendezvous_buf);
        rendezvous_buf = nullptr;
      }
    }
    /// Hand the call its reply: the full kResp `frame`, held in `buf`.
    void answer(net::ByteSpan frame, NativeBuffer* buf, bool is_recv_slot) {
      resp = frame;
      resp_buf = buf;
      resp_is_recv_slot = is_recv_slot;
      done.set();
    }
    NativeBufferPool& pool;
    net::ByteSpan resp;          // full kResp frame
    NativeBuffer* resp_buf = nullptr;
    bool resp_is_recv_slot = false;  // repost vs release-to-pool
    /// Leased rendezvous source, tracked here (not in a call-frame local)
    /// so fail_all() can return it to the pool on connection teardown.
    NativeBuffer* rendezvous_buf = nullptr;
    bool nacked = false;  // server refused the rendezvous (pool exhausted)
  };

  /// What both planes' records hold besides the pending-call table: the CQ
  /// their receive loop drains and the client's liveness token. One
  /// teardown rule covers both: a loop or flush stands down only once
  /// `alive` reads false (the pool died with the client); a shut record
  /// (cancelled, broken) still reaps what it is owed and returns each
  /// buffer to the pool.
  struct Endpoint : rpc::ClientConnection<Pending> {
    explicit Endpoint(const RdmaRpcClient& c)
        : ClientConnection(c.host_.sched()), alive(c.alive_), cq(c.host_.sched()) {}
    std::shared_ptr<const bool> alive;
    verbs::CompletionQueue cq;  // shared send+recv CQ
  };

  struct Connection;
  // Connections are shared-owned: the map, the receive loop, and every
  // in-flight call hold references, so close_connections() can drop the
  // map without freeing state that already-posted wakeups still touch.
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// Connectionless UD state, shared across every server address: one
  /// endpoint + CQ, a receive loop, and the call-id -> waiter table (call
  /// ids are client-unique, so no per-destination demux is needed). It
  /// reuses the connection record for that table, its register step and
  /// fail_all; nothing dials it, so its `ready` is never waited on.
  /// Shared-owned like Connection so the loop outlives close_connections.
  struct UdState : Endpoint {
    using Endpoint::Endpoint;
    std::unique_ptr<verbs::UdEndpoint> ep;
  };
  using UdStatePtr = std::shared_ptr<UdState>;

  /// Coalescer sinks (batch.hpp) for the two planes' small calls. Each adds
  /// to rpc::ConnectionSink the steps of the one flush_batch body that
  /// differ by plane: the wrapper ahead of the kBatch frame and the post.
  /// An RC batch goes out bare as one eager SEND, and a failed post fails
  /// the connection's calls over to the retry loop.
  struct RcSink : rpc::ConnectionSink<RdmaRpcClient, Connection> {
    static constexpr std::size_t kWrapper = 0;
    sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext ctx) const {
      return self->flush_batch(*this, std::move(items), ctx);
    }
    void wrap(net::MutByteSpan) const {}
    bool can_post() const { return true; }
    sim::Co<void> post(NativeBuffer* fb, net::ByteSpan wire) const;
    void post_failed(const char* why) const { conn->fail_all(why); }
    void note_sent() const {}
  };
  /// A UD batch (per destination) is one kUdCall datagram wrapping the
  /// kBatch frame. A withdrawn service or a failed post loses the
  /// datagram: the calls' timeouts drive their retries.
  struct UdSink : rpc::ConnectionSink<RdmaRpcClient, UdState> {
    std::shared_ptr<rpc::Coalescer<UdSink>> dest;
    net::Address addr;
    static constexpr std::size_t kWrapper = kUdHeaderBytes;
    sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext ctx) const {
      return self->flush_batch(*this, std::move(items), ctx);
    }
    void wrap(net::MutByteSpan header) const;
    bool can_post() const;
    sim::Co<void> post(NativeBuffer* fb, net::ByteSpan wire) const;
    void post_failed(const char*) const {}
    void note_sent() const { ++self->stats_.ud_datagrams_sent; }
  };
  friend struct rpc::ConnectionSink<RdmaRpcClient, Connection>;
  friend struct rpc::ConnectionSink<RdmaRpcClient, UdState>;
  /// Batch frames ride the eager path, so the byte limit clamps to the
  /// negotiated eager threshold: the frame must fit the peer's pre-posted
  /// receive buffers.
  std::size_t batch_limit(const Connection& conn) const {
    return std::min(batch_.max_bytes, conn.eager_threshold);
  }
  /// A UD batch's byte limit: the whole kUdCall datagram must fit the MTU,
  /// so wrapper + batch headers (9 + 5 + 4*count) fit in the slack.
  std::size_t batch_limit(const UdState&) const {
    return std::min(batch_.max_bytes,
                    std::min(cfg_.eager_threshold, verbs::UdEndpoint::kMtu - 512));
  }

  struct Connection : Endpoint {
    explicit Connection(const RdmaRpcClient& c) : Endpoint(c), calls(c.batch()) {}
    verbs::QueuePairPtr qp;
    // Negotiated per-connection eager/rendezvous switch point:
    // min(local, peer-advertised) from the bootstrap handshake, so an
    // eager SEND always fits the peer's pre-posted receive buffers.
    std::size_t eager_threshold = 0;
    rpc::Coalescer<RcSink> calls;  // small-call coalescing (BatchConfig)
    // RDMA-READ completions routed from receive_loop to the fetch task
    // that posted them.
    ReadWaiters reads;
  };

  // The transport's half of the connection core (client_core.hpp).
  friend class rpc::ClientCore<RdmaRpcClient, Connection>;
  /// Bootstrap over the server's socket address, pre-post the receive
  /// ring and spawn the receive loop. A verbs-level failure passes through
  /// unchanged (call_attempt_rc reroutes the address to sockets); any
  /// other becomes RpcTransportError.
  sim::Co<void> dial(const ConnectionPtr& conn, net::Address addr);
  /// Reclaim the posted receive slots and break the QP. A kill leaves the
  /// CQ OPEN and the connection uncancelled: completions already
  /// scheduled (the just-posted kSend, in-flight READs, stale responses)
  /// must still be reaped by the receive loop so their pooled buffers go
  /// back — the pool stays balanced across a kill. A cancelled connection
  /// (shutdown, stale QP) closes its CQ so the loop exits.
  void break_link(Connection& conn);
  /// The UD endpoint's shutdown (it has no link to break): reclaim the
  /// posted ring and close the CQ.
  void break_link(UdState& ud);
  /// The server tore the QP down under us (idle-connection eviction).
  static const char* link_lost(const Connection& conn) {
    return conn.qp && !conn.qp->connected() ? "QP closed by peer" : nullptr;
  }

  sim::Task receive_loop(ConnectionPtr conn);
  sim::Task fetch_response(ConnectionPtr conn, std::uint32_t rkey, std::uint64_t off,
                           std::uint32_t len);
  /// Both planes' batch flush: encode coalesced kCall frames as one kBatch
  /// frame behind the sink's wrapper, straight into a pooled buffer, and
  /// post it (the receive loop releases it at the kSend completion).
  template <typename Sink>
  sim::Co<void> flush_batch(Sink sink, std::vector<net::Bytes> items, trace::TraceContext ctx);
  void deliver_response(const ConnectionPtr& conn, net::ByteSpan frame, NativeBuffer* buf,
                        bool is_recv_slot);
  /// Repost a consumed receive slot, or return the buffer to the pool when
  /// it is not one (a fetched or split-off copy) or the connection died.
  void repost_recv(const ConnectionPtr& conn, NativeBuffer* buf, bool is_recv_slot = true);

  /// One attempt of a call, as each plane of the ladder sees it.
  struct Attempt {
    net::Address addr;
    const rpc::MethodKey& key;
    const rpc::Writable& param;
    rpc::Writable* response;
    std::uint64_t call_id;
    bool retried;
    trace::TraceCollector* tr;
    trace::TraceContext t_parent;
  };

  /// The one socket exit: the call goes to the server's companion socket
  /// listener through the fallback client, under the call's trace parent.
  sim::Co<void> call_via_fallback(const Attempt& a);

  /// Both planes' coalesce step: copy a small call's serialized frame out
  /// of its pooled buffer so the lease returns at once (the batch
  /// amortizes the per-call doorbell + JNI crossing the copy replaces).
  net::Bytes copy_for_batch(NativeBuffer*& buf, net::ByteSpan frame);

  /// One attempt over the RC plane. Returns false, having sent nothing the
  /// call still waits on, for each of its three reroutes to the socket
  /// path: a verbs-level bootstrap failure (sticky for the address), the
  /// pool refusing a re-get mid-serialize, and a server NACK of the
  /// rendezvous fetch (both for this call only).
  sim::Co<bool> call_attempt_rc(const Attempt& a);

  /// One attempt over the one-sided read plane. Returns true iff the call
  /// was fully served by an RDMA READ (seqlock-consistent, generation
  /// fresh, key present); false degrades to the normal RPC path. Every
  /// false return has released its staging lease — the pool stays
  /// balanced across all fallback causes.
  sim::Co<bool> call_attempt_onesided(const Attempt& a);

  /// Lazily create the client UD endpoint (+ ring + receive loop).
  UdStatePtr ud_state();
  sim::Task ud_receive_loop(UdStatePtr ud);
  /// Largest serialized datagram (kUdCall wrapper included) the UD path
  /// accepts; anything bigger falls back to the RC path.
  std::size_t ud_budget() const;
  /// Endpoint selection by RpcIdentifier{session, call}: spreads one
  /// client's calls across the fixed server pool statelessly.
  verbs::AddressHandle ud_target(const verbs::UdService& svc, std::uint64_t sid,
                                 std::uint64_t call_id) const;
  /// One attempt over the UD path. Returns false (nothing sent) when the
  /// call exceeds the datagram budget or the pool refused the
  /// serialization lease — the caller falls through to the RC path.
  sim::Co<bool> call_attempt_ud(const Attempt& a, const verbs::UdService& svc);

  /// Registers the pool. `alive` is the client's token, taken at spawn so
  /// that a client destroyed before or during registration is never touched.
  sim::Task init_pool_task(std::shared_ptr<bool> alive);

  cluster::Host& host_;
  net::SocketTable& sockets_;
  verbs::VerbsStack& stack_;
  verbs::ConnectionManager cm_;
  RdmaClientConfig cfg_;
  NativeBufferPool native_;
  ShadowPool shadow_;
  sim::SimEvent pool_ready_;
  rpc::ClientCore<RdmaRpcClient, Connection> core_{*this};
  UdStatePtr ud_;
  // Per-destination UD call coalescers (shared with their linger timers).
  std::map<net::Address, std::shared_ptr<rpc::Coalescer<UdSink>>> ud_dests_;
  // Cached one-sided advertisements, fetched once per address (the
  // bootstrap-time exchange) and refreshed only when a READ fails the
  // generation check — a server re-export must be detected, never assumed.
  std::map<net::Address, verbs::OneSidedService> onesided_cache_;
  // Socket-mode fallback after a failed bootstrap exchange (sticky per
  // address until close_connections()).
  std::set<net::Address> fallback_addrs_;
  std::unique_ptr<rpc::SocketRpcClient> fallback_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);  // cleared by the destructor
};

}  // namespace rpcoib::oib
