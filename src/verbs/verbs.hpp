// Simulated InfiniBand verbs.
//
// A faithful-shape ibverbs API over the simulated fabric: protection
// domains, registered memory regions with l/rkeys, reliable-connected
// queue pairs, completion queues, two-sided SEND/RECV and one-sided
// RDMA WRITE / RDMA READ. RPCoIB (and HDFSoIB / HBaseoIB data paths) are
// written against this API exactly as they would be against OFED:
//
//  * buffers must be registered before use; registration is expensive and
//    meant to be amortized (which is why RPCoIB pre-registers its pool),
//  * SEND consumes a posted RECV on the remote side, FIFO,
//  * RDMA WRITE/READ move bytes without remote CPU involvement; WRITE can
//    carry immediate data that surfaces as a remote completion,
//  * completions are reaped by polling a CQ, one CQ can serve many QPs.
//
// Payload bytes are really copied between the registered buffers (they
// live in this process), so data integrity is testable end to end; only
// wire timing is modeled, through net::Fabric's IB-verbs parameters. The
// one exception is an RDMA WRITE of a net::Payload pattern: only its
// {length, seed} descriptor travels, and the target bytes stay untouched.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cluster/host.hpp"
#include "net/bytes.hpp"
#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

namespace rpcoib::verbs {

class VerbsError : public std::runtime_error {
 public:
  explicit VerbsError(const std::string& what) : std::runtime_error(what) {}
};

enum class Opcode {
  kSend,
  kRecv,
  kRdmaWrite,
  kRdmaRead,
  kRecvRdmaWithImm,
};

struct WorkCompletion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  std::uint32_t byte_len = 0;
  std::uint32_t imm_data = 0;
  /// For kRecv completions: the consuming QP's application context (the
  /// ibv_wc.qp_num analogue). With a shared receive queue the wr_id alone
  /// no longer identifies the connection a message arrived on; receivers
  /// set a context per QP and read it back here.
  std::uint64_t qp_context = 0;
  /// ibv_wc.status analogue: 0 = IBV_WC_SUCCESS. A one-sided READ whose
  /// rkey no longer resolves (region torn down mid-flight) completes with
  /// a non-zero status and an untouched local buffer instead of crashing
  /// the requester — the remote-access-error path real HCAs report.
  std::uint32_t status = 0;
  /// For kRecvRdmaWithImm: the WRITE carried a net::Payload pattern. Its
  /// descriptor is {byte_len, pattern_seed}; no byte reached the target.
  bool pattern = false;
  std::uint64_t pattern_seed = 0;
};

/// A registered memory region. `lkey`/`rkey` identify it locally/remotely;
/// the rkey is resolvable cluster-wide (the simulator's stand-in for the
/// HCA's translation table).
struct MemoryRegion {
  net::Byte* addr = nullptr;
  std::size_t length = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  cluster::HostId owner = -1;
};

/// Remote buffer descriptor carried in rendezvous control messages.
struct RemoteBuffer {
  std::uint32_t rkey = 0;
  std::uint64_t offset = 0;  // offset within the region
  std::uint32_t length = 0;
};

class VerbsStack;

/// Per-host registration domain.
class ProtectionDomain {
 public:
  ProtectionDomain(VerbsStack& stack, cluster::Host& host);
  ~ProtectionDomain();
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  /// What registering `bytes` costs the host (page pinning + HCA table
  /// update). RPCoIB charges it once per pool buffer at load, then
  /// registers the buffer with register_mr_untimed.
  sim::Dur registration_cost(std::size_t bytes) const;

  /// Register memory without a timing charge.
  MemoryRegion register_mr_untimed(net::MutByteSpan buf);

  void deregister(const MemoryRegion& mr);

  cluster::Host& host() const { return host_; }

 private:
  VerbsStack& stack_;
  cluster::Host& host_;
  std::vector<std::uint32_t> owned_rkeys_;
};

/// Completion queue. One CQ may serve any number of QPs (the RPCoIB server
/// polls a single CQ for all client connections).
class CompletionQueue {
  struct State : sim::Channel<WorkCompletion> {
    using Channel::Channel;
    std::size_t owed = 0;  // posted work requests whose completion is due here
    bool closing = false;
  };

 public:
  /// What a queue pair or UD endpoint holds to complete work into this CQ.
  /// Most completions land after a modeled wire delay, when the CQ's owner
  /// (a connection, a stream, a shard) may already be gone. A Sink does not
  /// keep the CQ alive: a completion that arrives after the CQ was
  /// destroyed is dropped, as no poller is left to reap it.
  class Sink {
   public:
    void push(const WorkCompletion& wc) const {
      if (const auto st = st_.lock()) st->push(wc);
    }
    /// A work request was posted: its completion is owed to this CQ.
    void owe() const {
      if (const auto st = st_.lock()) ++st->owed;
    }
    /// The owed completion of a posted work request.
    void complete(const WorkCompletion& wc) const {
      if (const auto st = st_.lock()) {
        st->push(wc);
        if (--st->owed == 0 && st->closing) st->close();
      }
    }

   private:
    friend class CompletionQueue;
    explicit Sink(std::weak_ptr<State> st) : st_(std::move(st)) {}
    std::weak_ptr<State> st_;
  };

  explicit CompletionQueue(sim::Scheduler& sched) : st_(std::make_shared<State>(sched)) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Blocking poll, awaited directly (suspends in virtual time until a
  /// completion arrives). Throws sim::ChannelClosed once closed and empty.
  sim::Channel<WorkCompletion>::RecvAwaiter wait() { return st_->recv(); }

  /// Non-blocking poll.
  bool poll(WorkCompletion& wc) { return st_->try_recv(wc); }

  /// Close the queue. Work already posted still completes into it: the
  /// poller's wait() throws sim::ChannelClosed only once every completion
  /// owed has landed and been reaped, so the buffers behind them come back.
  void close() {
    st_->closing = true;
    if (st_->owed == 0) st_->close();
  }
  Sink sink() const { return Sink(st_); }

 private:
  std::shared_ptr<State> st_;
};

class QueuePair;
using QueuePairPtr = std::shared_ptr<QueuePair>;

/// A posted receive buffer awaiting an incoming SEND.
struct PostedRecv {
  std::uint64_t wr_id = 0;
  net::MutByteSpan buf;
};

/// Shared receive queue (the ibv_srq analogue): one posted-recv ring
/// consumed FIFO by any number of attached QPs, so registered receive
/// memory scales with *load* instead of connection count.
///
///  * post_recv() feeds the shared ring and drains any QPs parked on it,
///    in arrival order (deterministic under the simulator);
///  * an incoming SEND that finds the ring empty parks in its QP's inbound
///    queue (RNR backpressure — the RC analogue of receiver-not-ready NAK
///    plus sender retry) and the QP queues as a waiter for the next buffer;
///  * arm_limit(w) arms the one-shot low-watermark event
///    (IBV_EVENT_SRQ_LIMIT_REACHED): wait_limit() resumes once the ring
///    pops below `w` buffers, and the refill loop re-arms after topping up.
class SharedReceiveQueue {
 public:
  explicit SharedReceiveQueue(sim::Scheduler& sched) : limit_events_(sched) {}
  SharedReceiveQueue(const SharedReceiveQueue&) = delete;
  SharedReceiveQueue& operator=(const SharedReceiveQueue&) = delete;
  ~SharedReceiveQueue();

  /// Post a receive buffer to the shared ring; wakes parked QPs FIFO.
  void post_recv(std::uint64_t wr_id, net::MutByteSpan buf);

  /// Remove and return the wr_ids of all still-posted buffers (teardown:
  /// pooled buffers go back to their pool instead of leaking).
  std::vector<std::uint64_t> drain_posted_recvs();

  /// Arm the low-watermark event: the next time the posted count drops
  /// below `watermark` (or immediately, if it is already below), one event
  /// fires and the limit disarms until re-armed. watermark 0 disarms.
  void arm_limit(std::size_t watermark);

  /// Suspend until the armed limit event fires. Throws sim::ChannelClosed
  /// after close() — the refill loop's exit path.
  sim::Co<void> wait_limit();

  /// Close the limit-event channel, releasing any waiting refill loop.
  void close() { limit_events_.close(); }

  std::size_t posted() const { return ring_.size(); }
  /// Arrivals that found the ring empty and had to park (RNR stalls).
  std::uint64_t rnr_stalls() const { return rnr_stalls_; }
  /// Mirror RNR stalls into an external counter as they happen (lets a
  /// server surface them in its stats struct without polling).
  void set_stall_counter(std::uint64_t* counter) { stall_mirror_ = counter; }

 private:
  friend class QueuePair;

  /// Consume the head buffer; fires the armed limit event on the way down.
  bool try_pop(PostedRecv& out);
  void add_waiter(QueuePair* qp);
  void remove_waiter(QueuePair* qp);
  void note_stall();

  std::deque<PostedRecv> ring_;
  std::deque<QueuePair*> waiters_;  // QPs with parked inbound, FIFO
  sim::Channel<std::size_t> limit_events_;
  std::size_t armed_watermark_ = 0;  // 0 = disarmed
  std::uint64_t rnr_stalls_ = 0;
  std::uint64_t* stall_mirror_ = nullptr;
};

/// Reliable-connected queue pair. Created connected by ConnectionManager.
class QueuePair : public std::enable_shared_from_this<QueuePair> {
 public:
  QueuePair(VerbsStack& stack, cluster::Host& host, CompletionQueue& send_cq,
            CompletionQueue& recv_cq);
  ~QueuePair();

  /// Post a receive buffer; consumed FIFO by incoming SENDs. Throws if the
  /// QP is attached to an SRQ (like real verbs, an SRQ-attached QP has no
  /// receive queue of its own).
  void post_recv(std::uint64_t wr_id, net::MutByteSpan buf);

  /// Attach to (or detach from, with nullptr) a shared receive queue.
  /// Incoming SENDs then consume buffers from the SRQ instead of a per-QP
  /// ring. Must be set before traffic flows.
  void set_srq(SharedReceiveQueue* srq);

  /// Application context stamped into this QP's kRecv completions
  /// (WorkCompletion::qp_context) — how an SRQ consumer maps a completion
  /// back to its connection.
  void set_context(std::uint64_t ctx) { context_ = ctx; }

  /// Two-sided send into the peer's next posted receive buffer. The local
  /// completion (kSend) is delivered once the message is on the wire and
  /// acknowledged. Charges the doorbell cost to the calling thread.
  sim::Co<void> post_send(std::uint64_t wr_id, net::ByteSpan buf);

  /// One-sided write into remote registered memory. Optional immediate
  /// data raises a kRecvRdmaWithImm completion at the peer. Real bytes are
  /// snapshotted at post and land in the target; a pattern payload moves
  /// as its descriptor only, which the completion carries. Either way the
  /// length is checked against `dst` at post and the rkey and bounds are
  /// resolved at arrival.
  sim::Co<void> post_rdma_write(std::uint64_t wr_id, net::Payload local, RemoteBuffer dst,
                                std::optional<std::uint32_t> imm = std::nullopt);

  /// One-sided read from remote registered memory into `local`.
  sim::Co<void> post_rdma_read(std::uint64_t wr_id, net::MutByteSpan local, RemoteBuffer src);

  cluster::Host& host() const { return host_; }
  bool connected() const { return !peer_.expired(); }
  cluster::HostId remote_host() const { return remote_host_; }

  /// Tear down; peer sees flushed state on next use.
  void disconnect();

  /// Remove and return the wr_ids of all still-posted receive buffers.
  /// Called at teardown so pooled recv buffers can go back to their pool
  /// instead of leaking with the QP.
  std::vector<std::uint64_t> drain_posted_recvs();

 private:
  friend class ConnectionManager;
  friend class VerbsStack;
  friend class SharedReceiveQueue;

  struct InboundMsg {
    net::Bytes data;  // already-arrived SEND waiting for a posted recv (RNR case)
  };

  void connect_to(const QueuePairPtr& peer);
  /// Deliver an arrived SEND payload into a posted recv (or park it).
  void on_send_arrival(net::Bytes data);
  void match_inbound();

  VerbsStack& stack_;
  cluster::Host& host_;
  CompletionQueue::Sink send_cq_;
  CompletionQueue::Sink recv_cq_;
  std::weak_ptr<QueuePair> peer_;
  cluster::HostId remote_host_ = -1;
  std::deque<PostedRecv> posted_recvs_;
  std::deque<InboundMsg> inbound_;
  sim::Time send_clock_ = 0;  // RC ordering: sends never reorder on a QP
  SharedReceiveQueue* srq_ = nullptr;
  std::uint64_t context_ = 0;
  bool srq_waiting_ = false;  // queued on srq_->waiters_
};

/// Names a remote UD endpoint: the ibv_ah analogue. UD is connectionless —
/// every post_send carries one of these instead of riding a paired QP.
struct AddressHandle {
  cluster::HostId host = -1;
  std::uint32_t qpn = 0;
};

/// Unreliable-datagram endpoint (the ibv_qp IBV_QPT_UD analogue). Unlike an
/// RC QueuePair it is never "connected": any number of peers send to it by
/// address handle, each datagram is independently routed, MTU-capped, and
/// may be silently lost in flight (net::Fabric::deliver_datagram). A
/// datagram that arrives while the receive ring is empty is silently
/// dropped — there is no RNR backpressure on UD — and every delivered
/// datagram is prefixed with a GRH-style source-addressing header so the
/// receiver can reply without any per-sender state.
class UdEndpoint {
 public:
  /// UD path MTU: a post_send larger than this throws (real UD QPs bounce
  /// oversized sends at the HCA).
  static constexpr std::size_t kMtu = 4096;
  /// GRH prefix length on every delivered datagram.
  static constexpr std::size_t kGrhBytes = 40;

  /// The GRH prefix: the source host id and QPN (little-endian u32s), then
  /// zeros, as real receivers ignore the rest.
  struct Grh {
    std::uint32_t host = 0, qpn = 0;
    template <typename IO> void fields(IO& io) { io.u32(host).u32(qpn).pad(kGrhBytes - 8); }
  };

  UdEndpoint(VerbsStack& stack, cluster::Host& host, CompletionQueue& send_cq,
             CompletionQueue& recv_cq);
  ~UdEndpoint();
  UdEndpoint(const UdEndpoint&) = delete;
  UdEndpoint& operator=(const UdEndpoint&) = delete;

  /// This endpoint's cluster-unique datagram queue-pair number.
  std::uint32_t qpn() const { return qpn_; }
  cluster::Host& host() const { return host_; }

  /// Application context stamped into this endpoint's kRecv completions.
  void set_context(std::uint64_t ctx) { context_ = ctx; }

  /// Post a receive buffer; must hold kGrhBytes + kMtu to fit any datagram.
  void post_recv(std::uint64_t wr_id, net::MutByteSpan buf);

  /// Fire-and-forget datagram to `ah`. Completes kSend once the datagram
  /// is on the wire — delivery is NOT acknowledged, and the send completes
  /// identically whether the datagram arrives, is lost in flight, or finds
  /// no posted receive at the destination.
  sim::Co<void> post_send(std::uint64_t wr_id, const AddressHandle& ah, net::ByteSpan buf);

  /// Remove and return the wr_ids of all still-posted receive buffers.
  std::vector<std::uint64_t> drain_posted_recvs();

  std::size_t posted() const { return ring_.size(); }
  /// Datagrams dropped at this endpoint because the ring was empty (ring
  /// overrun) or the head buffer was too small.
  std::uint64_t rx_dropped() const { return rx_dropped_; }

 private:
  friend class VerbsStack;

  /// Deliver one arrived datagram into the head receive buffer (or drop).
  void on_datagram_arrival(cluster::HostId src_host, std::uint32_t src_qpn, net::Bytes data);

  VerbsStack& stack_;
  cluster::Host& host_;
  CompletionQueue::Sink send_cq_;
  CompletionQueue::Sink recv_cq_;
  std::uint32_t qpn_ = 0;
  std::uint64_t context_ = 0;
  std::deque<PostedRecv> ring_;
  std::uint64_t rx_dropped_ = 0;
};

/// A server's advertised pool of UD endpoints, resolvable by its RPC
/// listen address — the simulator's stand-in for publishing well-known
/// datagram QPNs through a name service (real UD RPC frameworks exchange
/// them once out of band). Clients pick an endpoint per call; no
/// per-client connection or server-side state is created.
struct UdService {
  cluster::HostId host = -1;
  std::vector<std::uint32_t> qpns;
};

/// A server's advertised one-sided read region, resolvable by its RPC
/// listen address — the advertisement blob clients cache so eligible
/// lookups can go straight to RDMA READ. `generation` is bumped on every
/// re-export (region growth); clients holding an older generation detect
/// staleness via the per-slot generation word and fall back to RPC.
struct OneSidedService {
  cluster::HostId host = -1;
  std::uint32_t rkey = 0;
  std::uint64_t generation = 0;
  std::uint32_t slots = 0;
  std::uint32_t slot_bytes = 0;  // full slot stride incl. seqlock words
};

/// Cluster-wide verbs state: rkey resolution and device parameters.
class VerbsStack {
 public:
  explicit VerbsStack(net::Fabric& fab) : fab_(fab) {}
  VerbsStack(const VerbsStack&) = delete;
  VerbsStack& operator=(const VerbsStack&) = delete;

  net::Fabric& fabric() { return fab_; }

  /// Resolve an rkey to the registered region (throws VerbsError if the
  /// key is unknown or the access is out of bounds).
  net::MutByteSpan resolve(std::uint32_t rkey, std::uint64_t offset, std::size_t len) const;

  // Registration bookkeeping (used by ProtectionDomain).
  std::uint32_t add_region(MemoryRegion mr);
  void remove_region(std::uint32_t rkey);

  /// Storage for a SEND's or datagram's staged bytes: a spare vector a
  /// receiver handed back (empty, its capacity kept), else a new one.
  net::Bytes take_staging();
  /// Hand back a delivered message's storage for the next post_send. The
  /// list keeps at most kSpareStaging vectors of at most a UD datagram's
  /// MTU in capacity; anything else is freed, so the list never holds more
  /// than 128 KiB.
  void recycle_staging(net::Bytes&& bytes);
  static constexpr std::size_t kSpareStaging = 32;
  static constexpr std::size_t kSpareStagingBytes = UdEndpoint::kMtu;

  /// Cost of registering `bytes` of memory (page pinning + HCA update).
  sim::Dur registration_cost(std::size_t bytes) const;

  // Connection-manager rendezvous registry: half-open client QPs awaiting
  // the server's accept, keyed by the cookie in the endpoint-info payload.
  // Lives here (not per-ConnectionManager) because client and server use
  // separate managers over the same fabric.
  void cm_register(std::uintptr_t cookie, QueuePairPtr qp) { cm_pending_[cookie] = std::move(qp); }
  QueuePairPtr cm_lookup(std::uintptr_t cookie) {
    auto it = cm_pending_.find(cookie);
    return it == cm_pending_.end() ? nullptr : it->second;
  }
  void cm_erase(std::uintptr_t cookie) { cm_pending_.erase(cookie); }

  // UD datagram routing: endpoints register a cluster-unique QPN at
  // construction; post_send resolves the destination at arrival time, so a
  // datagram sent to an endpoint that died in flight simply vanishes (UD
  // semantics, no dangling pointer).
  std::uint32_t ud_register(UdEndpoint* ep) {
    const std::uint32_t qpn = next_qpn_++;
    ud_endpoints_[qpn] = ep;
    return qpn;
  }
  void ud_unregister(std::uint32_t qpn) { ud_endpoints_.erase(qpn); }
  UdEndpoint* ud_lookup(std::uint32_t qpn) const {
    auto it = ud_endpoints_.find(qpn);
    return it == ud_endpoints_.end() ? nullptr : it->second;
  }

  // UD service directory: a server advertises its endpoint pool under its
  // RPC listen address; clients resolve it instead of bootstrapping a
  // connection. Withdrawn at server stop.
  void ud_advertise(net::Address addr, UdService svc) { ud_services_[addr] = std::move(svc); }
  void ud_withdraw(net::Address addr) { ud_services_.erase(addr); }
  const UdService* ud_service(net::Address addr) const {
    auto it = ud_services_.find(addr);
    return it == ud_services_.end() ? nullptr : &it->second;
  }

  // One-sided service directory: the advertisement blob for a server's
  // exported read region, alongside the UD directory above. Re-advertised
  // (same address, new rkey/generation) on region growth; withdrawn at
  // server stop.
  void onesided_advertise(net::Address addr, OneSidedService svc) {
    onesided_services_[addr] = std::move(svc);
  }
  void onesided_withdraw(net::Address addr) { onesided_services_.erase(addr); }
  const OneSidedService* onesided_service(net::Address addr) const {
    auto it = onesided_services_.find(addr);
    return it == onesided_services_.end() ? nullptr : &it->second;
  }

  // Deterministic fault hook: make the next `n` bootstrap (QP-info)
  // exchanges fail with a VerbsError, modeling subnet-manager / GID
  // resolution trouble that leaves plain sockets working. RPCoIB clients
  // respond by falling back to socket mode.
  void inject_bootstrap_failures(int n) { bootstrap_failures_ += n; }
  bool take_bootstrap_failure() {
    if (bootstrap_failures_ <= 0) return false;
    --bootstrap_failures_;
    return true;
  }

 private:
  net::Fabric& fab_;
  // Indexed by key: keys are dense from 1 and never reused, and a
  // deregistered key's entry is left with rkey 0.
  std::vector<MemoryRegion> regions_{MemoryRegion{}};
  std::vector<net::Bytes> spare_staging_;
  std::map<std::uintptr_t, QueuePairPtr> cm_pending_;
  std::uint32_t next_qpn_ = 1;
  std::map<std::uint32_t, UdEndpoint*> ud_endpoints_;
  std::map<net::Address, UdService> ud_services_;
  std::map<net::Address, OneSidedService> onesided_services_;
  int bootstrap_failures_ = 0;
};

/// Establishes RC connections by exchanging endpoint info over a plain
/// socket — exactly the bootstrap the paper describes (Section III-D).
class ConnectionManager {
 public:
  ConnectionManager(VerbsStack& stack, net::SocketTable& sockets)
      : stack_(stack), sockets_(sockets) {}

  /// Client side: connect to `addr` (where a Listener must be accepting),
  /// exchanging QP info over `mgmt_transport`.
  ///
  /// `local_eager_threshold` rides bytes 8..15 of the endpoint-info blob
  /// (0 = not advertised, the pre-handshake wire format); the peer's
  /// advertised value is returned through `peer_eager_threshold` when
  /// non-null. RPCoIB endpoints use min(local, peer) so an eager SEND can
  /// never exceed what the receiver's pre-posted buffers were sized for.
  /// `session_id` rides bytes 16..23 (0 = sessionless; those bytes were
  /// always zero before, so sessionless blobs stay wire-identical).
  sim::Co<QueuePairPtr> connect(cluster::Host& src, net::Address addr,
                                CompletionQueue& send_cq, CompletionQueue& recv_cq,
                                net::Transport mgmt_transport = net::Transport::kIPoIB,
                                std::uint64_t local_eager_threshold = 0,
                                std::uint64_t* peer_eager_threshold = nullptr,
                                std::uint64_t session_id = 0);

  /// Endpoint info read off a bootstrap socket before any server QP
  /// exists: the rendezvous cookie plus the peer's advertised eager
  /// threshold and durable session id. Splitting the read out of accept()
  /// lets a sharded server pick the owning shard — and with it the CQ and
  /// SRQ the connection lands on — from the session id, so a reconnecting
  /// session finds its retry-cache state on the same shard.
  /// The same blob carries the sender's side both ways: connect() sends
  /// its cookie, eager threshold and session id; accept() replies with its
  /// threshold alone.
  struct BootstrapInfo {
    /// Fixed blob size (LID/QPN/PSN in real IB): the three words, then
    /// zeros.
    static constexpr std::size_t kBytes = 72;
    std::uintptr_t cookie = 0;
    std::uint64_t peer_eager_threshold = 0;
    std::uint64_t session_id = 0;  // 0 = sessionless peer

    template <typename IO>
    void fields(IO& io) {
      io.u64(cookie).u64(peer_eager_threshold).u64(session_id).pad(kBytes - 24);
    }
  };

  /// Phase one of the server-side handshake: read the client's blob.
  sim::Co<BootstrapInfo> read_bootstrap(net::SocketPtr bootstrap);

  /// Phase two: pair QPs onto the chosen CQs and send the reply blob.
  sim::Co<QueuePairPtr> accept(net::SocketPtr bootstrap, const BootstrapInfo& info,
                               CompletionQueue& send_cq, CompletionQueue& recv_cq,
                               std::uint64_t local_eager_threshold = 0);

  /// Server side: accept one connection from an already-accepted bootstrap
  /// socket (read_bootstrap + two-phase accept in one step). Threshold
  /// exchange mirrors connect().
  sim::Co<QueuePairPtr> accept(net::SocketPtr bootstrap, CompletionQueue& send_cq,
                               CompletionQueue& recv_cq,
                               std::uint64_t local_eager_threshold = 0,
                               std::uint64_t* peer_eager_threshold = nullptr);

 private:
  VerbsStack& stack_;
  net::SocketTable& sockets_;
};

}  // namespace rpcoib::verbs
