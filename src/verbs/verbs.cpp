#include "verbs/verbs.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/frame.hpp"

namespace rpcoib::verbs {

// ---------------------------------------------------------------------------
// ProtectionDomain

ProtectionDomain::ProtectionDomain(VerbsStack& stack, cluster::Host& host)
    : stack_(stack), host_(host) {}

ProtectionDomain::~ProtectionDomain() {
  for (std::uint32_t k : owned_rkeys_) stack_.remove_region(k);
}

MemoryRegion ProtectionDomain::register_mr_untimed(net::MutByteSpan buf) {
  MemoryRegion mr;
  mr.addr = buf.data();
  mr.length = buf.size();
  mr.owner = host_.id();
  const std::uint32_t key = stack_.add_region(mr);
  mr.lkey = mr.rkey = key;
  owned_rkeys_.push_back(key);
  return mr;
}

sim::Dur ProtectionDomain::registration_cost(std::size_t bytes) const {
  return stack_.registration_cost(bytes);
}

void ProtectionDomain::deregister(const MemoryRegion& mr) {
  stack_.remove_region(mr.rkey);
  std::erase(owned_rkeys_, mr.rkey);
}

// ---------------------------------------------------------------------------
// VerbsStack

std::uint32_t VerbsStack::add_region(MemoryRegion mr) {
  const auto key = static_cast<std::uint32_t>(regions_.size());
  mr.lkey = mr.rkey = key;
  regions_.push_back(mr);
  return key;
}

void VerbsStack::remove_region(std::uint32_t rkey) {
  if (rkey < regions_.size()) regions_[rkey] = MemoryRegion{};
}

net::MutByteSpan VerbsStack::resolve(std::uint32_t rkey, std::uint64_t offset,
                                     std::size_t len) const {
  if (rkey >= regions_.size() || regions_[rkey].rkey == 0) throw VerbsError("unknown rkey");
  const MemoryRegion& mr = regions_[rkey];
  if (offset + len > mr.length) throw VerbsError("remote access out of bounds");
  return net::MutByteSpan(mr.addr + offset, len);
}

net::Bytes VerbsStack::take_staging() {
  if (spare_staging_.empty()) return {};
  net::Bytes b = std::move(spare_staging_.back());
  spare_staging_.pop_back();
  return b;
}

void VerbsStack::recycle_staging(net::Bytes&& bytes) {
  if (spare_staging_.size() >= kSpareStaging || bytes.capacity() == 0 ||
      bytes.capacity() > kSpareStagingBytes) {
    return;
  }
  bytes.clear();
  spare_staging_.push_back(std::move(bytes));
}

sim::Dur VerbsStack::registration_cost(std::size_t bytes) const {
  // ~35us base (ibv_reg_mr syscall + HCA doorbell) + ~0.25us per 4K page
  // of pinning. Large pools take milliseconds to register — which is why
  // RPCoIB does it once at library load.
  const double pages = static_cast<double>(bytes) / 4096.0;
  return sim::from_us(35.0 + 0.25 * pages);
}

// ---------------------------------------------------------------------------
// SharedReceiveQueue

SharedReceiveQueue::~SharedReceiveQueue() {
  // Detach any still-parked QPs so their destructors don't reach back into
  // a dead SRQ.
  for (QueuePair* qp : waiters_) {
    qp->srq_waiting_ = false;
    qp->srq_ = nullptr;
  }
}

void SharedReceiveQueue::post_recv(std::uint64_t wr_id, net::MutByteSpan buf) {
  ring_.push_back(PostedRecv{wr_id, buf});
  // Drain parked QPs in arrival order. A QP whose inbound outruns the ring
  // re-queues at the tail (round-robin across starved connections), which
  // keeps the schedule deterministic and starvation-free.
  while (!ring_.empty() && !waiters_.empty()) {
    QueuePair* qp = waiters_.front();
    waiters_.pop_front();
    qp->srq_waiting_ = false;
    qp->match_inbound();
  }
}

std::vector<std::uint64_t> SharedReceiveQueue::drain_posted_recvs() {
  std::vector<std::uint64_t> ids;
  ids.reserve(ring_.size());
  for (const PostedRecv& pr : ring_) ids.push_back(pr.wr_id);
  ring_.clear();
  armed_watermark_ = 0;
  return ids;
}

void SharedReceiveQueue::arm_limit(std::size_t watermark) {
  armed_watermark_ = watermark;
  if (armed_watermark_ != 0 && ring_.size() < armed_watermark_) {
    // Already below the watermark: fire immediately (refill is due now).
    armed_watermark_ = 0;
    limit_events_.push(ring_.size());
  }
}

sim::Co<void> SharedReceiveQueue::wait_limit() {
  (void)co_await limit_events_.recv();
  co_return;
}

bool SharedReceiveQueue::try_pop(PostedRecv& out) {
  if (ring_.empty()) return false;
  out = ring_.front();
  ring_.pop_front();
  if (armed_watermark_ != 0 && ring_.size() < armed_watermark_) {
    armed_watermark_ = 0;  // one-shot until re-armed
    limit_events_.push(ring_.size());
  }
  return true;
}

void SharedReceiveQueue::add_waiter(QueuePair* qp) {
  if (qp->srq_waiting_) return;
  qp->srq_waiting_ = true;
  waiters_.push_back(qp);
}

void SharedReceiveQueue::remove_waiter(QueuePair* qp) {
  if (!qp->srq_waiting_) return;
  qp->srq_waiting_ = false;
  std::erase(waiters_, qp);
}

void SharedReceiveQueue::note_stall() {
  ++rnr_stalls_;
  if (stall_mirror_ != nullptr) ++*stall_mirror_;
}

// ---------------------------------------------------------------------------
// QueuePair

QueuePair::QueuePair(VerbsStack& stack, cluster::Host& host, CompletionQueue& send_cq,
                     CompletionQueue& recv_cq)
    : stack_(stack), host_(host), send_cq_(send_cq.sink()), recv_cq_(recv_cq.sink()) {}

QueuePair::~QueuePair() {
  if (srq_ != nullptr) srq_->remove_waiter(this);
}

void QueuePair::connect_to(const QueuePairPtr& peer) {
  peer_ = peer;
  remote_host_ = peer->host_.id();
}

void QueuePair::disconnect() {
  peer_.reset();
  if (srq_ != nullptr) srq_->remove_waiter(this);
}

std::vector<std::uint64_t> QueuePair::drain_posted_recvs() {
  std::vector<std::uint64_t> ids;
  ids.reserve(posted_recvs_.size());
  for (const PostedRecv& pr : posted_recvs_) ids.push_back(pr.wr_id);
  posted_recvs_.clear();
  return ids;
}

void QueuePair::post_recv(std::uint64_t wr_id, net::MutByteSpan buf) {
  if (srq_ != nullptr) throw VerbsError("QP attached to SRQ has no receive queue");
  posted_recvs_.push_back(PostedRecv{wr_id, buf});
  match_inbound();
}

void QueuePair::set_srq(SharedReceiveQueue* srq) {
  if (srq == nullptr && srq_ != nullptr) srq_->remove_waiter(this);
  srq_ = srq;
}

void QueuePair::match_inbound() {
  while (!inbound_.empty()) {
    PostedRecv pr;
    if (srq_ != nullptr) {
      if (!srq_->try_pop(pr)) {
        // RNR: the shared ring is dry. Park the remaining arrivals and
        // queue for the next buffer posted to the SRQ.
        srq_->add_waiter(this);
        return;
      }
    } else {
      if (posted_recvs_.empty()) return;
      pr = posted_recvs_.front();
      posted_recvs_.pop_front();
    }
    InboundMsg msg = std::move(inbound_.front());
    inbound_.pop_front();
    if (msg.data.size() > pr.buf.size()) throw VerbsError("recv buffer too small for SEND");
    // A zero-byte SEND has no source buffer to copy from.
    if (!msg.data.empty()) std::memcpy(pr.buf.data(), msg.data.data(), msg.data.size());
    recv_cq_.push(WorkCompletion{pr.wr_id, Opcode::kRecv,
                                 static_cast<std::uint32_t>(msg.data.size()), 0, context_});
    stack_.recycle_staging(std::move(msg.data));
  }
}

void QueuePair::on_send_arrival(net::Bytes data) {
  inbound_.push_back(InboundMsg{std::move(data)});
  match_inbound();
  // Count each arrival this QP could not deliver immediately for lack of a
  // shared buffer — the simulator's stand-in for an RNR NAK + sender retry.
  if (srq_ != nullptr && !inbound_.empty()) srq_->note_stall();
}

sim::Co<void> QueuePair::post_send(std::uint64_t wr_id, net::ByteSpan buf) {
  QueuePairPtr peer = peer_.lock();
  if (!peer) throw VerbsError("QP not connected");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);
  send_cq_.owe();

  // Doorbell: the posting thread writes the WQE and rings the HCA.
  co_await host_.compute(p.per_msg_send_cpu);

  net::Bytes payload = stack_.take_staging();
  payload.assign(buf.begin(), buf.end());
  const CompletionQueue::Sink scq = send_cq_;
  // Size read before the move: argument evaluation order is unspecified.
  const std::size_t wire_bytes = payload.size();
  const sim::Time arrival = fab.deliver_flow(
      host_.id(), peer->host_.id(), net::Transport::kIBVerbs, wire_bytes, send_clock_,
      [peer, payload = std::move(payload)]() mutable { peer->on_send_arrival(std::move(payload)); });
  // RC send completion after the ACK returns.
  fab.sched().call_at(arrival + p.one_way_latency, [scq, wr_id, n = buf.size()] {
    scq.complete(WorkCompletion{wr_id, Opcode::kSend, static_cast<std::uint32_t>(n), 0});
  });
  co_return;
}

sim::Co<void> QueuePair::post_rdma_write(std::uint64_t wr_id, net::Payload local,
                                         RemoteBuffer dst, std::optional<std::uint32_t> imm) {
  QueuePairPtr peer = peer_.lock();
  if (!peer) throw VerbsError("QP not connected");
  if (local.size() > dst.length) throw VerbsError("RDMA write larger than remote buffer");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);
  send_cq_.owe();

  co_await host_.compute(p.per_msg_send_cpu);

  // The HCA reads real bytes at post; a pattern needs no snapshot.
  net::Bytes snapshot(local.bytes().begin(), local.bytes().end());
  VerbsStack* stack = &stack_;
  const CompletionQueue::Sink scq = send_cq_;
  const std::size_t n = local.size();
  const bool pattern = local.is_pattern();
  const std::uint64_t seed = local.seed();
  const sim::Time arrival = fab.deliver_flow(
      host_.id(), peer->host_.id(), net::Transport::kIBVerbs, n, send_clock_,
      [stack, peer, dst, imm, n, pattern, seed, snapshot = std::move(snapshot)] {
        net::MutByteSpan target = stack->resolve(dst.rkey, dst.offset, n);
        if (!snapshot.empty()) std::memcpy(target.data(), snapshot.data(), n);
        if (imm) {
          // WRITE_WITH_IMM surfaces at the peer as a receive-type completion.
          WorkCompletion wc{0, Opcode::kRecvRdmaWithImm, static_cast<std::uint32_t>(n), *imm};
          wc.pattern = pattern;
          wc.pattern_seed = seed;
          peer->recv_cq_.push(wc);
        }
      });
  fab.sched().call_at(arrival + p.one_way_latency, [scq, wr_id, n] {
    scq.complete(WorkCompletion{wr_id, Opcode::kRdmaWrite, static_cast<std::uint32_t>(n), 0});
  });
  co_return;
}

sim::Co<void> QueuePair::post_rdma_read(std::uint64_t wr_id, net::MutByteSpan local,
                                        RemoteBuffer src) {
  QueuePairPtr peer = peer_.lock();
  if (!peer) throw VerbsError("QP not connected");
  if (src.length < local.size()) throw VerbsError("RDMA read larger than remote buffer");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);
  send_cq_.owe();

  co_await host_.compute(p.per_msg_send_cpu);

  // Request (small) to the responder...
  const sim::Time req_arrival =
      fab.reserve_egress(host_.id(), net::Transport::kIBVerbs, 32) + p.one_way_latency;
  // ...then data flows back, paying wire time on the responder's egress.
  VerbsStack* stack = &stack_;
  const CompletionQueue::Sink scq = send_cq_;
  cluster::HostId responder = peer->host_.id();
  cluster::HostId requester = host_.id();
  fab.sched().call_at(req_arrival, [&fab, stack, scq, wr_id, local, src, responder,
                                    requester, responder_qp = std::weak_ptr(peer)] {
    // The rkey resolves when the request *arrives* at the responder, and
    // again as the bytes land: a region deregistered before or while the
    // READ is in flight is a remote access error. The requester gets a
    // failed completion (status != 0) with an untouched buffer, never a
    // crash or a read of freed or reused memory. So does a READ whose
    // responder QP was torn down meanwhile: no QP is left to serve it.
    const WorkCompletion failed{wr_id, Opcode::kRdmaRead, 0, 0, 0, /*status=*/1};
    const QueuePairPtr served_by = responder_qp.lock();
    if (!served_by || !served_by->connected()) {
      scq.complete(failed);
      return;
    }
    try {
      (void)stack->resolve(src.rkey, src.offset, local.size());
    } catch (const VerbsError&) {
      scq.complete(failed);
      return;
    }
    fab.deliver(responder, requester, net::Transport::kIBVerbs, local.size(),
                [stack, scq, wr_id, local, src, failed] {
                  net::MutByteSpan source;
                  try {
                    source = stack->resolve(src.rkey, src.offset, local.size());
                  } catch (const VerbsError&) {
                    scq.complete(failed);
                    return;
                  }
                  std::memcpy(local.data(), source.data(), local.size());
                  scq.complete(WorkCompletion{wr_id, Opcode::kRdmaRead,
                                           static_cast<std::uint32_t>(local.size()), 0});
                });
  });
  co_return;
}

// ---------------------------------------------------------------------------
// UdEndpoint

UdEndpoint::UdEndpoint(VerbsStack& stack, cluster::Host& host, CompletionQueue& send_cq,
                       CompletionQueue& recv_cq)
    : stack_(stack), host_(host), send_cq_(send_cq.sink()), recv_cq_(recv_cq.sink()) {
  qpn_ = stack_.ud_register(this);
}

UdEndpoint::~UdEndpoint() { stack_.ud_unregister(qpn_); }

void UdEndpoint::post_recv(std::uint64_t wr_id, net::MutByteSpan buf) {
  ring_.push_back(PostedRecv{wr_id, buf});
}

std::vector<std::uint64_t> UdEndpoint::drain_posted_recvs() {
  std::vector<std::uint64_t> ids;
  ids.reserve(ring_.size());
  for (const PostedRecv& pr : ring_) ids.push_back(pr.wr_id);
  ring_.clear();
  return ids;
}

sim::Co<void> UdEndpoint::post_send(std::uint64_t wr_id, const AddressHandle& ah,
                                    net::ByteSpan buf) {
  if (buf.size() > kMtu) throw VerbsError("UD send exceeds path MTU");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);
  send_cq_.owe();

  // Doorbell: same WQE cost as an RC send.
  co_await host_.compute(p.per_msg_send_cpu);

  net::Bytes payload = stack_.take_staging();
  payload.assign(buf.begin(), buf.end());
  VerbsStack* stack = &stack_;
  const cluster::HostId src_host = host_.id();
  const std::uint32_t src_qpn = qpn_;
  const std::uint32_t dst_qpn = ah.qpn;
  // Destination resolution happens at arrival: a datagram to an endpoint
  // that no longer exists simply vanishes.
  const sim::Time arrival = fab.deliver_datagram(
      src_host, ah.host, net::Transport::kIBVerbs, kGrhBytes + payload.size(),
      [stack, src_host, src_qpn, dst_qpn, payload = std::move(payload)]() mutable {
        UdEndpoint* ep = stack->ud_lookup(dst_qpn);
        if (ep != nullptr) ep->on_datagram_arrival(src_host, src_qpn, std::move(payload));
      });
  // UD send completion once the datagram is on the wire — no ACK, so the
  // completion is identical whether or not the datagram ever arrives.
  const CompletionQueue::Sink scq = send_cq_;
  fab.sched().call_at(arrival - p.one_way_latency, [scq, wr_id, n = buf.size()] {
    scq.complete(WorkCompletion{wr_id, Opcode::kSend, static_cast<std::uint32_t>(n), 0});
  });
  co_return;
}

void UdEndpoint::on_datagram_arrival(cluster::HostId src_host, std::uint32_t src_qpn,
                                     net::Bytes data) {
  // No posted receive (ring overrun) or an undersized head buffer: the
  // datagram is silently dropped. UD has no RNR backpressure — recovery is
  // the caller's problem (RPCoIB rides the session/retry path).
  if (ring_.empty()) {
    ++rx_dropped_;
    stack_.recycle_staging(std::move(data));
    return;
  }
  PostedRecv pr = ring_.front();
  ring_.pop_front();
  if (kGrhBytes + data.size() > pr.buf.size()) {
    ++rx_dropped_;
    stack_.recycle_staging(std::move(data));
    return;
  }
  // GRH-style source addressing: the first kGrhBytes of the receive buffer
  // name the sender, so the receiver can reply with zero per-sender state.
  net::write_frame(pr.buf, Grh{static_cast<std::uint32_t>(src_host), src_qpn});
  // A zero-length datagram is legal; std::copy also takes its empty range.
  std::copy(data.begin(), data.end(), pr.buf.begin() + kGrhBytes);
  recv_cq_.push(WorkCompletion{pr.wr_id, Opcode::kRecv,
                               static_cast<std::uint32_t>(kGrhBytes + data.size()), 0,
                               context_});
  stack_.recycle_staging(std::move(data));
}

// ---------------------------------------------------------------------------
// ConnectionManager

sim::Co<QueuePairPtr> ConnectionManager::connect(cluster::Host& src, net::Address addr,
                                                 CompletionQueue& send_cq,
                                                 CompletionQueue& recv_cq,
                                                 net::Transport mgmt_transport,
                                                 std::uint64_t local_eager_threshold,
                                                 std::uint64_t* peer_eager_threshold,
                                                 std::uint64_t session_id) {
  net::SocketPtr sock = co_await sockets_.connect(src, addr, mgmt_transport);
  // Injected fault hook: the management socket worked, but the verbs-level
  // exchange (SM path resolution, GID lookup) fails. Distinct from a dead
  // server — that surfaces as a SocketError above.
  if (stack_.take_bootstrap_failure()) {
    sock->close();
    throw VerbsError("connection manager: bootstrap exchange failed (injected)");
  }
  auto qp = std::make_shared<QueuePair>(stack_, src, send_cq, recv_cq);

  // Exchange endpoint info: send ours, wait for the peer's. The server
  // stashes the half-open QP in the stack's rendezvous table keyed by a
  // cookie carried in the payload; since both ends live in one process we
  // pass the pointer through the socket payload's identity instead — the
  // accept() side pairs on the same socket.
  // Our eager threshold (0 = not advertised) and durable session id (0 =
  // sessionless) ride the blob; both words were zero before, so an
  // unadvertised blob stays wire-identical.
  const std::uintptr_t cookie = reinterpret_cast<std::uintptr_t>(qp.get());
  stack_.cm_register(cookie, qp);
  co_await sock->write(net::encode_frame(BootstrapInfo{cookie, local_eager_threshold, session_id}));

  net::Bytes reply(BootstrapInfo::kBytes);
  co_await sock->read_full(reply);
  stack_.cm_erase(cookie);
  if (!qp->connected()) throw VerbsError("connection manager: pairing failed");
  BootstrapInfo peer;
  net::decode_frame(reply, peer);
  if (peer_eager_threshold != nullptr) *peer_eager_threshold = peer.peer_eager_threshold;
  sock->close();
  co_return qp;
}

sim::Co<ConnectionManager::BootstrapInfo> ConnectionManager::read_bootstrap(
    net::SocketPtr bootstrap) {
  net::Bytes info(BootstrapInfo::kBytes);
  co_await bootstrap->read_full(info);
  BootstrapInfo out;
  net::decode_frame(info, out);
  co_return out;
}

sim::Co<QueuePairPtr> ConnectionManager::accept(net::SocketPtr bootstrap,
                                                const BootstrapInfo& info,
                                                CompletionQueue& send_cq,
                                                CompletionQueue& recv_cq,
                                                std::uint64_t local_eager_threshold) {
  QueuePairPtr client_qp = stack_.cm_lookup(info.cookie);
  if (!client_qp) throw VerbsError("connection manager: unknown endpoint cookie");

  auto qp = std::make_shared<QueuePair>(stack_, bootstrap->local(), send_cq, recv_cq);
  qp->connect_to(client_qp);
  client_qp->connect_to(qp);

  co_await bootstrap->write(net::encode_frame(BootstrapInfo{0, local_eager_threshold, 0}));
  co_return qp;
}

sim::Co<QueuePairPtr> ConnectionManager::accept(net::SocketPtr bootstrap,
                                                CompletionQueue& send_cq,
                                                CompletionQueue& recv_cq,
                                                std::uint64_t local_eager_threshold,
                                                std::uint64_t* peer_eager_threshold) {
  const BootstrapInfo info = co_await read_bootstrap(bootstrap);
  if (peer_eager_threshold != nullptr) *peer_eager_threshold = info.peer_eager_threshold;
  QueuePairPtr qp =
      co_await accept(bootstrap, info, send_cq, recv_cq, local_eager_threshold);
  co_return qp;
}

}  // namespace rpcoib::verbs
