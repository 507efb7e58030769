#include "rpcoib/rdma_client.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "rpcoib/onesided.hpp"
#include "trace/trace.hpp"

namespace rpcoib::oib {

namespace {

/// wr_id carries the pooled buffer pointer (0 = no buffer attached).
std::uint64_t wr_of(NativeBuffer* b) { return reinterpret_cast<std::uint64_t>(b); }
NativeBuffer* buf_of(std::uint64_t wr) { return reinterpret_cast<NativeBuffer*>(wr); }

/// A kResp body read in place (past [type][id]): the status byte, then the
/// error text or the response's fields. Returns the status.
std::uint8_t read_reply(RDMAInputStream& in, rpc::Writable* response, std::string& error_msg) {
  const std::uint8_t status = in.read_u8();
  if (status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess)) {
    error_msg = in.read_text();
  } else if (response != nullptr) {
    response->read_fields(in);
  }
  return status;
}

}  // namespace

RdmaRpcClient::RdmaRpcClient(cluster::Host& host, net::SocketTable& sockets,
                             verbs::VerbsStack& stack, RdmaClientConfig cfg)
    : host_(host),
      sockets_(sockets),
      stack_(stack),
      cm_(stack, sockets),
      cfg_(cfg),
      native_(host, stack, cfg.pool),
      shadow_(native_),
      pool_ready_(host.sched()) {
  // Pre-posted receive buffers must hold any eager frame plus headers.
  cfg_.recv_buf_size = std::max(cfg_.recv_buf_size, cfg_.eager_threshold + 512);
  // Register the pool at construction ("library load" in the paper) so
  // the cost is off every call's critical path.
  host_.sched().spawn(init_pool_task());
}

sim::Task RdmaRpcClient::init_pool_task() {
  co_await native_.initialize();
  pool_ready_.set();
}

RdmaRpcClient::~RdmaRpcClient() { close_connections(); }

void RdmaRpcClient::close_connections() {
  for (auto& [addr, conn] : connections_) {
    // Cancel before tearing anything down: loops suspended mid-completion
    // resume later and must bail instead of touching the dead client/pool.
    conn->cancelled = true;
    if (conn->qp) {
      // Pre-posted receive slots still hold pooled buffers; reclaim them
      // before the QP goes away or the pool leaks a slot per recv.
      native_.release_posted(conn->qp->drain_posted_recvs());
      conn->qp->disconnect();
    }
    conn->cq.close();
    fail_all(*conn, "client shutdown");
  }
  connections_.clear();
  if (ud_) {
    ud_->cancelled = true;
    if (ud_->ep) {
      // Posted ring slots hold pooled buffers; reclaim before the
      // endpoint dies or the pool leaks one slot per posted recv.
      native_.release_posted(ud_->ep->drain_posted_recvs());
    }
    ud_->cq.close();
    fail_pending(ud_->pending, "client shutdown");
    ud_.reset();
  }
  ud_dests_.clear();
  fallback_addrs_.clear();
  if (fallback_) fallback_->close_connections();
}

void RdmaRpcClient::release_rendezvous(PendingCall& pc) {
  if (pc.rendezvous_buf != nullptr) {
    native_.release(pc.rendezvous_buf);
    pc.rendezvous_buf = nullptr;
  }
}

void RdmaRpcClient::fail_all(Connection& conn, const std::string& why) {
  conn.broken = true;
  fail_pending(conn.pending, why);
}

void RdmaRpcClient::fail_pending(std::map<std::uint64_t, PendingCall*>& pending,
                                 const std::string& why) {
  for (auto& [id, pc] : pending) {
    // Return in-flight rendezvous sources to the pool before waking the
    // caller: a drained scheduler may never resume the call coroutine, so
    // the release cannot be left to it.
    release_rendezvous(*pc);
    pc->transport_error = true;
    pc->error_msg = why;
    pc->done.set();
  }
  pending.clear();
}

sim::Co<RdmaRpcClient::ConnectionPtr> RdmaRpcClient::get_connection(net::Address addr) {
  co_await pool_ready_.wait();
  for (;;) {
    auto it = connections_.find(addr);
    if (it == connections_.end()) break;
    ConnectionPtr conn = it->second;
    if (conn->broken) {
      connections_.erase(it);
      break;
    }
    co_await conn->ready.wait();
    if (!conn->broken && conn->qp && !conn->qp->connected()) {
      // The server tore the QP down under us (idle-connection eviction):
      // reclaim the pre-posted receive buffers, close the CQ so the old
      // receive loop exits, fail anything still parked on the connection,
      // and fall through to bootstrap a fresh one transparently.
      conn->cancelled = true;
      native_.release_posted(conn->qp->drain_posted_recvs());
      conn->cq.close();
      fail_all(*conn, "QP closed by peer");
      note_reconnect(rpc::ReconnectCause::kIdleEvicted);
    }
    if (!conn->broken) co_return conn;
    // Woke up on a broken connection: drop it unless a replacement already
    // took its place, then loop to adopt (or bootstrap) the current one.
    erase_if_current(connections_, addr, conn);
  }

  auto raw = std::make_shared<Connection>(host_.sched(), batch_);
  connections_[addr] = raw;
  try {
    // Bootstrap over the server's socket address (Section III-D),
    // exchanging eager thresholds in the endpoint-info blob, then
    // pre-post pooled receive buffers for eager traffic.
    // The durable session id (0 when sessions are off) rides the same
    // endpoint-info blob, so a reconnect re-announces it for free.
    std::uint64_t peer_threshold = 0;
    raw->qp = co_await cm_.connect(host_, addr, raw->cq, raw->cq,
                                   net::Transport::kIPoIB,
                                   static_cast<std::uint64_t>(cfg_.eager_threshold),
                                   &peer_threshold, session_id(host_));
    // Ring sizing follows the negotiated handshake, not the construction
    // clamp (which only saw the local knob).
    const EagerNegotiation eager =
        negotiate_eager(cfg_.eager_threshold, peer_threshold, cfg_.recv_buf_size);
    raw->eager_threshold = eager.threshold;
    if (eager.mismatch) ++stats_.threshold_mismatches;
    for (int i = 0; i < cfg_.recv_depth; ++i) {
      NativeBuffer* rb = native_.acquire(eager.ring_buf);
      raw->qp->post_recv(wr_of(rb), rb->span);
    }
  } catch (const verbs::VerbsError& e) {
    // A verbs-level bootstrap failure (exchange went wrong, not a dead
    // server): surface it unchanged so call_attempt can fall back to
    // socket mode.
    raw->ready.set();
    fail_all(*raw, e.what());
    erase_if_current(connections_, addr, raw);
    throw;
  } catch (const std::exception& e) {
    raw->ready.set();
    fail_all(*raw, e.what());
    erase_if_current(connections_, addr, raw);
    throw rpc::RpcTransportError(e.what());
  }
  host_.sched().spawn(receive_loop(raw));
  raw->ready.set();
  ++stats_.connections_opened;
  co_return raw;
}

void RdmaRpcClient::teardown_connection(const ConnectionPtr& conn, net::Address addr,
                                        rpc::ReconnectCause cause, const std::string& why) {
  if (conn->qp) {
    // Still-posted receive slots hold pooled buffers; reclaim them before
    // the QP breaks or the pool leaks a slot per pre-posted recv.
    native_.release_posted(conn->qp->drain_posted_recvs());
    conn->qp->disconnect();
  }
  // NOT cancelled and the CQ stays open: completions already scheduled
  // (the in-flight kSend, READ completions, stale responses) still land,
  // and the still-running receive loop recycles their pooled buffers —
  // the pool balance survives the teardown. The loop parks harmlessly on
  // the open CQ afterwards.
  fail_all(*conn, why);
  note_reconnect(cause);
  erase_if_current(connections_, addr, conn);
}

void RdmaRpcClient::repost_recv(const ConnectionPtr& conn, NativeBuffer* buf,
                                bool is_recv_slot) {
  if (!is_recv_slot || conn->broken || !conn->qp->connected()) {
    native_.release(buf);
    return;
  }
  conn->qp->post_recv(wr_of(buf), buf->span);
}

void RdmaRpcClient::deliver_response(const ConnectionPtr& conn, net::ByteSpan frame,
                                     NativeBuffer* buf, bool is_recv_slot) {
  // frame = [u8 kResp][u64 id][u8 status][...]; a shorter one is dropped.
  auto it = frame.size() < 10 ? conn->pending.end()
                              : conn->pending.find(read_be64(frame.data() + 1));
  if (it == conn->pending.end()) {
    repost_recv(conn, buf, is_recv_slot);  // stale (or malformed): recycle the buffer
    return;
  }
  PendingCall* pc = it->second;
  conn->pending.erase(it);
  pc->resp = frame;
  pc->resp_buf = buf;
  pc->resp_is_recv_slot = is_recv_slot;
  pc->done.set();
}

sim::Task RdmaRpcClient::fetch_response(ConnectionPtr conn, std::uint32_t rkey,
                                        std::uint64_t off, std::uint32_t len) {
  NativeBuffer* dst = shadow_.acquire_sized(len);
  const std::uint64_t token = (conn->next_read_token++ << 1) | 1;
  sim::SimEvent read_done(host_.sched());
  conn->read_waiters[token] = &read_done;
  try {
    net::MutByteSpan into(dst->span.data(), len);
    co_await conn->qp->post_rdma_read(token, into, verbs::RemoteBuffer{rkey, off, len});
    co_await read_done.wait();  // receive_loop routes the completion here
    conn->read_waiters.erase(token);
    // Client torn down while the READ was in flight: the pool died with
    // it, so the lease cannot be returned — just stop.
    if (conn->cancelled) co_return;
    const ControlFrame ack(Control{FrameType::kAck, rkey});
    co_await conn->qp->post_send(wr_of(nullptr), ack.span());
    if (conn->cancelled) co_return;
    deliver_response(conn, net::ByteSpan(dst->span.data(), len), dst, /*is_recv_slot=*/false);
  } catch (const std::exception& e) {
    conn->read_waiters.erase(token);
    if (conn->cancelled) co_return;
    native_.release(dst);
    fail_all(*conn, e.what());
  }
}

sim::Task RdmaRpcClient::receive_loop(ConnectionPtr conn) {
  // Hoisted: this loop may outlive the client object; after a suspension
  // it re-checks conn->cancelled before touching client members.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await conn->cq.wait();
      if (conn->cancelled) co_return;
      switch (wc.opcode) {
        case verbs::Opcode::kSend: {
          // Eager frame is on the wire; pooled source (if any) is reusable.
          if (NativeBuffer* b = buf_of(wc.wr_id); b != nullptr) native_.release(b);
          break;
        }
        case verbs::Opcode::kRdmaRead: {
          auto it = conn->read_waiters.find(wc.wr_id);
          if (it != conn->read_waiters.end()) {
            if (wc.status != 0) conn->read_errors.insert(wc.wr_id);
            it->second->set();
          }
          break;
        }
        case verbs::Opcode::kRecv: {
          NativeBuffer* rb = buf_of(wc.wr_id);
          net::ByteSpan frame(rb->span.data(), wc.byte_len);
          co_await host.compute(cm.cq_poll() + cm.thread_wakeup() + cm.rpc_framework());
          if (conn->cancelled) co_return;
          const auto type = static_cast<FrameType>(frame[0]);
          if (type == FrameType::kResp) {
            deliver_response(conn, frame, rb, /*is_recv_slot=*/true);
            // NOTE: reposted by the caller after deserialization.
          } else if (type == FrameType::kBatch) {
            // Server-coalesced eager responses: split into pooled copies
            // (each sub-response owns its buffer like a fetched response),
            // then recycle the receive slot. One copy charge covers the
            // whole frame; a malformed frame is dropped whole.
            std::vector<net::ByteSpan> subs;
            if (split_batch(frame, subs) == BatchSplit::kOk) {
              co_await host.compute(cm.direct_copy(wc.byte_len));
              if (conn->cancelled) co_return;
              for (const net::ByteSpan sub_frame : subs) {
                NativeBuffer* sub = shadow_.acquire_sized(sub_frame.size());
                std::memcpy(sub->span.data(), sub_frame.data(), sub_frame.size());
                deliver_response(conn, net::ByteSpan(sub->span.data(), sub_frame.size()), sub,
                                 /*is_recv_slot=*/false);
              }
            }
            repost_recv(conn, rb);
          } else {
            Control c;
            const bool control = parse_control(frame, c);
            if (control && c.type == FrameType::kCtrlResp) {
              host_.sched().spawn(fetch_response(conn, c.rkey, c.off, c.len));
            } else if (control && c.type == FrameType::kNack) {
              // The server refused to RDMA-READ our rendezvous source (its
              // pool hit the demand-allocation cap). Wake the call, which
              // retries over the socket path.
              for (auto it = conn->pending.begin(); it != conn->pending.end(); ++it) {
                PendingCall* pc = it->second;
                if (pc->rendezvous_buf != nullptr && pc->rendezvous_buf->mr.rkey == c.rkey) {
                  conn->pending.erase(it);
                  pc->nacked = true;
                  pc->done.set();
                  break;
                }
              }
            }
            repost_recv(conn, rb);  // an unknown or short frame is dropped
          }
          break;
        }
        default:
          break;
      }
    }
  } catch (const sim::ChannelClosed&) {
    // Shutdown path.
  } catch (const verbs::VerbsError& e) {
    const bool was_broken = conn->broken;
    fail_all(*conn, e.what());
    if (!conn->cancelled && !was_broken) {
      note_reconnect(rpc::ReconnectCause::kQpError);
    }
  }
}

sim::Co<void> RdmaRpcClient::flush_batch(ConnectionPtr conn, std::vector<net::Bytes> items,
                                         trace::TraceContext ctx) {
  // Hoisted like receive_loop: the computes below may outlive the client.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  const sim::Time t0 = host.sched().now();

  // [u8 kBatch][u32 count][u32 len_i x count][kCall sub-frames...] encoded
  // straight into a pooled registered buffer — one doorbell for the lot.
  const std::size_t total = batch_frame_size(items);
  NativeBuffer* fb = shadow_.acquire_sized(total);
  encode_batch(items, fb->span.data());
  const sim::Dur encode_cost = cm.direct_copy(total) + cm.jni_call();
  co_await host.compute(encode_cost);
  // Client torn down while we computed: the pool died with it, so the
  // lease cannot be returned — just stop.
  if (conn->cancelled) co_return;
  if (conn->broken) {
    native_.release(fb);
    co_return;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await conn->qp->post_send(wr_of(fb), wire);
    // fb is released by receive_loop at the kSend completion.
  } catch (const std::exception& e) {
    if (conn->cancelled) co_return;
    native_.release(fb);
    fail_all(*conn, e.what());
    co_return;
  }
  if (conn->cancelled) co_return;
  note_batch_sent(ctx, t0);
}

std::size_t RdmaRpcClient::ud_budget() const {
  // A datagram must fit the path MTU; eager semantics additionally cap
  // the inner frame at the local threshold (no handshake exists on the
  // connectionless path to negotiate one — server UD rings are sized for
  // a full MTU, so the MTU is the only hard wire limit).
  return std::min(cfg_.eager_threshold + kUdHeaderBytes, verbs::UdEndpoint::kMtu);
}

verbs::AddressHandle RdmaRpcClient::ud_target(const verbs::UdService& svc,
                                              std::uint64_t sid,
                                              std::uint64_t call_id) const {
  const std::size_t i = static_cast<std::size_t>((sid ^ call_id) % svc.qpns.size());
  return verbs::AddressHandle{svc.host, svc.qpns[i]};
}

RdmaRpcClient::UdStatePtr RdmaRpcClient::ud_state() {
  if (!ud_) {
    ud_ = std::make_shared<UdState>(host_.sched());
    ud_->ep = std::make_unique<verbs::UdEndpoint>(stack_, host_, ud_->cq, ud_->cq);
    // Ring buffers hold a GRH-prefixed full-MTU datagram each; the depth
    // bounds the client's registered-memory cost per the flat-state goal.
    const std::size_t ring_buf = verbs::UdEndpoint::kGrhBytes + verbs::UdEndpoint::kMtu;
    for (int i = 0; i < cfg_.ud.client_recv_depth; ++i) {
      NativeBuffer* rb = native_.acquire(ring_buf);
      ud_->ep->post_recv(wr_of(rb), rb->span);
    }
    host_.sched().spawn(ud_receive_loop(ud_));
  }
  return ud_;
}

sim::Task RdmaRpcClient::ud_receive_loop(UdStatePtr ud) {
  // Hoisted like receive_loop: the loop may outlive the client object and
  // re-checks ud->cancelled after every resumption.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await ud->cq.wait();
      if (ud->cancelled) co_return;
      if (wc.opcode == verbs::Opcode::kSend) {
        if (NativeBuffer* b = buf_of(wc.wr_id); b != nullptr) native_.release(b);
        continue;
      }
      if (wc.opcode != verbs::Opcode::kRecv) continue;
      NativeBuffer* rb = buf_of(wc.wr_id);
      // Charge the poll + the copy out of the ring slot up front so the
      // demux below runs without a suspension between lookup and wakeup.
      co_await host.compute(cm.cq_poll() + cm.thread_wakeup() + cm.rpc_framework() +
                            cm.direct_copy(wc.byte_len));
      if (ud->cancelled) co_return;
      const std::size_t grh = verbs::UdEndpoint::kGrhBytes;
      if (wc.byte_len > grh + 9) {
        net::ByteSpan frame(rb->span.data() + grh, wc.byte_len - grh);
        if (static_cast<FrameType>(frame[0]) == FrameType::kResp) {
          const std::uint64_t id = read_be64(frame.data() + 1);
          auto it = ud->pending.find(id);
          if (it != ud->pending.end()) {
            PendingCall* pc = it->second;
            ud->pending.erase(it);
            // Copy into a pooled buffer so the ring slot reposts
            // immediately; the caller releases the copy after
            // deserialization (never a recv slot on the UD path).
            NativeBuffer* copy = shadow_.acquire_sized(frame.size());
            std::memcpy(copy->span.data(), frame.data(), frame.size());
            pc->resp = net::ByteSpan(copy->span.data(), frame.size());
            pc->resp_buf = copy;
            pc->resp_is_recv_slot = false;
            pc->done.set();
            ++stats_.ud_responses_received;
          }
          // else: a late duplicate (the retry already completed) — drop;
          // server-side dedup guarantees it carries the same payload.
        }
      }
      if (!ud->cancelled && ud->ep) {
        ud->ep->post_recv(wr_of(rb), rb->span);
      } else {
        native_.release(rb);
      }
    }
  } catch (const sim::ChannelClosed&) {
    // Shutdown path.
  }
}

std::size_t RdmaRpcClient::ud_batch_limit() const {
  return std::min(batch_.max_bytes,
                  std::min(cfg_.eager_threshold, verbs::UdEndpoint::kMtu - 512));
}

sim::Co<void> RdmaRpcClient::ud_flush_batch(UdSink sink, std::vector<net::Bytes> items,
                                            trace::TraceContext ctx) {
  const UdStatePtr& ud = sink.ud;
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  const sim::Time t0 = host.sched().now();

  // [u8 kUdCall][u64 session][u8 kBatch][u32 count][u32 len_i][sub-frames]
  // — one datagram, one doorbell for the lot.
  const std::uint64_t sid = session_id(host_);
  const std::size_t total = kUdHeaderBytes + batch_frame_size(items);
  NativeBuffer* fb = shadow_.acquire_sized(total);
  net::Byte* p = fb->span.data();
  p[0] = static_cast<net::Byte>(FrameType::kUdCall);
  for (int i = 0; i < 8; ++i) {
    p[1 + i] = static_cast<net::Byte>((sid >> (8 * (7 - i))) & 0xff);
  }
  encode_batch(items, p + kUdHeaderBytes);
  co_await host.compute(cm.direct_copy(total) + cm.jni_call());
  if (ud->cancelled) co_return;
  const verbs::UdService* svc = stack_.ud_service(sink.addr);
  if (svc == nullptr || svc->qpns.empty() || !ud->ep) {
    // Service withdrawn (server stopped): the datagrams are "lost"; the
    // callers time out and their retries take the RC or socket path.
    native_.release(fb);
    co_return;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await ud->ep->post_send(wr_of(fb), ud_target(*svc, sid, sink.dest->batcher().epoch()),
                               wire);
    // fb is released by ud_receive_loop at the kSend completion.
  } catch (const std::exception&) {
    if (ud->cancelled) co_return;
    // A failed post is indistinguishable from a lost datagram: drop it
    // and let the per-call timeouts drive the retries.
    native_.release(fb);
    co_return;
  }
  if (ud->cancelled) co_return;
  ++stats_.ud_datagrams_sent;
  note_batch_sent(ctx, t0);
}

sim::Co<bool> RdmaRpcClient::call_attempt_ud(net::Address addr, const verbs::UdService& svc,
                                             const rpc::MethodKey& key,
                                             const rpc::Writable& param,
                                             rpc::Writable* response,
                                             std::uint64_t call_id, bool retried,
                                             trace::TraceCollector* tr,
                                             const trace::TraceContext& t_parent) {
  co_await pool_ready_.wait();
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(tr, "rpc.ud:" + key.method, trace::Kind::kClient,
                       trace::Category::kWire, t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  co_await host_.compute(cm.rpc_framework());

  // --- Serialize the whole datagram: wrapper + a complete kCall frame ---
  const std::uint64_t sid = session_id(host_);
  const sim::Time t_ser_start = host_.sched().now();
  RDMAOutputStream out(cm, shadow_, key);
  try {
    out.write_u8(static_cast<std::uint8_t>(FrameType::kUdCall));
    out.write_u64(sid);
    out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
    write_call_header(out, call_id, retried, key, ctx);
    param.write(out);
  } catch (const PoolExhaustedError&) {
    // Let the RC path re-serialize and run its pool-exhaustion degrade
    // (socket fallback); the stream destructor returns the partial lease.
    rpc.end();
    co_return false;
  }
  co_await host_.compute(out.take_accrued());
  const sim::Time t_serialized = host_.sched().now();

  const std::uint64_t regets = out.regets();
  const std::size_t dg_len = out.length();
  const std::size_t msg_len = dg_len - kUdHeaderBytes;  // inner frame
  if (dg_len > ud_budget()) {
    // Too big for one datagram: release the lease and let the RC path
    // take it (eager-over-RC or rendezvous).
    native_.release(out.take_buffer());
    rpc.end();
    co_return false;
  }
  trace_phase(tr, ctx, "serialize", trace::Category::kSerialization, t_ser_start, t_serialized);
  const net::ByteSpan dg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(key, dg_len);

  UdStatePtr ud = ud_state();
  PendingCall pc(host_.sched());
  ud->pending[call_id] = &pc;

  // --- Send: coalesced when small, else one datagram ---------------------
  const bool batchable = batch_.batchable(msg_len) && msg_len <= ud_batch_limit();
  try {
    if (batchable) {
      // Append the *inner* frame: the flush re-wraps the batch in one
      // kUdCall header carrying the shared session id.
      net::Bytes payload(dg.begin() + kUdHeaderBytes, dg.end());
      native_.release(buf);
      buf = nullptr;
      co_await host_.compute(cm.direct_copy(msg_len));
      std::shared_ptr<rpc::Coalescer<UdSink>>& dest = ud_dests_[addr];
      if (!dest) dest = std::make_shared<rpc::Coalescer<UdSink>>(batch_);
      const UdSink sink{this, ud, dest, addr};
      co_await dest->append(sink, std::move(payload), ctx);
    } else {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      co_await ud->ep->post_send(wr_of(buf), ud_target(svc, sid, call_id), dg);
      buf = nullptr;  // released by ud_receive_loop at the kSend completion
      ++stats_.ud_datagrams_sent;
    }
  } catch (const std::exception& e) {
    ud->pending.erase(call_id);
    if (buf != nullptr) native_.release(buf);
    throw rpc::RpcTransportError(e.what());
  }
  const sim::Time t_sent = host_.sched().now();
  if (const trace::SpanId send =
          trace_phase(tr, ctx, "send", trace::Category::kSend, t_serialized, t_sent)) {
    tr->annotate(send, "path", batchable ? "ud-batched" : "ud");
  }

  rpc::MethodProfile& prof = record_sent(key, regets, msg_len, t_start, t_serialized, t_sent);

  // --- Wait. A lost datagram (either direction) is pure silence: the
  // per-attempt timeout fires and the outer retry loop retransmits with
  // the retry flag set; the server's session-keyed retry cache makes the
  // re-execution window exactly-once. ------------------------------------
  const bool replied = co_await await_reply(pc.done);
  if (!replied) {
    ud->pending.erase(call_id);  // a late response is dropped by the receive loop
    throw timeout_error();
  }
  if (pc.transport_error) throw rpc::RpcTransportError(pc.error_msg);

  // --- Deserialize from the pooled copy ---------------------------------
  const sim::Time t_deser = host_.sched().now();
  RDMAInputStream in(cm, pc.resp.subspan(9));  // skip [type][id]
  std::string error_msg;
  const std::uint8_t status = read_reply(in, response, error_msg);
  co_await host_.compute(in.take_accrued());
  trace_phase(tr, ctx, "deserialize", trace::Category::kSerialization, t_deser,
              host_.sched().now());
  native_.release(pc.resp_buf);
  if (status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess)) {
    throw_status(status, error_msg);
  }
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
  co_return true;
}

sim::Co<void> RdmaRpcClient::call_via_fallback(net::Address addr, const rpc::MethodKey& key,
                                               const rpc::Writable& param,
                                               rpc::Writable* response) {
  if (!fallback_) {
    fallback_ = std::make_unique<rpc::SocketRpcClient>(host_, sockets_,
                                                       net::Transport::kIPoIB);
    // The fallback client enforces only the per-attempt deadline; retries
    // and backoff stay with this client's outer retry loop.
    rpc::RpcRetryPolicy attempt_only;
    attempt_only.call_timeout = retry_.call_timeout;
    fallback_->set_retry_policy(attempt_only);
    fallback_->set_batch(batch_);
    // The fallback endpoint is its own client and mints its own durable
    // session id; it only needs the same knob so its calls stay dedupable.
    fallback_->set_session(session_);
  }
  const net::Address companion{addr.host,
                               static_cast<std::uint16_t>(addr.port + kSocketFallbackPortOffset)};
  co_await fallback_->call(companion, key, param, response);
}

sim::Co<bool> RdmaRpcClient::call_attempt_onesided(net::Address addr,
                                                   const rpc::MethodKey& key,
                                                   const rpc::Writable& param,
                                                   rpc::Writable* response,
                                                   trace::TraceCollector* tr,
                                                   const trace::TraceContext& t_parent) {
  const std::optional<std::string> entity = param.onesided_key(key.protocol, key.method);
  if (!entity) co_return false;
  auto cached = onesided_cache_.find(addr);
  if (cached == onesided_cache_.end()) {
    const verbs::OneSidedService* adv = stack_.onesided_service(addr);
    if (adv == nullptr) co_return false;  // server exports no region
    cached = onesided_cache_.emplace(addr, *adv).first;
  }
  verbs::OneSidedService svc = cached->second;
  constexpr std::size_t kMeta =
      OneSidedRegion::kHeaderBytes + OneSidedRegion::kTrailerBytes;
  if (svc.slots == 0 || svc.slot_bytes <= kMeta) co_return false;
  ConnectionPtr conn;
  try {
    conn = co_await get_connection(addr);
  } catch (const verbs::VerbsError&) {
    co_return false;  // the RPC path owns bootstrap-failure fallback
  }
  // Connection-kill fault hook (mirrors the RPC send path): a scheduled
  // kill fires on the first attempt that touches the link, one-sided
  // READs included. The fallback RPC re-bootstraps and carries the call
  // through the session/retry machinery.
  if (!conn->broken && take_kill(stack_.fabric(), addr)) {
    teardown_connection(conn, addr, rpc::ReconnectCause::kFaultInjected,
                        "connection killed (injected fault)");
    ++stats_.onesided_fallbacks;
    co_return false;
  }
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  const std::uint64_t h =
      OneSidedRegion::hash_key(rpc::onesided_entry_key(key.protocol, key.method, *entity));

  NativeBuffer* dst = shadow_.try_acquire_sized(svc.slot_bytes);
  if (dst == nullptr) {
    ++stats_.onesided_fallbacks;  // capped pool refused the staging lease
    co_return false;
  }
  // Fallback ladder: seqlock conflict (bounded retries) -> stale
  // generation (one advertisement refresh) -> miss -> RPC. Every exit
  // below releases `dst` exactly once; a cancelled client is the one
  // exception — the pool died with it (same rule as fetch_response).
  bool refreshed = false;
  int conflicts = 0;
  for (;;) {
    const std::size_t slot = static_cast<std::size_t>(h % svc.slots);
    const std::uint64_t token = (conn->next_read_token++ << 1) | 1;
    sim::SimEvent read_done(host_.sched());
    conn->read_waiters[token] = &read_done;
    bool read_failed = false;
    try {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      net::MutByteSpan into(dst->span.data(), svc.slot_bytes);
      co_await conn->qp->post_rdma_read(
          token, into,
          verbs::RemoteBuffer{svc.rkey,
                              static_cast<std::uint64_t>(slot) * svc.slot_bytes,
                              svc.slot_bytes});
      co_await read_done.wait();  // receive_loop routes the completion here
      conn->read_waiters.erase(token);
      if (conn->cancelled) {
        throw rpc::RpcTransportError("client closed during one-sided read");
      }
      read_failed = conn->read_errors.erase(token) > 0;
    } catch (const rpc::RpcTransportError&) {
      throw;
    } catch (const std::exception&) {
      // QP dead (kill/teardown raced the post): let the RPC path
      // re-bootstrap and carry the call.
      conn->read_waiters.erase(token);
      if (!conn->cancelled) {
        native_.release(dst);
        ++stats_.onesided_fallbacks;
        co_return false;
      }
      throw rpc::RpcTransportError("client closed during one-sided read");
    }
    if (read_failed) break;  // remote region gone at the verbs layer
    const net::Byte* s = dst->span.data();
    std::uint64_t v1 = 0, gen = 0, slot_hash = 0, v2 = 0;
    std::uint32_t len = 0;
    std::memcpy(&v1, s, 8);
    std::memcpy(&gen, s + 8, 8);
    std::memcpy(&slot_hash, s + 16, 8);
    std::memcpy(&len, s + 24, 4);
    std::memcpy(&v2, s + svc.slot_bytes - 8, 8);
    if (v1 != v2 || (v1 & 1) != 0) {
      // Seqlock write window observed: retry within the budget, then
      // degrade — a write-hot entry must not spin.
      if (++conflicts > cfg_.onesided.max_version_retries) {
        ++stats_.onesided_conflict_fallbacks;
        break;
      }
      continue;
    }
    if (gen != svc.generation) {
      // Stale advertisement (the server re-exported; retired slots carry
      // generation 0) — refresh once, then degrade.
      const verbs::OneSidedService* fresh = stack_.onesided_service(addr);
      if (!refreshed && fresh != nullptr && fresh->generation != svc.generation &&
          fresh->slots != 0 && fresh->slot_bytes > kMeta) {
        refreshed = true;
        ++stats_.onesided_stale_refreshes;
        onesided_cache_[addr] = *fresh;
        svc = *fresh;
        if (svc.slot_bytes > dst->span.size()) {
          native_.release(dst);
          dst = shadow_.try_acquire_sized(svc.slot_bytes);
          if (dst == nullptr) {
            ++stats_.onesided_fallbacks;
            co_return false;
          }
        }
        continue;
      }
      break;
    }
    if (slot_hash != h || len == 0 ||
        len > svc.slot_bytes - kMeta) {
      // Empty slot, tombstone, or a direct-map collision with another key:
      // the entry is not published — fall back.
      ++stats_.onesided_misses;
      break;
    }
    // Consistent snapshot: deserialize the published response in place.
    ++stats_.onesided_reads;
    RDMAInputStream in(cm, net::ByteSpan(s + OneSidedRegion::kHeaderBytes, len));
    if (response != nullptr) response->read_fields(in);
    co_await host_.compute(in.take_accrued());
    native_.release(dst);
    if (tr != nullptr) {
      tr->add_complete("onesided:" + key.method, trace::Kind::kClient,
                       trace::Category::kOneSided, t_parent, host_.id(), t_start,
                       host_.sched().now());
    }
    co_return true;
  }
  native_.release(dst);
  ++stats_.onesided_fallbacks;
  if (tr != nullptr) {
    tr->add_complete("onesided.fallback:" + key.method, trace::Kind::kClient,
                     trace::Category::kOneSided, t_parent, host_.id(), t_start,
                     host_.sched().now());
  }
  co_return false;
}

sim::Co<void> RdmaRpcClient::call_attempt(net::Address addr, const rpc::MethodKey& key,
                                          const rpc::Writable& param,
                                          rpc::Writable* response, std::uint64_t call_id,
                                          bool retried) {
  // Consume the ambient trace parent before the first suspension point
  // (see trace.hpp's propagation discipline).
  trace::TraceCollector* tr = trace::active(host_.tracer());
  const trace::TraceContext t_parent =
      tr != nullptr ? tr->take_ambient() : trace::TraceContext{};
  if (fallback_addrs_.count(addr) != 0) {
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  // One-sided fast path (onesided.enabled): eligible read-mostly lookups
  // resolve against the server's exported seqlock region with a single
  // RDMA READ, bypassing its admission/handler chain entirely. A false
  // return (miss, conflict budget spent, stale generation, staging lease
  // refused) degrades to the normal RPC path below.
  if (cfg_.onesided.enabled) {
    const bool handled =
        co_await call_attempt_onesided(addr, key, param, response, tr, t_parent);
    if (handled) co_return;
  }
  // UD eager path (ud.enabled): sub-MTU calls ride connectionless
  // datagrams to the server's advertised UD endpoint pool — no RC
  // bootstrap, no per-connection server state. A false return means the
  // call did not fit the datagram budget (or the pool refused the lease)
  // and falls through to the RC path below.
  if (cfg_.ud.enabled) {
    if (const verbs::UdService* svc = stack_.ud_service(addr);
        svc != nullptr && !svc->qpns.empty()) {
      const bool handled = co_await call_attempt_ud(addr, *svc, key, param, response,
                                                    call_id, retried, tr, t_parent);
      if (handled) co_return;
      ++stats_.ud_rc_fallbacks;
    }
  }
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(tr, "rpc:" + key.method, trace::Kind::kClient,
                       trace::Category::kWire, t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  ConnectionPtr conn;
  bool bootstrap_failed = false;  // co_await is not allowed inside a handler
  try {
    conn = co_await get_connection(addr);
  } catch (const verbs::VerbsError&) {
    // Bootstrap exchange failed at the verbs layer: this address drops to
    // socket mode for the rest of the session (Section III-D's escape
    // hatch), starting with this very call.
    fallback_addrs_.insert(addr);
    ++stats_.socket_reroutes;
    if (tr != nullptr) {
      tr->add_complete("fault.bootstrap:" + key.method, trace::Kind::kClient,
                       trace::Category::kFault, ctx, host_.id(), t_start,
                       host_.sched().now());
    }
    bootstrap_failed = true;
  }
  if (bootstrap_failed) {
    rpc.end();
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  // Shared Hadoop RPC framework cost (call table, synchronization) — the
  // same charge the socket path pays; RPCoIB only removes buffer and
  // transport overheads, not the framework around them.
  co_await host_.compute(cm.rpc_framework());

  // --- Serialization: directly into a pooled, registered buffer ---------
  const sim::Time t_ser_start = host_.sched().now();
  RDMAOutputStream out(cm, shadow_, key);
  bool pool_exhausted = false;
  try {
    out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
    write_call_header(out, call_id, retried, key, ctx);
    param.write(out);
  } catch (const PoolExhaustedError&) {
    // A mid-serialization re-get was refused by the capped pool: degrade
    // to the socket path for this one call, exactly like a rendezvous
    // NACK (non-sticky — the next call tries RDMA again). The stream's
    // destructor returns the partial buffer.
    pool_exhausted = true;
  }
  if (pool_exhausted) {
    ++stats_.nack_fallbacks;
    if (tr != nullptr) {
      tr->add_complete("overload.pool:" + key.method, trace::Kind::kClient,
                       trace::Category::kOverload, ctx, host_.id(), t_ser_start,
                       host_.sched().now());
    }
    rpc.end();
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  co_await host_.compute(out.take_accrued());
  const sim::Time t_serialized = host_.sched().now();
  if (const trace::SpanId ser = trace_phase(tr, ctx, "serialize",
                                            trace::Category::kSerialization, t_ser_start,
                                            t_serialized)) {
    // Pool acquire (initial lease + one re-get per size-history miss) is
    // the RPCoIB replacement for heap allocation; carve it out of the
    // serialization window so the report shows it separately.
    sim::Dur acq = sim::from_us(RDMAOutputStream::kAcquireUs) * (1 + out.regets());
    acq = std::min<sim::Dur>(acq, t_serialized - t_ser_start);
    tr->add_complete("pool.acquire", trace::Kind::kInternal, trace::Category::kBuffer,
                     tr->context_of(ser), host_.id(), t_ser_start, t_ser_start + acq);
  }

  const std::uint64_t regets = out.regets();
  const std::size_t msg_len = out.length();
  const net::ByteSpan msg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(key, msg_len);

  PendingCall pc(host_.sched());
  conn->pending[call_id] = &pc;

  // --- Hybrid send: coalesced when small, eager below the negotiated
  // threshold, rendezvous above ------------------------------------------
  const bool batchable =
      batch_.batchable(msg_len) && msg_len <= RcSink{this, conn}.limit();
  try {
    if (batchable) {
      if (conn->broken) throw rpc::RpcTransportError("connection broken");
      // Coalescing copies the serialized frame out of the pooled buffer so
      // the lease returns immediately; the batch amortizes the per-call
      // doorbell + JNI crossing that the copy replaces.
      net::Bytes payload(msg.begin(), msg.end());
      native_.release(buf);
      buf = nullptr;
      co_await host_.compute(cm.direct_copy(msg_len));
      const RcSink sink{this, conn};
      co_await conn->calls.append(sink, std::move(payload), ctx);
    } else if (msg_len <= conn->eager_threshold) {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      co_await conn->qp->post_send(wr_of(buf), msg);
      buf = nullptr;  // released by receive_loop at the kSend completion
    } else {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      // Track the leased source on the pending call (not just this frame)
      // so fail_all() can return it to the pool if the connection dies
      // while the rendezvous is in flight.
      pc.rendezvous_buf = buf;
      buf = nullptr;
      const ControlFrame ctrl(
          Control{FrameType::kCtrlCall, pc.rendezvous_buf->mr.rkey,
                  static_cast<std::uint64_t>(msg.data() - pc.rendezvous_buf->mr.addr),
                  static_cast<std::uint32_t>(msg_len)});
      co_await conn->qp->post_send(wr_of(nullptr), ctrl.span());
      // The lease holds until the response arrives (implicit ack).
    }
  } catch (const std::exception& e) {
    conn->pending.erase(call_id);
    if (buf != nullptr) native_.release(buf);
    release_rendezvous(pc);
    if (session_.enabled && !conn->cancelled && !conn->broken) {
      // The post failed with the QP in error state mid-call: tear the
      // connection down now so the retry re-bootstraps instead of landing
      // on the dead QP again. (Sessionless builds keep the lazy detection
      // at the next get_connection, byte-identical to the old behavior.)
      teardown_connection(conn, addr, rpc::ReconnectCause::kQpError, e.what());
    }
    throw rpc::RpcTransportError(e.what());
  }
  if (!conn->broken && take_kill(stack_.fabric(), addr)) {
    teardown_connection(conn, addr, rpc::ReconnectCause::kFaultInjected,
                        "connection killed (injected fault)");
  }
  const sim::Time t_sent = host_.sched().now();
  if (const trace::SpanId send =
          trace_phase(tr, ctx, "send", trace::Category::kSend, t_serialized, t_sent)) {
    tr->annotate(send, "path",
                 batchable ? "batched"
                           : (msg_len <= conn->eager_threshold ? "eager" : "rendezvous"));
  }

  rpc::MethodProfile& prof = record_sent(key, regets, msg_len, t_start, t_serialized, t_sent);

  const bool replied = co_await await_reply(pc.done);
  if (!replied) {
    // Unregister so a late response is recycled by the receive loop, and
    // reclaim the rendezvous source: the peer's READ window is gone.
    conn->pending.erase(call_id);
    release_rendezvous(pc);
    throw timeout_error();
  }
  release_rendezvous(pc);  // rendezvous source: response doubles as the ack
  if (pc.nacked) {
    // Graceful degradation: the server's registered-buffer pool is capped
    // out, so this call transparently reroutes to the companion socket
    // listener (non-sticky — the next call tries RDMA again).
    ++stats_.nack_fallbacks;
    if (tr != nullptr) {
      tr->add_complete("overload.nack:" + key.method, trace::Kind::kClient,
                       trace::Category::kOverload, ctx, host_.id(), t_sent,
                       host_.sched().now());
    }
    rpc.end();
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  if (pc.transport_error) throw rpc::RpcTransportError(pc.error_msg);

  // --- Deserialize in place from the registered buffer ------------------
  const sim::Time t_deser = host_.sched().now();
  RDMAInputStream in(cm, pc.resp.subspan(9));  // skip [type][id]
  std::string error_msg;
  const std::uint8_t status = read_reply(in, response, error_msg);
  co_await host_.compute(in.take_accrued());
  trace_phase(tr, ctx, "deserialize", trace::Category::kSerialization, t_deser,
              host_.sched().now());
  repost_recv(conn, pc.resp_buf, pc.resp_is_recv_slot);
  if (status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess)) {
    throw_status(status, error_msg);
  }
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
}

}  // namespace rpcoib::oib
