#include "rpcoib/rdma_client.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "rpcoib/onesided.hpp"
#include "trace/trace.hpp"

namespace rpcoib::oib {

namespace {

/// wr_id carries the pooled buffer pointer (0 = no buffer attached).
std::uint64_t wr_of(NativeBuffer* b) { return reinterpret_cast<std::uint64_t>(b); }
NativeBuffer* buf_of(std::uint64_t wr) { return reinterpret_cast<NativeBuffer*>(wr); }

/// Seqlock conflict retries before a one-sided READ degrades the call to
/// RPC (onesided_conflict_fallbacks): bounds the spin on write-hot keys.
constexpr int kMaxVersionRetries = 2;

/// A kResp body read in place (past [type][id]): the status byte, then the
/// error text or the response's fields. Returns the status, or nothing when
/// the body is too short for them.
std::optional<std::uint8_t> read_reply(RDMAInputStream& in, rpc::Writable* response,
                                       std::string& error_msg) {
  try {
    const std::uint8_t status = in.read_u8();
    if (status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess)) {
      error_msg = in.read_text();
    } else if (response != nullptr) {
      response->read_fields(in);
    }
    return status;
  } catch (const rpc::SerializationError&) {
    return std::nullopt;
  }
}

}  // namespace

net::Bytes RdmaRpcClient::copy_for_batch(NativeBuffer*& buf, net::ByteSpan frame) {
  net::Bytes payload(frame.begin(), frame.end());
  native_.release(std::exchange(buf, nullptr));
  return payload;
}

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
  // Register the pool at construction ("library load" in the paper) so
  // the cost is off every call's critical path.
  host_.sched().spawn(init_pool_task(alive_));
}

sim::Task RdmaRpcClient::init_pool_task(std::shared_ptr<bool> alive) {
  if (!*alive) co_return;  // destroyed before the task first ran
  co_await native_.initialize(0, 0, *alive);
  if (*alive) pool_ready_.set();
}

RdmaRpcClient::~RdmaRpcClient() { close_connections(); *alive_ = false; }

void RdmaRpcClient::close_connections() {
  core_.close_all();
  if (ud_) {
    core_.shut(*ud_, "client shutdown");
    ud_.reset();
  }
  ud_dests_.clear();
  fallback_addrs_.clear();
  if (fallback_) fallback_->close_connections();
}

sim::Co<void> RdmaRpcClient::dial(const ConnectionPtr& conn, net::Address addr) {
  try {
    // Bootstrap over the server's socket address (Section III-D),
    // exchanging eager thresholds in the endpoint-info blob, then
    // pre-post pooled receive buffers for eager traffic.
    // The durable session id (0 when sessions are off) rides the same
    // endpoint-info blob, so a reconnect re-announces it for free.
    std::uint64_t peer_threshold = 0;
    conn->qp = co_await cm_.connect(host_, addr, conn->cq, conn->cq,
                                    net::Transport::kIPoIB,
                                    static_cast<std::uint64_t>(cfg_.eager_threshold),
                                    &peer_threshold, session_id(host_));
    // Ring sizing follows the handshake, not the local knob alone.
    const EagerNegotiation eager = negotiate_eager(cfg_.eager_threshold, peer_threshold);
    conn->eager_threshold = eager.threshold;
    if (eager.mismatch) ++stats_.threshold_mismatches;
    for (int i = 0; i < cfg_.recv_depth; ++i) {
      NativeBuffer* rb = native_.acquire(eager.ring_buf);
      conn->qp->post_recv(wr_of(rb), rb->span);
    }
  } catch (const verbs::VerbsError&) {
    throw;  // the exchange went wrong, not a dead server
  } catch (const std::exception& e) {
    throw rpc::RpcTransportError(e.what());
  }
  host_.sched().spawn(receive_loop(conn));
}

void RdmaRpcClient::break_link(Connection& conn) {
  if (conn.qp) {
    // Still-posted receive slots hold pooled buffers; reclaim them before
    // the QP breaks or the pool leaks a slot per pre-posted recv.
    native_.release_posted(conn.qp->drain_posted_recvs());
    conn.qp->disconnect();
  }
  if (conn.cancelled) conn.cq.close();
}

void RdmaRpcClient::break_link(UdState& ud) {
  // Posted ring slots hold pooled buffers; reclaim before the endpoint
  // dies or the pool leaks one slot per posted recv.
  if (ud.ep) native_.release_posted(ud.ep->drain_posted_recvs());
  ud.cq.close();
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
  Pending* pc = frame.size() < 10 ? nullptr : conn->take(read_be64(frame.data() + 1));
  if (pc == nullptr) {
    repost_recv(conn, buf, is_recv_slot);  // stale (or malformed): recycle the buffer
    return;
  }
  pc->answer(frame, buf, is_recv_slot);
}

sim::Task RdmaRpcClient::fetch_response(ConnectionPtr conn, std::uint32_t rkey,
                                        std::uint64_t off, std::uint32_t len) {
  NativeBuffer* dst = shadow_.acquire_sized(len);
  try {
    // receive_loop routes the completion here. A failed READ left `dst`
    // untouched: it takes the thrown READ's exit.
    const net::MutByteSpan into(dst->span.data(), len);
    if (co_await conn->reads.read(host_.sched(), *conn->qp, into, {rkey, off, len}) != 0) {
      throw verbs::VerbsError("rendezvous read failed");
    }
    // Client torn down while the READ was in flight: the pool died with
    // it, so the lease cannot be returned — just stop. A shut connection
    // refuses the ack below, which returns the lease.
    if (!*conn->alive) co_return;
    const ControlFrame ack(Control{FrameType::kAck, rkey});
    co_await conn->qp->post_send(wr_of(nullptr), ack.span());
    if (!*conn->alive) co_return;
    deliver_response(conn, net::ByteSpan(dst->span.data(), len), dst, /*is_recv_slot=*/false);
  } catch (const std::exception& e) {
    if (!*conn->alive) co_return;
    native_.release(dst);
    conn->fail_all(e.what());
  }
}

sim::Task RdmaRpcClient::receive_loop(ConnectionPtr conn) {
  // Hoisted: this loop may outlive the client object; after a suspension
  // it re-checks conn->alive before touching client members. A shut
  // connection's loop keeps reaping its CQ until nothing is owed to it,
  // returning each buffer to the pool.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await conn->cq.wait();
      if (!*conn->alive) co_return;
      switch (wc.opcode) {
        case verbs::Opcode::kSend: {
          // Eager frame is on the wire; pooled source (if any) is reusable.
          if (NativeBuffer* b = buf_of(wc.wr_id); b != nullptr) native_.release(b);
          break;
        }
        case verbs::Opcode::kRdmaRead:
          conn->reads.complete(wc);
          break;
        case verbs::Opcode::kRecv: {
          NativeBuffer* rb = buf_of(wc.wr_id);
          net::ByteSpan frame(rb->span.data(), wc.byte_len);
          co_await host.compute(cm.cq_poll() + cm.thread_wakeup() + cm.rpc_framework());
          if (!*conn->alive) co_return;
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
              if (!*conn->alive) co_return;
              for (const net::ByteSpan sub_frame : subs) {
                NativeBuffer* sub = shadow_.acquire_copy(sub_frame);
                deliver_response(conn, sub->span.first(sub_frame.size()), sub,
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
                Pending* pc = it->second;
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
    conn->fail_all(e.what());
    if (*conn->alive && !conn->cancelled && !was_broken) {
      note_reconnect(rpc::ReconnectCause::kQpError);
    }
  }
}

template <typename Sink>
sim::Co<void> RdmaRpcClient::flush_batch(Sink sink, std::vector<net::Bytes> items,
                                         trace::TraceContext ctx) {
  // Hoisted like receive_loop: the computes below may outlive the client.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  const sim::Time t0 = host.sched().now();
  const Endpoint& conn = *sink.conn;

  // [plane wrapper][u8 kBatch][u32 count][u32 len_i x count][kCall
  // sub-frames...] encoded straight into a pooled registered buffer — one
  // doorbell for the lot. The wrapper is charged with the whole frame's copy.
  const std::size_t total = Sink::kWrapper + batch_frame_size(items);
  NativeBuffer* fb = shadow_.acquire_sized(total);
  sink.wrap(fb->span.first(Sink::kWrapper));
  encode_batch(items, fb->span.data() + Sink::kWrapper);
  co_await host.compute(cm.direct_copy(total) + cm.jni_call());
  // Client torn down while we computed: the pool died with it, so the
  // lease cannot be returned — just stop.
  if (!*conn.alive) co_return;
  if (sink.stopped() || !sink.can_post()) {
    native_.release(fb);
    co_return;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await sink.post(fb, wire);
    // fb is released by the receive loop at the kSend completion.
  } catch (const std::exception& e) {
    if (!*conn.alive) co_return;
    native_.release(fb);
    sink.post_failed(e.what());
    co_return;
  }
  if (!*conn.alive || conn.cancelled) co_return;
  sink.note_sent();
  note_batch_sent(ctx, t0);
}

sim::Co<void> RdmaRpcClient::RcSink::post(NativeBuffer* fb, net::ByteSpan wire) const {
  return conn->qp->post_send(wr_of(fb), wire);
}

void RdmaRpcClient::UdSink::wrap(net::MutByteSpan header) const {
  rpc::SpanOutput out(self->host_.cost(), header);
  write_ud_header(out, self->session_id(self->host_));
}

bool RdmaRpcClient::UdSink::can_post() const {
  // Service withdrawn (server stopped): the datagrams are "lost"; the
  // callers time out and their retries take the RC or socket path.
  const verbs::UdService* svc = self->stack_.ud_service(addr);
  return svc != nullptr && !svc->qpns.empty();
}

sim::Co<void> RdmaRpcClient::UdSink::post(NativeBuffer* fb, net::ByteSpan wire) const {
  const verbs::AddressHandle to = self->ud_target(
      *self->stack_.ud_service(addr), self->session_id(self->host_), dest->batcher().epoch());
  co_await conn->ep->post_send(wr_of(fb), to, wire);
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
    ud_ = std::make_shared<UdState>(*this);
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
  // Hoisted like receive_loop, under the same teardown rule: the loop
  // re-checks ud->alive after every resumption, and a shut endpoint's loop
  // keeps reaping its CQ, returning each buffer to the pool.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await ud->cq.wait();
      if (!*ud->alive) co_return;
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
      if (!*ud->alive) co_return;
      const std::size_t grh = verbs::UdEndpoint::kGrhBytes;
      if (wc.byte_len > grh + 9) {
        net::ByteSpan frame(rb->span.data() + grh, wc.byte_len - grh);
        if (static_cast<FrameType>(frame[0]) == FrameType::kResp) {
          if (Pending* pc = ud->take(read_be64(frame.data() + 1))) {
            // Copy into a pooled buffer so the ring slot reposts
            // immediately; the caller releases the copy after
            // deserialization (never a recv slot on the UD path).
            NativeBuffer* copy = shadow_.acquire_copy(frame);
            pc->answer(copy->span.first(frame.size()), copy, /*is_recv_slot=*/false);
            ++stats_.ud_responses_received;
          }
          // else: a late duplicate (the retry already completed) — drop;
          // server-side dedup guarantees it carries the same payload.
        }
      }
      if (ud->broken) {
        native_.release(rb);
      } else {
        ud->ep->post_recv(wr_of(rb), rb->span);
      }
    }
  } catch (const sim::ChannelClosed&) {
    // Shutdown path.
  }
}

sim::Co<bool> RdmaRpcClient::call_attempt_ud(const Attempt& a, const verbs::UdService& svc) {
  co_await pool_ready_.wait();
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(a.tr, "rpc.ud:", a.key.method, trace::Kind::kClient,
                       trace::Category::kWire, a.t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  co_await host_.compute(cm.rpc_framework());

  // --- Serialize the whole datagram: wrapper + a complete kCall frame ---
  const std::uint64_t sid = session_id(host_);
  const sim::Time t_ser_start = host_.sched().now();
  RDMAOutputStream out(cm, shadow_, a.key);
  try {
    write_ud_header(out, sid);
    out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
    write_call_header(out, a.call_id, a.retried, a.key, ctx);
    a.param.write(out);
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
  trace_phase(a.tr, ctx, "serialize", trace::Category::kSerialization, t_ser_start, t_serialized);
  const net::ByteSpan dg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(a.key, dg_len);

  UdStatePtr ud = ud_state();
  Pending pc(host_.sched(), native_);
  ud->file(a.call_id, pc);

  // --- Send: coalesced when small, else one datagram ---------------------
  const bool batchable = batch_.batchable(msg_len) && msg_len <= batch_limit(*ud);
  try {
    if (batchable) {
      // Append the *inner* frame: the flush re-wraps the batch in one
      // kUdCall header carrying the shared session id.
      net::Bytes payload = copy_for_batch(buf, dg.subspan(kUdHeaderBytes));
      co_await host_.compute(cm.direct_copy(msg_len));
      std::shared_ptr<rpc::Coalescer<UdSink>>& dest = ud_dests_[a.addr];
      if (!dest) dest = std::make_shared<rpc::Coalescer<UdSink>>(batch_);
      const UdSink sink{{this, ud}, dest, a.addr};
      co_await dest->append(sink, std::move(payload), ctx);
    } else {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      co_await ud->ep->post_send(wr_of(buf), ud_target(svc, sid, a.call_id), dg);
      buf = nullptr;  // released by ud_receive_loop at the kSend completion
      ++stats_.ud_datagrams_sent;
    }
  } catch (const std::exception& e) {
    if (buf != nullptr) native_.release(buf);
    throw rpc::RpcTransportError(e.what());
  }
  const sim::Time t_sent = host_.sched().now();
  if (const trace::SpanId send =
          trace_phase(a.tr, ctx, "send", trace::Category::kSend, t_serialized, t_sent)) {
    a.tr->annotate(send, "path", batchable ? "ud-batched" : "ud");
  }

  rpc::MethodProfile& prof = record_sent(a.key, regets, msg_len, t_start, t_serialized, t_sent);

  // --- Wait. A lost datagram (either direction) is pure silence: the
  // per-attempt timeout fires and the outer retry loop retransmits with
  // the retry flag set; the server's session-keyed retry cache makes the
  // re-execution window exactly-once. ------------------------------------
  const bool replied = co_await await_reply(pc.done);
  if (!replied) throw timeout_error();  // pc unregisters: a late response is dropped
  if (pc.transport_error) throw rpc::RpcTransportError(pc.error_msg);

  // --- Deserialize from the pooled copy ---------------------------------
  const sim::Time t_deser = host_.sched().now();
  RDMAInputStream in(cm, pc.resp.subspan(9));  // skip [type][id]
  std::string error_msg;
  const std::optional<std::uint8_t> status = read_reply(in, a.response, error_msg);
  co_await host_.compute(in.take_accrued());
  trace_phase(a.tr, ctx, "deserialize", trace::Category::kSerialization, t_deser,
              host_.sched().now());
  native_.release(pc.resp_buf);
  if (!status) throw rpc::RpcTransportError("short reply body");
  if (*status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess)) {
    throw_status(*status, error_msg);
  }
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
  co_return true;
}

sim::Co<void> RdmaRpcClient::call_via_fallback(const Attempt& a) {
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
  const net::Address companion{
      a.addr.host, static_cast<std::uint16_t>(a.addr.port + kSocketFallbackPortOffset)};
  trace::activate(a.tr, a.t_parent);
  co_await fallback_->call(companion, a.key, a.param, a.response);
}

sim::Co<bool> RdmaRpcClient::call_attempt_onesided(const Attempt& a) {
  const std::optional<std::string> entity = a.param.onesided_key(a.key.protocol, a.key.method);
  if (!entity) co_return false;
  auto cached = onesided_cache_.find(a.addr);
  if (cached == onesided_cache_.end()) {
    const verbs::OneSidedService* adv = stack_.onesided_service(a.addr);
    if (adv == nullptr) co_return false;  // server exports no region
    cached = onesided_cache_.emplace(a.addr, *adv).first;
  }
  verbs::OneSidedService svc = cached->second;
  constexpr std::size_t kMeta =
      OneSidedRegion::kHeaderBytes + OneSidedRegion::kTrailerBytes;
  if (svc.slots == 0 || svc.slot_bytes <= kMeta) co_return false;
  co_await pool_ready_.wait();
  ConnectionPtr conn;
  try {
    conn = co_await core_.get(a.addr);
  } catch (const verbs::VerbsError&) {
    co_return false;  // the RPC path owns bootstrap-failure fallback
  }
  // Connection-kill fault hook (mirrors the RPC send path): a scheduled
  // kill fires on the first attempt that touches the link, one-sided
  // READs included. The fallback RPC re-bootstraps and carries the call
  // through the session/retry machinery.
  if (core_.kill_if_due(conn, a.addr, stack_.fabric())) {
    ++stats_.onesided_fallbacks;
    co_return false;
  }
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  const std::uint64_t h =
      OneSidedRegion::hash_key(rpc::onesided_entry_key(a.key.protocol, a.key.method, *entity));

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
    std::uint32_t read_status = 0;
    try {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      const net::MutByteSpan into(dst->span.data(), svc.slot_bytes);
      const verbs::RemoteBuffer from{
          svc.rkey, static_cast<std::uint64_t>(slot) * svc.slot_bytes, svc.slot_bytes};
      // receive_loop routes the completion here.
      read_status = co_await conn->reads.read(host_.sched(), *conn->qp, into, from);
      if (conn->cancelled) {
        throw rpc::RpcTransportError("client closed during one-sided read");
      }
    } catch (const rpc::RpcTransportError&) {
      throw;
    } catch (const std::exception&) {
      // QP dead (kill/teardown raced the post): let the RPC path
      // re-bootstrap and carry the call.
      if (!conn->cancelled) {
        native_.release(dst);
        ++stats_.onesided_fallbacks;
        co_return false;
      }
      throw rpc::RpcTransportError("client closed during one-sided read");
    }
    if (read_status != 0) break;  // remote region gone at the verbs layer
    const net::ByteSpan s = dst->span.first(svc.slot_bytes);
    OneSidedRegion::SlotHeader head;
    OneSidedRegion::SlotTrailer tail;
    net::decode_frame(s, head);
    net::decode_frame(s.last(OneSidedRegion::kTrailerBytes), tail);
    if (head.version != tail.version || (head.version & 1) != 0) {
      // Seqlock write window observed: retry within the budget, then
      // degrade — a write-hot entry must not spin.
      if (++conflicts > kMaxVersionRetries) {
        ++stats_.onesided_conflict_fallbacks;
        break;
      }
      continue;
    }
    if (head.generation != svc.generation) {
      // Stale advertisement (the server re-exported; retired slots carry
      // generation 0) — refresh once, then degrade.
      const verbs::OneSidedService* fresh = stack_.onesided_service(a.addr);
      if (!refreshed && fresh != nullptr && fresh->generation != svc.generation &&
          fresh->slots != 0 && fresh->slot_bytes > kMeta) {
        refreshed = true;
        ++stats_.onesided_stale_refreshes;
        onesided_cache_[a.addr] = *fresh;
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
    if (head.hash != h || head.len == 0 || head.len > svc.slot_bytes - kMeta) {
      // Empty slot, tombstone, or a direct-map collision with another key:
      // the entry is not published — fall back.
      ++stats_.onesided_misses;
      break;
    }
    // Consistent snapshot: deserialize the published response in place.
    ++stats_.onesided_reads;
    RDMAInputStream in(cm, s.subspan(OneSidedRegion::kHeaderBytes, head.len));
    if (a.response != nullptr) a.response->read_fields(in);
    co_await host_.compute(in.take_accrued());
    native_.release(dst);
    if (a.tr != nullptr) {
      a.tr->add_complete("onesided:" + a.key.method, trace::Kind::kClient,
                         trace::Category::kOneSided, a.t_parent, host_.id(), t_start,
                         host_.sched().now());
    }
    co_return true;
  }
  native_.release(dst);
  ++stats_.onesided_fallbacks;
  if (a.tr != nullptr) {
    a.tr->add_complete("onesided.fallback:" + a.key.method, trace::Kind::kClient,
                       trace::Category::kOneSided, a.t_parent, host_.id(), t_start,
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
  // The plane ladder: each plane returns whether it served the call, and
  // a call no plane served leaves by the one socket exit below. An address
  // whose bootstrap failed skips every plane (the sticky reroute).
  const Attempt a{addr, key, param, response, call_id, retried, tr, t_parent};
  bool served = false;
  if (fallback_addrs_.count(addr) == 0) {
    // One-sided fast path (onesided.enabled): eligible read-mostly lookups
    // resolve against the server's exported seqlock region with a single
    // RDMA READ, bypassing its admission/handler chain entirely. A miss,
    // a spent conflict budget, a stale generation or a refused staging
    // lease degrades to the planes below.
    if (cfg_.onesided.enabled) served = co_await call_attempt_onesided(a);
    // UD eager path (ud.enabled): sub-MTU calls ride connectionless
    // datagrams to the server's advertised UD endpoint pool — no RC
    // bootstrap, no per-connection server state. A call too big for the
    // datagram budget (or refused a lease) falls through to RC.
    if (!served && cfg_.ud.enabled) {
      const verbs::UdService* adv = stack_.ud_service(addr);
      if (adv != nullptr && !adv->qpns.empty()) {
        // A copy: a server stop() withdraws (frees) the advertisement
        // while the attempt is suspended.
        const verbs::UdService svc = *adv;
        served = co_await call_attempt_ud(a, svc);
        if (!served) ++stats_.ud_rc_fallbacks;
      }
    }
    if (!served) served = co_await call_attempt_rc(a);
  }
  if (!served) co_await call_via_fallback(a);
}

sim::Co<bool> RdmaRpcClient::call_attempt_rc(const Attempt& a) {
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(a.tr, "rpc:", a.key.method, trace::Kind::kClient,
                       trace::Category::kWire, a.t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  co_await pool_ready_.wait();
  ConnectionPtr conn;
  try {
    conn = co_await core_.get(a.addr);
  } catch (const verbs::VerbsError&) {
    // Bootstrap exchange failed at the verbs layer: this address drops to
    // socket mode for the rest of the session (Section III-D's escape
    // hatch), starting with this very call.
    fallback_addrs_.insert(a.addr);
    ++stats_.socket_reroutes;
    if (a.tr != nullptr) {
      a.tr->add_complete("fault.bootstrap:" + a.key.method, trace::Kind::kClient,
                         trace::Category::kFault, ctx, host_.id(), t_start,
                         host_.sched().now());
    }
    rpc.end();
    co_return false;
  }
  // Shared Hadoop RPC framework cost (call table, synchronization) — the
  // same charge the socket path pays; RPCoIB only removes buffer and
  // transport overheads, not the framework around them.
  co_await host_.compute(cm.rpc_framework());

  // --- Serialization: directly into a pooled, registered buffer ---------
  const sim::Time t_ser_start = host_.sched().now();
  RDMAOutputStream out(cm, shadow_, a.key);
  try {
    out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
    write_call_header(out, a.call_id, a.retried, a.key, ctx);
    a.param.write(out);
  } catch (const PoolExhaustedError&) {
    // A mid-serialization re-get was refused by the capped pool: degrade
    // to the socket path for this one call, exactly like a rendezvous
    // NACK (non-sticky — the next call tries RDMA again). The stream's
    // destructor returns the partial buffer.
    ++stats_.nack_fallbacks;
    if (a.tr != nullptr) {
      a.tr->add_complete("overload.pool:" + a.key.method, trace::Kind::kClient,
                         trace::Category::kOverload, ctx, host_.id(), t_ser_start,
                         host_.sched().now());
    }
    rpc.end();
    co_return false;
  }
  co_await host_.compute(out.take_accrued());
  const sim::Time t_serialized = host_.sched().now();
  if (const trace::SpanId ser = trace_phase(a.tr, ctx, "serialize",
                                            trace::Category::kSerialization, t_ser_start,
                                            t_serialized)) {
    // Pool acquire (initial lease + one re-get per size-history miss) is
    // the RPCoIB replacement for heap allocation; carve it out of the
    // serialization window so the report shows it separately.
    sim::Dur acq = sim::from_us(RDMAOutputStream::kAcquireUs) * (1 + out.regets());
    acq = std::min<sim::Dur>(acq, t_serialized - t_ser_start);
    a.tr->add_complete("pool.acquire", trace::Kind::kInternal, trace::Category::kBuffer,
                       a.tr->context_of(ser), host_.id(), t_ser_start, t_ser_start + acq);
  }

  const std::uint64_t regets = out.regets();
  const std::size_t msg_len = out.length();
  const net::ByteSpan msg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(a.key, msg_len);

  Pending pc(host_.sched(), native_);

  // --- Hybrid send: coalesced when small, eager below the negotiated
  // threshold, rendezvous above ------------------------------------------
  const bool batchable = batch_.batchable(msg_len) && msg_len <= batch_limit(*conn);
  try {
    conn->file(a.call_id, pc);
    if (batchable) {
      net::Bytes payload = copy_for_batch(buf, msg);
      co_await host_.compute(cm.direct_copy(msg_len));
      const RcSink sink{{this, conn}};
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
    if (buf != nullptr) native_.release(buf);
    pc.release_leases();
    if (session_.enabled && !conn->cancelled && !conn->broken) {
      // The post failed with the QP in error state mid-call: tear the
      // connection down now so the retry re-bootstraps instead of landing
      // on the dead QP again. (Sessionless builds keep the lazy detection
      // at the next adopt, byte-identical to the old behavior.)
      core_.kill(conn, a.addr, rpc::ReconnectCause::kQpError, e.what());
    }
    throw rpc::RpcTransportError(e.what());
  }
  core_.kill_if_due(conn, a.addr, stack_.fabric());
  const sim::Time t_sent = host_.sched().now();
  if (const trace::SpanId send =
          trace_phase(a.tr, ctx, "send", trace::Category::kSend, t_serialized, t_sent)) {
    a.tr->annotate(send, "path",
                   batchable ? "batched"
                             : (msg_len <= conn->eager_threshold ? "eager" : "rendezvous"));
  }

  rpc::MethodProfile& prof = record_sent(a.key, regets, msg_len, t_start, t_serialized, t_sent);

  const bool replied = co_await await_reply(pc.done);
  // The rendezvous source is done with either way: the response doubles
  // as the ack, and after a timeout the peer's READ window is gone (pc
  // unregisters, so a late response is recycled by the receive loop).
  pc.release_leases();
  if (!replied) throw timeout_error();
  if (pc.nacked) {
    // Graceful degradation: the server's registered-buffer pool is capped
    // out, so this call transparently reroutes to the companion socket
    // listener (non-sticky — the next call tries RDMA again).
    ++stats_.nack_fallbacks;
    if (a.tr != nullptr) {
      a.tr->add_complete("overload.nack:" + a.key.method, trace::Kind::kClient,
                         trace::Category::kOverload, ctx, host_.id(), t_sent,
                         host_.sched().now());
    }
    rpc.end();
    co_return false;
  }
  if (pc.transport_error) throw rpc::RpcTransportError(pc.error_msg);

  // --- Deserialize in place from the registered buffer ------------------
  const sim::Time t_deser = host_.sched().now();
  RDMAInputStream in(cm, pc.resp.subspan(9));  // skip [type][id]
  std::string error_msg;
  const std::optional<std::uint8_t> status = read_reply(in, a.response, error_msg);
  co_await host_.compute(in.take_accrued());
  trace_phase(a.tr, ctx, "deserialize", trace::Category::kSerialization, t_deser,
              host_.sched().now());
  repost_recv(conn, pc.resp_buf, pc.resp_is_recv_slot);
  if (!status) throw rpc::RpcTransportError("short reply body");
  if (*status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess)) {
    throw_status(*status, error_msg);
  }
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
  co_return true;
}

}  // namespace rpcoib::oib
