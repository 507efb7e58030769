#include "rpcoib/rdma_server.hpp"

#include <algorithm>
#include <utility>

#include "trace/trace.hpp"

namespace rpcoib::oib {

namespace {

/// Read a kCall frame's header from `in` (positioned at the frame type
/// byte), leaving it at the param bytes. False on a truncated or malformed
/// header — e.g. a rendezvous source the client reused after timing out.
bool read_kcall_header(RDMAInputStream& in, rpc::CallHeader& h) {
  std::uint8_t type = 0;
  return in.try_read_u8(type) && rpc::read_call_header(in, h);
}

/// A status-only response: [kResp][u64 id][u8 status][text msg].
void write_status(RDMAOutputStream& out, std::uint64_t id, rpc::RpcStatus status,
                  const std::string& msg) {
  out.write_u8(static_cast<std::uint8_t>(FrameType::kResp));
  out.write_u64(id);
  out.write_u8(static_cast<std::uint8_t>(status));
  out.write_text(msg);
}

/// The pool-history keys a status-only answer is sized under.
const rpc::MethodKey kBusyKey{"__overload", "busy"};
const rpc::MethodKey kRejectedKey{"__session", "rejected"};
const rpc::MethodKey kUdOversizeKey{"__ud", "oversize"};

const rpc::MethodKey& status_key(rpc::RpcStatus status) {
  return status == rpc::RpcStatus::kBusy ? kBusyKey : kRejectedKey;
}

}  // namespace

RdmaRpcServer::RdmaRpcServer(cluster::Host& host, net::SocketTable& sockets,
                             verbs::VerbsStack& stack, net::Address addr,
                             RdmaServerConfig cfg)
    : host_(host),
      sockets_(sockets),
      stack_(stack),
      cm_(stack, sockets),
      addr_(addr),
      cfg_(cfg),
      native_(host, stack, cfg.pool),
      shadow_(native_),
      core_(host.sched(), cfg.shards),
      ud_(std::make_shared<UdPlane>(host.sched())),
      fallback_(host, sockets,
                net::Address{addr.host,
                             static_cast<std::uint16_t>(addr.port + kSocketFallbackPortOffset)},
                cfg.num_handlers, cfg.shards) {}

RdmaRpcServer::~RdmaRpcServer() { stop(); }

void RdmaRpcServer::start() {
  if (running_) return;
  running_ = true;
  alive_ = std::make_shared<bool>(true);
  core_.build(overload_, session_);
  const std::size_t n = core_.shards().size();
  // The ring refills once it falls to a quarter of its depth.
  const std::size_t watermark = std::max<std::size_t>(1, cfg_.pool.srq_depth / 4);
  for (const std::shared_ptr<Shard>& shard : core_.shards()) {
    if (cfg_.pool.srq_depth == 0) break;  // legacy per-connection rings
    // Stripe the shared ring: each shard owns srq_depth / n slots (the
    // remainder spread over the low shards, never below one) and refills
    // at a proportionally scaled watermark. One shard keeps the whole ring.
    const std::size_t ui = shard->pipeline.shard_id();
    const auto stripe = [&](std::size_t total) {
      return std::max<std::size_t>(1, total / n + (ui < total % n ? 1 : 0));
    };
    shard->srq_depth = stripe(cfg_.pool.srq_depth);
    shard->srq_low_watermark = std::min(shard->srq_depth, stripe(watermark));
    shard->srq = std::make_unique<verbs::SharedReceiveQueue>(host_.sched());
    shard->srq->set_stall_counter(&shard->pipeline.stats().srq_rnr_stalls);
    host_.sched().spawn(srq_refill_loop(shard));
  }
  if (cfg_.srq_idle_evict > 0) host_.sched().spawn(idle_evict_loop(alive_));
  if (cfg_.ud.enabled) {
    // A fresh UD endpoint pool per run. The previous run's endpoints fold
    // their drop counts into the base first so ud_rx_dropped stays
    // monotonic across restarts.
    for (const auto& ep : ud_->eps) ud_rx_dropped_base_ += ep->rx_dropped();
    ud_ = std::make_shared<UdPlane>(host_.sched());
    verbs::UdService svc;
    svc.host = host_.id();
    const int n_eps = std::max(1, cfg_.ud.server_endpoints);
    for (int i = 0; i < n_eps; ++i) {
      auto ep = std::make_unique<verbs::UdEndpoint>(stack_, host_, ud_->cq, ud_->cq);
      // kRecv completions name the endpoint, so the responder can reply
      // from the QPN the client targeted.
      ep->set_context(static_cast<std::uint64_t>(i));
      svc.qpns.push_back(ep->qpn());
      ud_->eps.push_back(std::move(ep));
    }
    // Fill the rings BEFORE advertising: UD has no bootstrap handshake to
    // order a client's first datagram after the server's buffer setup (RC
    // rings hide behind accept()), so an advertise-first start would race
    // the listener's pool registration and silently drop early calls. The
    // rings are the datagram analogue of the SRQ stripes: a fixed
    // pre-registered footprint that never grows with client count. An
    // arrival overrunning the ring drops silently (no RNR on UD); the
    // client's session/retry layer re-sends it.
    const std::size_t slot = verbs::UdEndpoint::kGrhBytes + verbs::UdEndpoint::kMtu;
    for (auto& ep : ud_->eps) {
      for (int i = 0; i < cfg_.ud.recv_depth; ++i) {
        NativeBuffer* b = native_.acquire(slot);
        ep->post_recv(reinterpret_cast<std::uint64_t>(b), b->span);
        ud_ring_bytes_ += b->span.size();
      }
    }
    if (ud_ring_bytes_ > ud_ring_bytes_peak_) ud_ring_bytes_peak_ = ud_ring_bytes_;
    stack_.ud_advertise(addr_, std::move(svc));
    host_.sched().spawn(ud_reader_loop(ud_));
  }
  if (cfg_.onesided.enabled) {
    // The region (and everything published into it) survives restarts;
    // only the advertisement is withdrawn at stop() and renewed here.
    if (!onesided_region_) {
      onesided_region_ = std::make_unique<OneSidedRegion>(stack_, native_.pd(), addr_,
                                                          cfg_.onesided);
    }
    onesided_region_->advertise();
  }
  host_.sched().spawn(listener_loop(sockets_.listen(addr_)));
  for (const auto& shard : core_.shards()) host_.sched().spawn(reader_loop(shard));
  core_.spawn_handlers(cfg_.num_handlers, [this](auto s) { return handler_loop(s); });
  // The companion socket listener for clients whose QP bootstrap fails
  // serves this server's methods, and must shed under the same policy as
  // the RDMA path, or overload would simply migrate to it.
  fallback_.dispatcher() = dispatcher_;
  fallback_.set_overload(overload_);
  fallback_.set_batch(batch_);
  fallback_.set_session(session_);
  fallback_.start();
}

void RdmaRpcServer::stop() {
  if (!running_) return;
  running_ = false;
  if (alive_) *alive_ = false;  // detached flush timers stand down
  sockets_.unlisten(addr_);
  // Return every pooled buffer the data path still holds — queued call
  // frames, unacked rendezvous response sources, and pre-posted receive
  // slots — so acquires and releases balance across a stop. The dropped
  // calls' clients observe a transport error when the QPs disconnect.
  core_.drain([this](ServerCall& call) { native_.release(call.buf); });
  for (const auto& shard : core_.shards()) {
    for (auto& [rkey, buf] : shard->pending_resp) native_.release_revoked(buf);
    shard->pending_resp.clear();
    shard->ring_bytes = 0;
    if (shard->srq) {
      native_.release_posted(shard->srq->drain_posted_recvs());
      shard->srq->close();  // wakes the refill loop into its ChannelClosed exit
    }
  }
  for (auto& [id, c] : conns_) {
    if (c->responses && !c->responses->batcher().empty()) {
      // Finished responses still lingering in the coalescer die with the
      // server; account for them so teardown losses are never silent.
      shard_of(*c)->pipeline.stats().responses_dropped_on_stop +=
          c->responses->batcher().take().size();
    }
    if (c->qp) {
      native_.release_posted(c->qp->drain_posted_recvs());  // legacy rings
      c->qp->set_srq(nullptr);
      c->qp->disconnect();
    }
  }
  // Like an idle eviction: once nothing else holds a connection its QP
  // goes, and the client re-bootstraps onto the next run.
  conns_.clear();
  if (cfg_.ud.enabled) {
    stack_.ud_withdraw(addr_);
    for (auto& ep : ud_->eps) native_.release_posted(ep->drain_posted_recvs());
    ud_ring_bytes_ = 0;
    ud_->stopped = true;
    ud_->cq.close();
  }
  if (onesided_region_) onesided_region_->withdraw();
  for (const auto& shard : core_.shards()) {
    shard->stopped = true;
    shard->cq.close();
  }
  fallback_.stop();
}

void RdmaRpcServer::fold_stats() {
  core_.fold(stats_);
  stats_.ud_rx_dropped = ud_rx_dropped_base_;
  for (const auto& ep : ud_->eps) stats_.ud_rx_dropped += ep->rx_dropped();
  // Region counters are assignments (not +=) so repeated syncs stay
  // idempotent like the shard-sourced fields.
  stats_.onesided_published = onesided_region_ ? onesided_region_->published() : 0;
  stats_.onesided_reexports = onesided_region_ ? onesided_region_->reexports() : 0;
  // The stripes post independently, so the server-wide registered-memory
  // footprint is the sum of the per-stripe peaks (exact at one shard).
  // The UD rings are one more fixed stripe on top.
  stats_.recv_ring_bytes_peak = ud_ring_bytes_peak_;
  for (const auto& shard : core_.shards()) {
    stats_.recv_ring_bytes_peak += shard->pipeline.stats().recv_ring_bytes_peak;
  }
}

void RdmaRpcServer::note_ring_bytes(Shard& shard, std::size_t n) {
  shard.ring_bytes += n;
  if (shard.ring_bytes > shard.pipeline.stats().recv_ring_bytes_peak) {
    shard.pipeline.stats().recv_ring_bytes_peak = shard.ring_bytes;
  }
}

void RdmaRpcServer::post_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf) {
  if (shard.srq) {
    shard.srq->post_recv(reinterpret_cast<std::uint64_t>(buf), buf->span);
    ++shard.pipeline.stats().srq_posted;
  } else {
    conn->qp->post_recv(reinterpret_cast<std::uint64_t>(buf), buf->span);
  }
  note_ring_bytes(shard, buf->span.size());
}

void RdmaRpcServer::recycle_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf) {
  if (shard.stopped) {
    native_.release(buf);
  } else if (shard.srq) {
    // The shared stripe tops back up here on the hot path; the refill loop
    // only covers buffers consumed by calls still in flight.
    if (shard.srq->posted() < shard.srq_depth) {
      post_recv_buffer(shard, nullptr, buf);
    } else {
      native_.release(buf);
    }
  } else if (conn != nullptr && conn->qp && conn->qp->connected()) {
    post_recv_buffer(shard, conn, buf);
  } else {
    native_.release(buf);
  }
}

sim::Task RdmaRpcServer::srq_refill_loop(std::shared_ptr<Shard> shard) {
  verbs::SharedReceiveQueue* srq = shard->srq.get();
  try {
    for (;;) {
      co_await srq->wait_limit();
      if (shard->stopped) co_return;
      ++shard->pipeline.stats().srq_refills;
      while (srq->posted() < shard->srq_depth) {
        post_recv_buffer(*shard, nullptr, native_.acquire(recv_buf_for(cfg_.eager_threshold)));
      }
      srq->arm_limit(shard->srq_low_watermark);
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Task RdmaRpcServer::idle_evict_loop(std::shared_ptr<bool> alive) {
  const sim::Dur idle = cfg_.srq_idle_evict;
  const sim::Dur sweep = std::max<sim::Dur>(idle / 2, 1);
  try {
    for (;;) {
      co_await sim::delay(host_.sched(), sweep);
      if (!*alive) co_return;
      std::vector<std::uint64_t> victims;
      const sim::Time now = host_.sched().now();
      for (const auto& [id, c] : conns_) {
        // Evict only quiet, fully-flushed connections; anything with a
        // pending response batch is mid-conversation by definition.
        if (now - c->last_recv < idle) continue;
        if (c->responses && !c->responses->batcher().empty()) continue;
        if (!c->qp || !c->qp->connected()) continue;
        victims.push_back(id);
      }
      for (std::uint64_t id : victims) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        ConnPtr c = it->second;
        Shard& shard = *shard_of(*c);
        for (std::uint64_t wr : c->qp->drain_posted_recvs()) {  // legacy ring
          auto* b = reinterpret_cast<NativeBuffer*>(wr);
          shard.ring_bytes -= std::min(shard.ring_bytes, b->span.size());
          native_.release(b);
        }
        // Disconnect expires the client QP's peer immediately: the client
        // observes !connected() on its next call and re-bootstraps.
        c->qp->set_srq(nullptr);
        c->qp->disconnect();
        conns_.erase(it);
        ++shard.pipeline.stats().srq_evictions;
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Task RdmaRpcServer::listener_loop(std::shared_ptr<net::Listener> l) {
  try {
    // Library-load-time pool registration (amortized across all calls). In
    // SRQ mode every stripe's buffers are provisioned here too, so the
    // fills below are pure freelist pops, not demand allocations.
    std::size_t total_srq = 0;
    for (const auto& shard : core_.shards()) total_srq += shard->srq_depth;
    co_await native_.initialize(total_srq > 0 ? recv_buf_for(cfg_.eager_threshold) : 0,
                                total_srq);
    if (l->closed()) co_return;  // stopped during registration: no run to fill
    for (const auto& shard : core_.shards()) {
      if (!shard->srq) continue;
      // One pre-registered receive stripe per shard, filled once: from
      // here on, registered receive memory is a function of srq_depth
      // (load), not of how many connections accept() creates.
      for (std::size_t i = 0; i < shard->srq_depth; ++i) {
        post_recv_buffer(*shard, nullptr, native_.acquire(recv_buf_for(cfg_.eager_threshold)));
      }
      shard->srq->arm_limit(shard->srq_low_watermark);
    }
    // The shared ring is posted before any handshake, so it never
    // advertises "none": a client would fall back to its own threshold and
    // overrun the stripe buffers. It advertises what a buffer holds.
    const std::uint64_t advertised = cfg_.eager_threshold == 0 && total_srq > 0
                                         ? recv_buf_for(0) - 512
                                         : cfg_.eager_threshold;
    for (;;) {
      net::SocketPtr boot = co_await l->accept();
      // Two-phase handshake: read the client's blob first, so the home
      // shard — and the CQ the QP completes into — can be chosen from the
      // durable session id it carries. A reconnecting session must land on
      // the shard that holds its lease and retry-cache state; sessionless
      // connections keep the dense-id round-robin, operation-for-operation
      // the pre-session behavior.
      verbs::QueuePairPtr qp;
      verbs::ConnectionManager::BootstrapInfo info;
      std::shared_ptr<Shard> home;
      try {
        info = co_await cm_.read_bootstrap(boot);
        const std::uint64_t sid = session_.enabled ? info.session_id : 0;
        home = core_.home(sid, conn_seq_);  // conn_seq_ is the next id - 1
        qp = co_await cm_.accept(boot, info, home->cq, home->cq, advertised);
      } catch (const verbs::VerbsError&) {
        continue;  // malformed bootstrap (e.g. a socket client); drop it
      } catch (const net::SocketError&) {
        continue;
      }
      if (l->closed()) {
        qp->disconnect();  // stopped mid-handshake: the run takes no more connections
        continue;
      }
      Shard& shard = *home;
      auto conn = std::make_shared<ConnState>();
      conn->qp = std::move(qp);
      conn->id = ++conn_seq_;
      conn->session_id = session_.enabled ? info.session_id : 0;
      conn->owner = conn->session_id != 0 ? conn->session_id : conn->id;
      conn->shard = shard.pipeline.shard_id();
      ++shard.pipeline.counters().conns_assigned;
      conn->last_recv = host_.sched().now();
      const EagerNegotiation eager =
          negotiate_eager(cfg_.eager_threshold, info.peer_eager_threshold);
      conn->eager_threshold = eager.threshold;
      conn->recv_buf_size = eager.ring_buf;
      if (eager.mismatch) ++stats_.threshold_mismatches;
      if (batch_.enabled) conn->responses = std::make_unique<rpc::Coalescer<RespSink>>(batch_);
      // kRecv completions carry the connection id as qp_context — with a
      // shared ring the wr_id names only the buffer, not the sender.
      conn->qp->set_context(conn->id);
      ConnState* raw = conn.get();
      conns_[conn->id] = std::move(conn);
      if (shard.srq) {
        raw->qp->set_srq(shard.srq.get());
      } else {
        // Legacy per-connection ring (pool.srq_depth == 0).
        for (int i = 0; i < WireDefaults::kRecvDepth; ++i) {
          post_recv_buffer(shard, raw, native_.acquire(raw->recv_buf_size));
        }
      }
    }
  } catch (const sim::ChannelClosed&) {
  } catch (const net::SocketError&) {
  }
}

sim::Task RdmaRpcServer::fetch_call(std::shared_ptr<Shard> shard, ConnPtr conn,
                                    std::uint32_t rkey, std::uint64_t off, std::uint32_t len) {
  const sim::Time recv_start = host_.sched().now();
  // Graceful degradation: when the registered pool is dry and the demand-
  // allocation cap is reached, refuse the rendezvous instead of growing
  // native memory without bound. The NACK names the client's rkey; the
  // client resubmits the call over the socket fallback path.
  NativeBuffer* dst = shadow_.try_acquire_sized(len);
  if (dst == nullptr) {
    // The call's trace context is inside the frame we refused to fetch;
    // the client records the overload.nack span with full context.
    ++shard->pipeline.stats().pool_nacks;
    const ControlFrame nack(Control{FrameType::kNack, rkey});
    try {
      co_await conn->qp->post_send(0, nack.span());
    } catch (const verbs::VerbsError&) {
    }
    co_return;
  }
  // A failed READ (the client's source is gone, or the QP died) leaves
  // `dst` holding no frame, so nothing runs.
  bool fetched = false;
  try {
    const net::MutByteSpan into(dst->span.data(), len);
    fetched = co_await shard->reads.read(host_.sched(), *conn->qp, into, {rkey, off, len}) == 0;
  } catch (const std::exception&) {
  }
  if (!fetched) {
    native_.release(dst);
    co_return;
  }
  ServerCall call{.conn = conn, .buf = dst, .frame_len = len, .recv_start = recv_start};
  co_await enqueue_call(std::move(call));
}

sim::Task RdmaRpcServer::reader_loop(std::shared_ptr<Shard> owned) {
  Shard& shard = *owned;
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await shard.cq.wait();
      switch (wc.opcode) {
        case verbs::Opcode::kSend: {
          // Eager response on the wire: pooled source (if any; odd wr_ids
          // are READ tokens) is reusable.
          if ((wc.wr_id & 1) == 0) native_.release(reinterpret_cast<NativeBuffer*>(wc.wr_id));
          break;
        }
        case verbs::Opcode::kRdmaRead:
          shard.reads.complete(wc);
          break;
        case verbs::Opcode::kRecv: {
          auto* rb = reinterpret_cast<NativeBuffer*>(wc.wr_id);
          shard.ring_bytes -= std::min(shard.ring_bytes, rb->span.size());
          auto cit = conns_.find(wc.qp_context);
          if (cit == conns_.end() || shard.stopped) {
            // Completion raced an eviction or a stop: the frame has no
            // connection to answer on anymore; just recycle the buffer.
            recycle_recv_buffer(shard, nullptr, rb);
            break;
          }
          ConnPtr conn = cit->second;
          conn->last_recv = host_.sched().now();
          net::ByteSpan frame(rb->span.data(), wc.byte_len);
          co_await host_.compute(cm.cq_poll() + cm.thread_wakeup());
          const auto type = static_cast<FrameType>(frame[0]);
          if (type == FrameType::kCall) {
            // Hand the pooled buffer to the call; the ring replaces it
            // (SRQ: the low-watermark refill; legacy: an immediate post).
            ServerCall call{
                .conn = conn, .buf = rb, .frame_len = wc.byte_len, .recv_start = host_.sched().now()};
            co_await enqueue_call(std::move(call));
            if (!shard.srq && !shard.stopped) {
              post_recv_buffer(shard, conn.get(), native_.acquire(conn->recv_buf_size));
            }
          } else if (type == FrameType::kBatch) {
            // Client-coalesced eager calls: split into pooled copies (each
            // sub-call owns its buffer like a fetched call) so admission,
            // deadlines and tracing all stay per call. One copy charge
            // covers the whole frame; the slot recycles after the split
            // (its contents are stable until reposted). A malformed frame
            // is dropped whole.
            std::vector<net::ByteSpan> subs;
            if (split_batch(frame, subs) == BatchSplit::kOk) {
              co_await enqueue_batch(conn, frame, subs, std::nullopt);
            }
            recycle_recv_buffer(shard, conn.get(), rb);  // frame fully copied out
          } else {
            Control c;
            const bool control = parse_control(frame, c);
            if (control && c.type == FrameType::kCtrlCall) {
              host_.sched().spawn(fetch_call(owned, conn, c.rkey, c.off, c.len));
            } else if (control && c.type == FrameType::kAck) {
              auto it = shard.pending_resp.find(c.rkey);
              if (it != shard.pending_resp.end()) {
                native_.release(it->second);
                shard.pending_resp.erase(it);
              }
            }
            recycle_recv_buffer(shard, conn.get(), rb);  // an unknown or short frame is dropped
          }
          break;
        }
        default:
          break;
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Task RdmaRpcServer::ud_reader_loop(std::shared_ptr<UdPlane> plane) {
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await plane->cq.wait();
      if (wc.opcode == verbs::Opcode::kSend) {
        // Response datagram on the wire: pooled source is reusable.
        if ((wc.wr_id & 1) == 0) native_.release(reinterpret_cast<NativeBuffer*>(wc.wr_id));
        continue;
      }
      if (wc.opcode != verbs::Opcode::kRecv) continue;
      auto* rb = reinterpret_cast<NativeBuffer*>(wc.wr_id);
      const std::size_t ep_index = static_cast<std::size_t>(wc.qp_context);
      constexpr std::size_t grh = verbs::UdEndpoint::kGrhBytes;
      if (!plane->stopped && wc.byte_len > grh + kUdHeaderBytes &&
          static_cast<FrameType>(rb->span.data()[grh]) == FrameType::kUdCall) {
        const net::ByteSpan frame(rb->span.data() + grh, wc.byte_len - grh);
        verbs::UdEndpoint::Grh src;
        net::decode_frame(rb->span, src);
        const std::uint64_t sid = session_.enabled ? read_be64(frame.data() + 1) : 0;
        // One pseudo-connection per datagram: the handler pipeline keys
        // sessions, fences, dedup and the response path off the ConnState,
        // and UD keeps none per client — so each datagram carries its own,
        // never entered into conns_. Owner and shard homing follow the
        // session id exactly like a reconnecting RC client, so a retry
        // that switches transport still deduplicates on the home shard.
        // The datagram belongs to the run whose plane reaped it: its home
        // shard is held from here on.
        auto conn = std::make_shared<ConnState>();
        conn->session_id = sid;
        conn->owner = sid != 0 ? sid : ((std::uint64_t{1} << 62) | src.host);
        const std::shared_ptr<Shard> shard = core_.home(sid, src.host);
        conn->shard = shard->pipeline.shard_id();
        conn->eager_threshold = cfg_.eager_threshold;
        const std::optional<UdReturn> ret = UdReturn{
            plane, verbs::AddressHandle{static_cast<cluster::HostId>(src.host), src.qpn},
            ep_index};
        co_await host_.compute(cm.cq_poll() + cm.thread_wakeup());
        const net::ByteSpan inner(frame.data() + kUdHeaderBytes,
                                  frame.size() - kUdHeaderBytes);
        const auto itype = static_cast<FrameType>(inner[0]);
        if (itype == FrameType::kCall) {
          co_await host_.compute(cm.direct_copy(inner.size()));
          ++shard->pipeline.stats().ud_calls_received;
          ServerCall call = copied_call(conn, inner, host_.sched().now(), ret);
          co_await enqueue_call(std::move(call));
        } else if (itype == FrameType::kBatch) {
          // Split per sub-call BEFORE any session logic: each sub-call of
          // a batched frame meets the lease/fence/dedup checks on its own
          // id, so a mid-flight session expiry bounces the affected
          // sub-calls individually (kSessionExpired) instead of failing
          // the frame as one retryable unit.
          std::vector<net::ByteSpan> subs;
          if (split_batch(inner, subs) == BatchSplit::kOk) {
            co_await enqueue_batch(conn, inner, subs, ret);
          }
        }
      }
      // The ring slot is fully copied out (or the datagram was garbage):
      // repost it immediately so the fixed footprint holds, unless the
      // plane stopped.
      if (!plane->stopped) {
        plane->eps[ep_index]->post_recv(wc.wr_id, rb->span);
      } else {
        native_.release(rb);
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Co<void> RdmaRpcServer::ud_respond(ServerCall& call, NativeBuffer* buf,
                                        net::ByteSpan msg) {
  const std::shared_ptr<Shard> shard = shard_of(*call.conn);
  UdPlane& plane = *call.ud->plane;  // owned by the call
  if (msg.size() > verbs::UdEndpoint::kMtu) {
    // A datagram cannot fragment: bounce with an error frame naming the
    // limit instead of throwing at the HCA. Responses this size belong on
    // the RC path (the client's budget keeps *requests* off UD, but a
    // small request may still produce a huge response).
    ++shard->pipeline.stats().ud_resp_oversize;
    const std::uint64_t id = read_be64(msg.data() + 1);
    native_.release(buf);
    RDMAOutputStream err(host_.cost(), shadow_, kUdOversizeKey);
    write_status(err, id, rpc::RpcStatus::kError, "response exceeds the UD datagram MTU");
    co_await host_.compute(err.take_accrued());
    msg = err.data();
    buf = err.take_buffer();
  }
  if (plane.stopped) {  // a reply whose plane was stopped goes unsent
    native_.release(buf);
    co_return;
  }
  try {
    co_await plane.eps[call.ud->ep]->post_send(reinterpret_cast<std::uint64_t>(buf),
                                               call.ud->peer, msg);
    // Released by ud_reader_loop at the kSend completion (even wr_id).
    ++shard->pipeline.stats().ud_responses_sent;
  } catch (const verbs::VerbsError&) {
    native_.release(buf);
  }
}

sim::Co<void> RdmaRpcServer::enqueue_call(ServerCall call) {
  const std::shared_ptr<Shard> shard = shard_of(*call.conn);
  if (shard->stopped) {
    native_.release(call.buf);
    co_return;
  }
  if (shard->pipeline.bounded()) {
    // Pre-parse the header (bookkeeping only, no cost charged): a garbage
    // header is dropped here, and a shed call is answered by its id.
    RDMAInputStream in(host_.cost(), call.frame());
    rpc::CallHeader hdr;
    if (!read_kcall_header(in, hdr)) {
      native_.release(call.buf);
      co_return;
    }
    if (shard->pipeline.full()) {
      co_await shard->pipeline.shed(host_, *this, call, hdr);
      native_.release(call.buf);
      co_return;
    }
  }
  shard->pipeline.push(std::move(call), host_.sched().now());
}

RdmaRpcServer::ServerCall RdmaRpcServer::copied_call(ConnPtr conn, net::ByteSpan frame,
                                                     sim::Time recv_start,
                                                     std::optional<UdReturn> ud) {
  return ServerCall{.conn = std::move(conn),
                    .buf = shadow_.acquire_copy(frame),
                    .frame_len = static_cast<std::uint32_t>(frame.size()),
                    .recv_start = recv_start,
                    .ud = std::move(ud)};
}

sim::Co<void> RdmaRpcServer::enqueue_batch(ConnPtr conn, net::ByteSpan frame,
                                           const std::vector<net::ByteSpan>& subs,
                                           std::optional<UdReturn> ud) {
  const cluster::CostModel& cm = host_.cost();
  const std::shared_ptr<Shard> shard = shard_of(*conn);
  rpc::RpcStats& st = shard->pipeline.stats();
  ++st.batches_received;
  co_await host_.compute(cm.direct_copy(frame.size()));
  const sim::Time recv_start = host_.sched().now();
  trace::TraceContext bctx;
  for (const net::ByteSpan sub_frame : subs) {
    ServerCall call = copied_call(conn, sub_frame, recv_start, ud);
    ++st.batched_calls_received;
    if (ud) ++st.ud_calls_received;
    if (!bctx.valid()) {
      RDMAInputStream in(cm, call.frame());
      rpc::CallHeader h;
      if (read_kcall_header(in, h)) bctx = h.ctx;
    }
    co_await enqueue_call(std::move(call));
  }
  rpc::recv_span(host_, "batch.parse", {}, bctx, recv_start, host_.sched().now());
}

sim::Task RdmaRpcServer::handler_loop(std::shared_ptr<Shard> owned) {
  Shard& shard = *owned;
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      ServerCall call = co_await shard.pipeline.dequeue();
      const sim::Time t_dequeue = host_.sched().now();
      co_await host_.compute(cm.thread_wakeup() + cm.rpc_framework());

      // Deserialize in place from the registered buffer: no per-call heap
      // buffer, no native->heap copy (Section III-B).
      RDMAInputStream in(cm, call.frame());
      rpc::CallHeader hdr;
      if (!read_kcall_header(in, hdr)) {
        // Garbage header: a timed-out client may have released (and reused)
        // the rendezvous source before our RDMA-READ fetched it. Drop the
        // frame — the client already gave up on this call.
        native_.release(call.buf);
        continue;
      }
      const auto& [id, retried, deadline, ctx, key] = hdr;
      // The id was only parsed here, so the receive interval is recorded
      // retroactively now that the context is known.
      rpc::recv_span(host_, "recv:", key.method, ctx, call.recv_start, call.enqueued);
      // The dequeue gate, with the session lease renewed between its two
      // halves (the socket server renews at arrival).
      if (!shard.pipeline.leave_queue(host_, hdr, call.enqueued, t_dequeue)) {
        native_.release(call.buf);
        continue;
      }
      const std::uint64_t sid = call.conn->session_id;
      shard.pipeline.touch_session(sid, retried, id, host_.sched().now());
      const bool run = co_await shard.pipeline.pass_gate(host_, *this, call, hdr,
                                                         call.conn->owner, sid, t_dequeue);
      if (!run) {
        native_.release(call.buf);
        continue;
      }
      trace::TraceCollector* tr = ctx.valid() ? trace::active(host_.tracer()) : nullptr;
      trace::SpanScope handle(tr, "handle:", key.method, trace::Kind::kServer,
                              trace::Category::kHandler, ctx, host_.id());
      in.trace_context = handle.context();

      RDMAOutputStream out(cm, shadow_, key);
      out.write_u8(static_cast<std::uint8_t>(FrameType::kResp));
      out.write_u64(id);
      out.write_u8(0);  // status placeholder; rewritten below on error

      // A response that outgrew a capped-out pool mid-serialization sheds
      // with a retryable busy status instead of a hard RemoteException,
      // mirroring the rendezvous NACK's graceful degradation.
      rpc::Invocation<PoolExhaustedError> invocation(dispatcher_, key, in, out);
      const rpc::RpcStatus status = co_await invocation;
      const std::string& error_msg = invocation.error();

      shard.pipeline.stats().recv_alloc_us.add(sim::to_us(in.take_alloc_accrued()) +
                                               RDMAOutputStream::kAcquireUs);
      shard.pipeline.stats().recv_total_us.add(
          sim::to_us(host_.sched().now() - call.recv_start));

      // An error rebuilds the frame with its payload. A response the
      // deadline overtook during execution is dropped unsent (its pooled
      // buffer returns with the stream); a busy one goes out status-only.
      try {
        if (status == rpc::RpcStatus::kError) {
          RDMAOutputStream err(cm, shadow_, key);
          write_status(err, id, rpc::RpcStatus::kError, error_msg);
          if (shard.pipeline.finish(host_, hdr, call.conn->owner, status, err.data())) {
            co_await respond(call, err);
          }
        } else if (shard.pipeline.finish(host_, hdr, call.conn->owner, status, out.data())) {
          if (status == rpc::RpcStatus::kBusy) {
            const std::string busy = "server busy: " + error_msg;
            co_await send_status(call, id, status, busy);
          } else {
            co_await respond(call, out);
          }
        }
      } catch (const verbs::VerbsError&) {
        // Client disconnected between handling and responding; drop it.
      }
      co_await host_.compute(in.take_accrued());
      handle.end();
      native_.release(call.buf);  // the kCall frame's buffer
      ++shard.pipeline.stats().calls_handled;
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Co<void> RdmaRpcServer::respond(ServerCall& call, RDMAOutputStream& out) {
  const cluster::CostModel& cm = host_.cost();
  ConnPtr conn = call.conn;
  // UD pseudo-connections never coalesce (no batcher; one datagram per
  // response back to the GRH source).
  if (conn->responses != nullptr) {
    const RespSink sink{this, conn, alive_};
    if (batch_.batchable(out.length()) && out.length() <= sink.limit()) {
      // Coalesced path: copy the frame out so the stream's pooled buffer
      // returns immediately (via its destructor) and skip the per-response
      // doorbell — the flush pays one JNI crossing for the whole batch.
      const sim::Dur cost =
          out.take_accrued() + cm.rpc_framework() + cm.direct_copy(out.length());
      co_await host_.compute(cost);
      shadow_.update_history(out.key(), out.length());
      net::Bytes payload(out.data().begin(), out.data().end());
      const trace::TraceContext untraced{};
      co_await conn->responses->append(sink, std::move(payload), untraced);
      co_return;
    }
  }
  co_await host_.compute(out.take_accrued() + cm.jni_call() + cm.rpc_framework());
  const net::ByteSpan msg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(out.key(), msg.size());
  co_await send_response(call, buf, msg);
}

sim::Co<void> RdmaRpcServer::send_status(ServerCall& call, std::uint64_t id,
                                         rpc::RpcStatus status, const std::string& msg) {
  try {
    RDMAOutputStream out(host_.cost(), shadow_, status_key(status));
    write_status(out, id, status, msg);
    co_await respond(call, out);
  } catch (const verbs::VerbsError&) {
  }
}

sim::Co<void> RdmaRpcServer::send_frame(ServerCall& call, net::ByteSpan frame) {
  const cluster::CostModel& cm = host_.cost();
  NativeBuffer* buf = shadow_.acquire_copy(frame);
  try {
    co_await host_.compute(cm.direct_copy(frame.size()) + cm.jni_call() + cm.rpc_framework());
    co_await send_response(call, buf, net::ByteSpan(buf->span.data(), frame.size()));
  } catch (const verbs::VerbsError&) {
  }
}

sim::Co<void> RdmaRpcServer::send_response(ServerCall& call, NativeBuffer* buf,
                                           net::ByteSpan msg) {
  if (call.ud) {
    // One kResp datagram back to the GRH source; no rendezvous (no QP to
    // READ over) — oversize responses bounce inside ud_respond.
    co_await ud_respond(call, buf, msg);
    co_return;
  }
  const std::shared_ptr<Shard> shard = shard_of(*call.conn);
  try {
    if (msg.size() <= call.conn->eager_threshold) {
      co_await call.conn->qp->post_send(reinterpret_cast<std::uint64_t>(buf), msg);
      // Released by reader_loop at the kSend completion.
    } else {
      shard->pending_resp[buf->mr.rkey] = buf;
      const ControlFrame ctrl(Control{FrameType::kCtrlResp, buf->mr.rkey,
                                      static_cast<std::uint64_t>(msg.data() - buf->mr.addr),
                                      static_cast<std::uint32_t>(msg.size())});
      co_await call.conn->qp->post_send(0, ctrl.span());
    }
  } catch (const verbs::VerbsError&) {
    shard->pending_resp.erase(buf->mr.rkey);
    native_.release(buf);
    throw;
  }
}

std::size_t RdmaRpcServer::RespSink::limit() const {
  // Batch frames ride the eager path, so the whole frame must fit the
  // client's pre-posted receive buffers: clamp to the negotiated threshold.
  return std::min(self->batch_.max_bytes, conn->eager_threshold);
}

sim::Co<void> RdmaRpcServer::flush_response_batch(ConnPtr conn, std::vector<net::Bytes> items,
                                                  std::shared_ptr<bool> alive) {
  const cluster::CostModel& cm = host_.cost();
  // [u8 kBatch][u32 count][u32 len_i x count][kResp sub-frames...] encoded
  // straight into a pooled registered buffer — one doorbell for the lot.
  const std::size_t total = batch_frame_size(items);
  NativeBuffer* fb = shadow_.acquire_sized(total);
  encode_batch(items, fb->span.data());
  const sim::Dur encode_cost = cm.direct_copy(total) + cm.jni_call();
  co_await host_.compute(encode_cost);
  if (!*alive) {
    // Server stopped while we computed; the pool outlives stop(), so the
    // lease can still go back.
    native_.release(fb);
    co_return;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await conn->qp->post_send(reinterpret_cast<std::uint64_t>(fb), wire);
    // fb is released by reader_loop at the kSend completion (even wr_id).
  } catch (const verbs::VerbsError&) {
    native_.release(fb);
    co_return;
  }
  if (!*alive) co_return;
  Shard& shard = *shard_of(*conn);
  ++shard.pipeline.stats().response_batches;
  shard.pipeline.stats().batched_responses += items.size();
}

}  // namespace rpcoib::oib
