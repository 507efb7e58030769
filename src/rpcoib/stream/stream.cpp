#include "rpcoib/stream/stream.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "cluster/host.hpp"
#include "trace/trace.hpp"

namespace rpcoib::oib::stream {

namespace {

// Control frames are tiny (the largest, a full grant, is 11 + 16*depth
// bytes plus however much meta an open carries); one pooled class covers
// them all.
constexpr std::size_t kCtrlBufSize = 2048;
constexpr int kCtrlRecvDepth = 16;
// A grant carries its slot count in one byte.
constexpr std::size_t kMaxRingDepth = 255;

StreamConfig clamp_cfg(StreamConfig cfg, const PoolConfig& pool) {
  cfg.chunk_size = std::clamp(cfg.chunk_size, pool.min_class, pool.max_class);
  cfg.ring_depth = std::clamp<std::size_t>(cfg.ring_depth, 1, kMaxRingDepth);
  return cfg;
}

}  // namespace

/// Per-peer stream connection: one QP bootstrapped over the management
/// socket, one CQ for both directions, and the registries that route
/// control frames / chunk completions to their stream objects.
struct StreamConn {
  explicit StreamConn(StreamHub& hub) : cq(hub.host().sched()), ready(hub.host().sched()) {}

  /// The connection core's teardown notification: fail every stream on
  /// the connection and wake its pending fetches (they fall back).
  void fail_all(const std::string& why) {
    broken = true;
    for (auto& [sid, w] : writers) w->on_conn_failed(why);
    for (auto& [sid, r] : readers) r->on_conn_failed(why);
    for (auto& [tok, pf] : fetches) pf->ev.set();
  }

  /// Pre-post the control-frame receive ring.
  void post_ctrl_recvs(NativeBufferPool& pool) {
    for (int i = 0; i < kCtrlRecvDepth; ++i) {
      NativeBuffer* b = pool.acquire(kCtrlBufSize);
      qp->post_recv(wr_of(b), b->span);
    }
  }

  /// Post one control frame while the link is up; a failed post breaks
  /// the connection. True when the frame went out.
  sim::Co<bool> post(const net::Bytes& frame) {
    if (!qp || !qp->connected() || broken) co_return false;
    try {
      co_await qp->post_send(0, net::ByteSpan(frame.data(), frame.size()));
      co_return true;
    } catch (const verbs::VerbsError&) {
      broken = true;
    }
    co_return false;
  }

  verbs::QueuePairPtr qp;
  verbs::CompletionQueue cq;
  // The connection core's state flags (client_core.hpp): `ready` once an
  // outbound dial finished either way, `broken` once the link failed,
  // `cancelled` once the hub shut the connection.
  sim::SimEvent ready;
  bool broken = false;
  bool cancelled = false;
  std::map<std::uint64_t, StreamWriter*> writers;  // by sid (our outbound)
  std::map<std::uint64_t, StreamReader*> readers;  // by sid (peer's outbound)

  /// A fetch() waiting for the peer to open a stream back on this token.
  struct PendingFetch {
    explicit PendingFetch(sim::Scheduler& sched) : ev(sched) {}
    sim::SimEvent ev;
    StreamReaderPtr reader;  // null at ev.set() = refused; fetcher falls back
  };
  std::map<std::uint64_t, PendingFetch*> fetches;
};

// ---------------------------------------------------------------------------
// Chunk

net::ByteSpan Chunk::bytes() const {
  if (payload.is_pattern() && !in_slot_) {
    payload.copy_to(slot_);
    in_slot_ = true;
  }
  return slot_;
}

// ---------------------------------------------------------------------------
// StreamEnd

template <typename Self>
StreamEnd<Self>::StreamEnd(StreamHub& hub, StreamConnPtr conn, std::uint64_t sid,
                           std::uint64_t total, std::size_t chunk_size)
    : host_(&hub.host_),
      pool_(&hub.native_),
      stats_(&hub.stats_),
      hub_alive_(hub.alive_),
      deadline_(hub.cfg_.chunk_deadline),
      conn_(std::move(conn)),
      sid_(sid),
      total_(total),
      chunk_size_(chunk_size) {}

template <typename Self>
StreamEnd<Self>::~StreamEnd() {
  if (!closed_) close_out();
}

template <typename Self>
void StreamEnd<Self>::bump(std::uint64_t rpc::RpcStats::* counter) {
  if (*hub_alive_) ++(stats_->*counter);
}

template <typename Self>
void StreamEnd<Self>::close_out() {
  if (*hub_alive_) {
    for (NativeBuffer* b : buffers_) pool_->release(b);
  }
  buffers_.clear();
  if constexpr (std::is_same_v<Self, StreamReader>) {
    conn_->readers.erase(sid_);
  } else {
    conn_->writers.erase(sid_);
  }
  closed_ = true;
}

template class StreamEnd<StreamReader>;
template class StreamEnd<StreamWriter>;

// ---------------------------------------------------------------------------
// StreamReader

StreamReader::StreamReader(StreamHub& hub, StreamConnPtr conn, std::uint64_t sid,
                           std::uint64_t total, std::size_t chunk_size)
    : StreamEnd(hub, std::move(conn), sid, total, chunk_size),
      arrival_(host_->sched()),
      echo_(host_->sched()) {}

void StreamReader::on_chunk(const verbs::WorkCompletion& wc) {
  // The immediate carries only the low 16 bits of the sequence number; RC
  // in-order delivery makes the arrival counter the authoritative one.
  if (closed_) return;
  const std::uint64_t seq = arrived_++;
  const net::MutByteSpan slot = buffers_[seq % buffers_.size()]->span.first(wc.byte_len);
  const net::Payload landed =
      wc.pattern ? net::Payload::pattern(wc.byte_len, wc.pattern_seed) : net::Payload(slot);
  arrivals_.push_back(Chunk(seq, landed, slot));
  arrival_.signal();
}

void StreamReader::on_writer_abort(const std::string& reason) {
  // Either the writer tore the stream down, or this is its echo of our own
  // abort; both mean no further WRITE can be in flight behind it.
  echo_seen_ = true;
  echo_.signal();
  if (!failed_) {
    failed_ = true;
    fail_reason_ = "writer abort: " + reason;
  }
  arrival_.signal();
}

void StreamReader::on_conn_failed(const std::string& why) {
  if (!failed_) {
    failed_ = true;
    fail_reason_ = why;
  }
  echo_seen_ = true;
  echo_.signal();
  arrival_.signal();
}

sim::Co<Chunk> StreamReader::next_chunk() {
  while (arrivals_.empty()) {
    if (closed_) throw StreamAbortedError("stream closed");
    if (failed_) throw StreamAbortedError(fail_reason_);
    const bool woke = co_await arrival_.wait(deadline_);
    if (!woke) {
      bump(&rpc::RpcStats::stream_deadline_expiries);
      const std::string why = "chunk deadline expired";
      co_await abort(why);
      throw StreamAbortedError(why);
    }
  }
  const Chunk c = arrivals_.front();
  arrivals_.pop_front();
  co_return c;
}

sim::Co<void> StreamReader::release_chunk(std::uint64_t seq) {
  if (closed_ || failed_) co_return;
  co_await conn_->post(
      net::encode_frame(StreamCreditFrame{sid_, static_cast<std::uint32_t>(seq)}));
}

sim::Co<void> StreamReader::finish(std::uint8_t status) {
  if (closed_) co_return;
  co_await conn_->post(net::encode_frame(StreamDoneFrame{sid_, status}));
  close_out();
}

sim::Co<void> StreamReader::abort(const std::string& reason) {
  if (closed_) co_return;
  bump(&rpc::RpcStats::stream_aborts);
  if (!failed_) {
    fail_reason_ = reason;
    const bool sent =
        co_await conn_->post(net::encode_frame(StreamAbortFrame{sid_, net::byte_view(reason)}));
    // Hold the ring until the writer's echoed abort: RC orders the echo
    // after its last in-flight WRITE, so no recycled slot gets written.
    if (sent && !echo_seen_) {
      const bool echoed = co_await echo_.wait(deadline_);
      (void)echoed;
    }
  }
  close_out();
}

// ---------------------------------------------------------------------------
// StreamWriter

StreamWriter::StreamWriter(StreamHub& hub, StreamConnPtr conn, std::uint64_t sid,
                           std::uint64_t total, std::size_t chunk_size)
    : StreamEnd(hub, std::move(conn), sid, total, chunk_size),
      staging_gate_(host_->sched(), 0),
      credit_gate_(host_->sched(), 0),
      grant_ev_(host_->sched()),
      done_ev_(host_->sched()),
      completions_(host_->sched()) {}

void StreamWriter::on_grant(bool accepted, std::vector<verbs::RemoteBuffer> slots) {
  grant_accepted_ = accepted && !slots.empty();
  if (grant_accepted_) {
    slots_ = std::move(slots);
    credit_gate_.add(static_cast<std::int64_t>(slots_.size()));
  }
  grant_ev_.set();
}

void StreamWriter::on_credit() { credit_gate_.add(); }

void StreamWriter::on_done(std::uint8_t status) {
  done_status_ = status;
  done_ev_.set();
}

void StreamWriter::on_peer_abort(const std::string& reason) {
  if (failed_) return;
  failed_ = true;
  fail_reason_ = "peer abort: " + reason;
  staging_gate_.fail();
  credit_gate_.fail();
  grant_ev_.set();
  done_ev_.set();
}

void StreamWriter::on_send_complete() {
  ++completed_;
  staging_gate_.add();
  completions_.signal();
}

void StreamWriter::on_conn_failed(const std::string& why) {
  if (!failed_) {
    failed_ = true;
    fail_reason_ = why;
  }
  conn_->broken = true;
  staging_gate_.fail();
  credit_gate_.fail();
  grant_ev_.set();
  done_ev_.set();
  completions_.signal();
}

sim::Co<void> StreamWriter::write_chunk(net::Payload payload) {
  if (closed_) throw StreamAbortedError("stream closed");
  if (payload.empty() || payload.size() > chunk_size_) {
    throw StreamAbortedError("chunk size out of range");
  }
  bool ok = !failed_;
  NativeBuffer* stag = nullptr;
  if (ok) {
    ok = co_await staging_gate_.take(deadline_);
  }
  if (ok) {
    stag = buffers_[next_seq_ % buffers_.size()];
    // Serialization into registered staging (copy + JNI doorbell prep);
    // the previous chunk's wire time runs under this compute.
    co_await host_->compute(host_->cost().direct_copy(payload.size()) +
                            host_->cost().jni_call());
    if (!payload.is_pattern()) {
      // The WRITE reads real bytes from staging; a pattern moves as its
      // descriptor, so its serialization copy is modelled time only.
      payload.copy_to(stag->span);
      payload = net::ByteSpan(stag->span.data(), payload.size());
    }
    bool stalled = false;
    ok = co_await credit_gate_.take(deadline_, &stalled);
    if (stalled) bump(&rpc::RpcStats::stream_credit_stalls);
  }
  if (!ok) {
    const bool timeout = !failed_;
    if (timeout) bump(&rpc::RpcStats::stream_deadline_expiries);
    const std::string why = timeout ? "chunk deadline expired" : fail_reason_;
    co_await abort(why);
    throw StreamAbortedError(why);
  }
  const std::uint64_t seq = next_seq_++;
  const verbs::RemoteBuffer slot = slots_[seq % slots_.size()];
  const std::uint32_t imm = (static_cast<std::uint32_t>(sid_ & 0xffffu) << 16) |
                            static_cast<std::uint32_t>(seq & 0xffffu);
  bool post_failed = false;
  try {
    co_await conn_->qp->post_rdma_write(sid_, payload, slot, imm);
  } catch (const verbs::VerbsError& e) {
    on_conn_failed(e.what());
    post_failed = true;
  }
  if (post_failed) {
    co_await abort(fail_reason_);
    throw StreamAbortedError(fail_reason_);
  }
  ++posted_;
  bump(&rpc::RpcStats::stream_chunks);
  if (*hub_alive_) stats_->stream_bytes += payload.size();
}

sim::Co<void> StreamWriter::write_all() {
  trace::TraceCollector* tr = trace::active(host_->tracer());
  const sim::Time t0 = host_->sched().now();
  std::uint64_t remaining = total_;
  std::uint64_t k = next_seq_;
  while (remaining > 0) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, chunk_size_));
    co_await write_chunk(net::Payload::pattern(n, k));
    remaining -= n;
    ++k;
  }
  if (tr != nullptr) {
    tr->add_complete("stream.write", trace::Kind::kClient, trace::Category::kStream,
                     trace::TraceContext{}, host_->id(), t0, host_->sched().now());
  }
}

sim::Co<std::uint8_t> StreamWriter::close() {
  if (closed_) throw StreamAbortedError("stream already closed");
  if (!failed_) {
    const bool done = co_await done_ev_.wait_for(deadline_);
    if (!done && !failed_) {
      bump(&rpc::RpcStats::stream_deadline_expiries);
      const std::string why = "done-ack deadline expired";
      co_await abort(why);
      throw StreamAbortedError(why);
    }
  }
  if (failed_) {
    co_await abort(fail_reason_);
    throw StreamAbortedError(fail_reason_);
  }
  co_await drain_and_release();
  co_return done_status_;
}

sim::Co<void> StreamWriter::abort(const std::string& reason) {
  if (closed_) co_return;
  const bool local = !failed_;
  if (local) {
    failed_ = true;
    fail_reason_ = reason;
  }
  staging_gate_.fail();
  credit_gate_.fail();
  bump(&rpc::RpcStats::stream_aborts);
  if (local) {
    // RC orders this abort after every WRITE already posted, so the reader
    // can recycle its ring the moment it arrives.
    co_await conn_->post(net::encode_frame(StreamAbortFrame{sid_, net::byte_view(reason)}));
  }
  co_await drain_and_release();
}

sim::Co<void> StreamWriter::drain_and_release() {
  if (closed_) co_return;
  // Staging slots may only be recycled (released to the pool) after their
  // WRITE completions; a lost connection flushes nothing, so stop waiting.
  while (completed_ < posted_ && conn_->qp && conn_->qp->connected() &&
         !conn_->broken) {
    const bool woke = co_await completions_.wait(deadline_);
    if (!woke) break;
  }
  close_out();
}

// ---------------------------------------------------------------------------
// StreamHub

StreamHub::StreamHub(cluster::Host& host, net::SocketTable& sockets,
                     verbs::VerbsStack& stack, StreamConfig cfg, PoolConfig pool_cfg)
    : host_(host),
      sockets_(sockets),
      stack_(stack),
      cm_(stack, sockets),
      cfg_(clamp_cfg(cfg, pool_cfg)),
      native_(host, stack, pool_cfg),
      pool_ready_(host.sched()) {
  host_.sched().spawn(init_pool_task(alive_));
}

StreamHub::~StreamHub() {
  stop();
  *alive_ = false;
}

sim::Task StreamHub::init_pool_task(std::shared_ptr<bool> alive) {
  if (!*alive) co_return;  // destroyed before the task first ran
  co_await native_.initialize(0, 0, *alive);
  if (*alive) pool_ready_.set();
}

void StreamHub::listen(net::Address addr, OpenHandler on_open, FetchHandler on_fetch) {
  on_open_ = std::move(on_open);
  on_fetch_ = std::move(on_fetch);
  listen_addr_ = addr;
  host_.sched().spawn(listener_loop(sockets_.listen(addr)));
}

bool StreamHub::should_stream(std::uint64_t nbytes) const {
  if (!cfg_.enabled || !running_) return false;
  if (nbytes < cfg_.min_stream_bytes || nbytes == 0) return false;
  const std::uint64_t chunks = (nbytes + cfg_.chunk_size - 1) / cfg_.chunk_size;
  return chunks <= 0xffffu;  // imm seq bits
}

sim::Task StreamHub::listener_loop(std::shared_ptr<net::Listener> l) {
  try {
    co_await pool_ready_.wait();
    for (;;) {
      net::SocketPtr boot = co_await l->accept();
      if (!running_) co_return;
      auto conn = std::make_shared<StreamConn>(*this);
      try {
        conn->qp = co_await cm_.accept(std::move(boot), conn->cq, conn->cq);
      } catch (const verbs::VerbsError&) {
        continue;  // malformed bootstrap; drop it
      } catch (const net::SocketError&) {
        continue;
      }
      if (l->closed()) {
        conn->qp->disconnect();  // stopped mid-handshake: take no more connections
        continue;
      }
      conn->post_ctrl_recvs(native_);
      conn->ready.set();
      accepted_.push_back(conn);
      host_.sched().spawn(conn_loop(conn));
    }
  } catch (const sim::ChannelClosed&) {
  } catch (const net::SocketError&) {
  }
}

sim::Co<void> StreamHub::dial(const ConnPtr& conn, net::Address addr) {
  if (!running_) throw rpc::RpcTransportError("stream hub stopped");
  conn->qp = co_await cm_.connect(host_, addr, conn->cq, conn->cq);
  conn->post_ctrl_recvs(native_);
  host_.sched().spawn(conn_loop(conn));
}

void StreamHub::break_link(StreamConn& conn) {
  if (conn.qp) {
    // Posted control receives will never complete once the link is gone:
    // reclaim them here.
    native_.release_posted(conn.qp->drain_posted_recvs());
    conn.qp->disconnect();
  }
  conn.cq.close();
}

const char* StreamHub::link_lost(const StreamConn& conn) {
  return conn.qp && !conn.qp->connected() ? "stream peer lost" : nullptr;
}

sim::Co<StreamConnPtr> StreamHub::outbound(net::Address addr) {
  co_await pool_ready_.wait();
  if (running_) {
    try {
      co_return co_await core_.get(addr);
    } catch (const std::exception&) {
    }
  }
  ++stats_.stream_fallbacks;
  co_return nullptr;
}

sim::Task StreamHub::conn_loop(ConnPtr conn) {
  const std::shared_ptr<bool> alive = alive_;
  NativeBufferPool* pool = &native_;
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await conn->cq.wait();
      if (conn->cancelled) {
        // stop() already reclaimed posted recvs and disconnected; only
        // completions queued before the close surface here. The hub (and
        // its pool) may be gone by the time this resumes.
        if (wc.opcode == verbs::Opcode::kRecv && *alive) {
          if (NativeBuffer* b = buf_of(wc.wr_id)) pool->release(b);
        }
        continue;
      }
      switch (wc.opcode) {
        case verbs::Opcode::kRecv: {
          NativeBuffer* b = buf_of(wc.wr_id);
          if (b == nullptr) break;
          handle_frame(conn, net::ByteSpan(b->span.data(), wc.byte_len));
          if (conn->qp && conn->qp->connected() && !conn->broken) {
            conn->qp->post_recv(wc.wr_id, b->span);
          } else {
            pool->release(b);
          }
          break;
        }
        case verbs::Opcode::kRecvRdmaWithImm: {
          const std::uint32_t sid16 = wc.imm_data >> 16;
          for (auto& [sid, r] : conn->readers) {
            if ((sid & 0xffffu) == sid16) {
              r->on_chunk(wc);
              break;
            }
          }
          break;
        }
        case verbs::Opcode::kRdmaWrite: {
          auto it = conn->writers.find(wc.wr_id);
          if (it != conn->writers.end()) it->second->on_send_complete();
          break;
        }
        default:
          break;  // kSend doorbell acks carry no state
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

void StreamHub::handle_frame(const ConnPtr& conn, net::ByteSpan f) {
  if (f.empty()) return;
  auto writer = [&conn](std::uint64_t sid) {
    auto it = conn->writers.find(sid);
    return it == conn->writers.end() ? nullptr : it->second;
  };
  switch (static_cast<FrameType>(f[0])) {
    case FrameType::kStreamOpen: {
      StreamOpenFrame m;
      if (!net::decode_frame(f, m)) return;
      host_.sched().spawn(handle_open(conn, m.sid, m.total, m.chunk, m.depth,
                                      net::Bytes(m.meta.begin(), m.meta.end())));
      break;
    }
    case FrameType::kStreamGrant: {
      StreamGrantFrame m;
      if (!net::decode_frame(f, m)) return;
      if (StreamWriter* w = writer(m.sid)) w->on_grant(m.accepted, std::move(m.slots));
      break;
    }
    case FrameType::kStreamCredit: {
      StreamCreditFrame m;
      if (!net::decode_frame(f, m)) return;
      if (StreamWriter* w = writer(m.sid)) w->on_credit();
      break;
    }
    case FrameType::kStreamDone: {
      StreamDoneFrame m;
      if (!net::decode_frame(f, m)) return;
      if (StreamWriter* w = writer(m.sid)) w->on_done(m.status);
      break;
    }
    case FrameType::kStreamAbort: {
      StreamAbortFrame m;
      if (!net::decode_frame(f, m)) return;
      const std::string reason(m.reason.begin(), m.reason.end());
      if (StreamWriter* w = writer(m.sid)) {
        const bool first = !w->failed_;
        w->on_peer_abort(reason);
        if (first) {
          // Echo, so the aborting reader knows our last WRITE is behind it
          // and can recycle its ring.
          const std::string echo = "echo: " + reason;
          host_.sched().spawn(
              send_frame(conn, net::encode_frame(StreamAbortFrame{m.sid, net::byte_view(echo)})));
        }
        break;
      }
      auto rit = conn->readers.find(m.sid);
      if (rit != conn->readers.end()) rit->second->on_writer_abort(reason);
      break;
    }
    case FrameType::kStreamFetch: {
      StreamFetchFrame m;
      // No server: the fetcher times out.
      if (!net::decode_frame(f, m) || !on_fetch_) break;
      host_.sched().spawn(on_fetch_(conn, m.token, net::Bytes(m.meta.begin(), m.meta.end())));
      break;
    }
    default:
      break;
  }
}

sim::Task StreamHub::handle_open(ConnPtr conn, std::uint64_t sid, std::uint64_t total,
                                 std::uint32_t chunk_size, std::uint32_t depth,
                                 net::Bytes meta) {
  const std::shared_ptr<bool> alive = alive_;
  // A chunk the pool cannot lease or a ring the grant cannot describe is
  // refused like any other grant failure. Judged before the first
  // suspension: GCC 12.2 at -O3 accepted depth 256 when this chain ran
  // after the co_await below.
  const bool geometry_ok = chunk_size > 0 && chunk_size <= native_.max_lease() && depth >= 1 &&
                           depth <= kMaxRingDepth;
  co_await pool_ready_.wait();
  if (!*alive || conn->cancelled) co_return;
  // An empty meta reads as an application open with no meta.
  StreamRoute route;
  const bool routed = net::decode_frame(meta, route);
  const bool fetch_resp = route.route == StreamRoute::kFetch;
  StreamConn::PendingFetch* pf = nullptr;
  if (fetch_resp && routed) {
    auto it = conn->fetches.find(route.token);
    if (it != conn->fetches.end()) pf = it->second;
  }
  bool accept = running_ && !conn->broken && geometry_ok &&
                (fetch_resp ? pf != nullptr : static_cast<bool>(on_open_));
  std::vector<NativeBuffer*> ring;
  if (accept) {
    // try_acquire honors PoolConfig::demand_alloc_cap: a capped endpoint
    // refuses the grant and the writer degrades to its legacy path.
    for (std::uint32_t i = 0; i < depth; ++i) {
      NativeBuffer* b = native_.try_acquire(chunk_size);
      if (b == nullptr) {
        ++stats_.stream_pool_denied;
        break;
      }
      ring.push_back(b);
    }
    if (ring.empty()) accept = false;
  }
  if (!accept) {
    for (NativeBuffer* b : ring) native_.release(b);
    host_.sched().spawn(send_frame(conn, net::encode_frame(StreamGrantFrame{sid, false, {}})));
    if (pf != nullptr) pf->ev.set();  // null reader: fetcher falls back now
    co_return;
  }
  StreamReaderPtr r(new StreamReader(*this, conn, sid, total, chunk_size));
  r->buffers_ = std::move(ring);
  conn->readers[sid] = r.get();
  StreamGrantFrame grant{sid, true, {}};
  grant.slots.reserve(r->buffers_.size());
  for (NativeBuffer* b : r->buffers_) {
    grant.slots.push_back({b->mr.rkey, 0, chunk_size});
  }
  host_.sched().spawn(send_frame(conn, net::encode_frame(grant)));
  ++stats_.streams_opened;
  if (pf != nullptr) {
    pf->reader = std::move(r);
    pf->ev.set();
  } else {
    host_.sched().spawn(on_open_(std::move(r), net::Bytes(route.app.begin(), route.app.end())));
  }
}

sim::Task StreamHub::send_frame(ConnPtr conn, net::Bytes frame) {
  co_await conn->post(frame);
}

sim::Co<StreamWriterPtr> StreamHub::open(net::Address addr, net::Bytes meta,
                                         std::uint64_t total_bytes) {
  ConnPtr conn = co_await outbound(addr);
  if (conn == nullptr) co_return nullptr;
  co_return co_await open_impl(std::move(conn),
                               net::encode_frame(StreamRoute{StreamRoute::kApp, 0, meta}),
                               total_bytes);
}

sim::Co<StreamWriterPtr> StreamHub::open_on(ConnPtr conn, std::uint64_t token,
                                            std::uint64_t total_bytes) {
  if (conn == nullptr || conn->broken || conn->cancelled) {
    ++stats_.stream_fallbacks;
    co_return nullptr;
  }
  co_await pool_ready_.wait();
  co_return co_await open_impl(std::move(conn),
                               net::encode_frame(StreamRoute{StreamRoute::kFetch, token, {}}),
                               total_bytes);
}

sim::Co<StreamWriterPtr> StreamHub::open_impl(ConnPtr conn, net::Bytes routed_meta,
                                              std::uint64_t total_bytes) {
  // Staging ring through try_acquire: a demand-alloc-capped client falls
  // back to its legacy path rather than bypassing the cap.
  std::vector<NativeBuffer*> staging;
  for (std::size_t i = 0; i < cfg_.ring_depth; ++i) {
    NativeBuffer* b = native_.try_acquire(cfg_.chunk_size);
    if (b == nullptr) {
      ++stats_.stream_pool_denied;
      break;
    }
    staging.push_back(b);
  }
  if (staging.empty()) {
    ++stats_.stream_fallbacks;
    co_return nullptr;
  }
  const std::uint64_t sid = next_sid_++;
  StreamWriterPtr w(new StreamWriter(*this, conn, sid, total_bytes, cfg_.chunk_size));
  w->buffers_ = std::move(staging);
  w->staging_gate_.add(static_cast<std::int64_t>(w->buffers_.size()));
  conn->writers[sid] = w.get();
  host_.sched().spawn(send_frame(
      conn, net::encode_frame(StreamOpenFrame{sid, total_bytes,
                                              static_cast<std::uint32_t>(cfg_.chunk_size),
                                              static_cast<std::uint32_t>(cfg_.ring_depth),
                                              routed_meta})));
  const bool granted = co_await w->grant_ev_.wait_for(cfg_.chunk_deadline);
  if (!granted || !w->grant_accepted_ || w->failed_) {
    ++stats_.stream_fallbacks;
    w->close_out();
    co_return nullptr;
  }
  ++stats_.streams_opened;
  co_return w;
}

sim::Co<StreamReaderPtr> StreamHub::fetch(net::Address addr, net::Bytes meta) {
  ConnPtr conn = co_await outbound(addr);
  if (conn == nullptr) co_return nullptr;
  const std::uint64_t token = next_token_++;
  StreamConn::PendingFetch pf(host_.sched());
  conn->fetches[token] = &pf;
  host_.sched().spawn(send_frame(conn, net::encode_frame(StreamFetchFrame{token, meta})));
  const bool ok = co_await pf.ev.wait_for(cfg_.chunk_deadline);
  conn->fetches.erase(token);
  if (!ok || pf.reader == nullptr) {
    ++stats_.stream_fallbacks;
    co_return nullptr;
  }
  co_return std::move(pf.reader);
}

void StreamHub::stop() {
  if (!running_) return;
  running_ = false;
  if (listen_addr_) sockets_.unlisten(*listen_addr_);
  core_.close_all();
  for (const ConnPtr& c : accepted_) core_.shut(*c, "stream hub stopped");
  accepted_.clear();
}

}  // namespace rpcoib::oib::stream
