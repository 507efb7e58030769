#include "rpc/socket_server.hpp"

#include <algorithm>
#include <utility>

#include "net/frame.hpp"
#include "rpc/buffers.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

namespace {
/// Releases a Reader slot on scope exit (including exceptional exits).
class ReaderSlotGuard {
 public:
  explicit ReaderSlotGuard(sim::Semaphore& sem) : sem_(sem) {}
  ReaderSlotGuard(const ReaderSlotGuard&) = delete;
  ReaderSlotGuard& operator=(const ReaderSlotGuard&) = delete;
  ~ReaderSlotGuard() { sem_.release(); }

 private:
  sim::Semaphore& sem_;
};
}  // namespace

SocketRpcServer::SocketRpcServer(cluster::Host& host, net::SocketTable& sockets,
                                 net::Address addr, int num_handlers, int num_shards)
    : host_(host),
      sockets_(sockets),
      addr_(addr),
      num_handlers_(num_handlers),
      core_(host.sched(), num_shards) {}

SocketRpcServer::~SocketRpcServer() { stop(); }

void SocketRpcServer::start() {
  if (running_) return;
  running_ = true;
  core_.build(overload_, session_);
  host_.sched().spawn(listener_loop(sockets_.listen(addr_)));
  core_.spawn_handlers(num_handlers_, [this](auto s) { return handler_loop(s); });
  for (const auto& shard : core_.shards()) host_.sched().spawn(responder_loop(shard));
}

void SocketRpcServer::stop() {
  if (!running_) return;
  running_ = false;
  sockets_.unlisten(addr_);
  // Queued-but-unexecuted calls must not vanish silently: every shard
  // drains with accounting. Their callers observe a transport error when
  // the connections close below, so every dropped call is surfaced.
  core_.drain([](ServerCall&) {});
  for (net::SocketPtr& c : conns_) c->close();
  conns_.clear();
  // Executed-but-unsent responses are equally accounted: the handler ran,
  // but the responder never wrote the frame (callers see the closed
  // connection as a transport error and may retry via the retry cache).
  for (const auto& sh : core_.shards()) {
    Response resp;
    while (sh->response_queue.try_recv(resp)) {
      ++sh->pipeline.stats().responses_dropped_on_stop;
    }
    sh->response_queue.close();
  }
}

sim::Task SocketRpcServer::listener_loop(std::shared_ptr<net::Listener> l) {
  try {
    for (;;) {
      net::SocketPtr conn = co_await l->accept();
      const std::uint64_t conn_id = ++conn_seq_;
      conns_.push_back(conn);
      host_.sched().spawn(reader_loop(std::move(conn), conn_id));
    }
  } catch (const sim::ChannelClosed&) {
    // stop() shut the listener down.
  }
}

net::Bytes SocketRpcServer::response_frame(std::uint64_t id, RpcStatus status,
                                           const std::string& msg, net::ByteSpan value,
                                           sim::Dur* cost) const {
  const cluster::CostModel& cm = host_.cost();
  const bool ok = status == RpcStatus::kSuccess;
  BufferedOutputStream frame(cm);
  DataOutputBuffer head(cm, kClientInitialBuffer);
  head.write_u64(id);
  head.write_u8(static_cast<std::uint8_t>(status));
  if (!ok) head.write_text(msg);
  frame.write_u32(static_cast<std::uint32_t>(head.length() + value.size()));
  frame.write_payload(head.data());
  if (ok) frame.write_payload(value);
  frame.flush();
  const sim::Dur spent = head.take_accrued() + frame.take_accrued();
  if (cost != nullptr) *cost = spent;
  return frame.take_pending();
}

sim::Co<void> SocketRpcServer::send_status(ServerCall& call, std::uint64_t id, RpcStatus status,
                                           const std::string& msg) {
  // Status answers are meant to be cheap: no CPU is modeled for the frame.
  call.shard->response_queue.push(Response{call.conn, response_frame(id, status, msg)});
  co_return;
}

sim::Co<void> SocketRpcServer::send_frame(ServerCall& call, net::ByteSpan frame) {
  call.shard->response_queue.push(Response{call.conn, net::Bytes(frame.begin(), frame.end())});
  co_return;
}

sim::Task SocketRpcServer::reader_loop(net::SocketPtr conn, std::uint64_t conn_id) {
  const cluster::CostModel& cm = host_.cost();
  try {
    // The connection's receive CPU is paid inside the Reader critical
    // section below, as on a real selector-driven Reader thread.
    conn->set_deferred_rx_charge(true);
    // Connection preamble: the magic and version, then a version-5
    // client's durable session id.
    net::Bytes pre(Preamble::kMaxBytes);
    const net::MutByteSpan head = net::MutByteSpan(pre).first(Preamble::kHeadBytes);
    co_await conn->read_full(head);
    Preamble preamble;
    net::decode_frame(head, preamble);
    if (preamble.version == Preamble::kSessionVersion) {
      co_await conn->read_full(net::MutByteSpan(pre).subspan(Preamble::kHeadBytes));
      net::decode_frame(pre, preamble);
    }
    std::uint64_t session_id = preamble.session_id;
    // Ignore an advertised session when the feature is off locally: the
    // call path stays byte-identical to a sessionless build.
    if (!session_.enabled) session_id = 0;
    // Stable affinity: a reconnecting session lands on the shard holding
    // its lease and retry-cache entries; a sessionless connection's shard
    // is a pure function of its dense id, so seeded replays land
    // deterministically.
    const std::shared_ptr<Shard> home = core_.home(session_id, conn_id - 1);
    ++home->pipeline.counters().conns_assigned;
    Shard& shard = *home;

    for (;;) {
      // Listing 2, lines 3-5: 4-byte length buffer. Waiting for the call
      // to start arriving is idle time; once readable, the connection's
      // processing serializes through the shard's Reader thread pool
      // (default 1, Hadoop's selector model) — the socket server's
      // throughput cap, and the contention point sharding splits.
      net::Bytes len_buf(4);
      co_await conn->read_full(len_buf);
      co_await shard.reader_slots.acquire();
      // From here to release() any exception must free the Reader slot.
      ReaderSlotGuard slot_guard(shard.reader_slots);
      const sim::Time t_recv_start = host_.sched().now();
      sim::Dur alloc_cost = cm.heap_alloc(4);
      co_await host_.compute(conn->take_rx_charge() + cm.selector() + 2 * cm.syscall() +
                              cm.heap_alloc(4));
      DataInputBuffer len_in(cm, len_buf);
      const std::uint32_t len = len_in.read_u32();

      // Listing 2, lines 6-8: fresh per-call data buffer + full read +
      // native->heap copy.
      net::Bytes frame(len);
      alloc_cost += cm.heap_alloc(len);
      co_await host_.compute(cm.heap_alloc(len));
      co_await conn->read_full(frame);
      co_await host_.compute(conn->take_rx_charge() + cm.native_copy(len));

      // A first word carrying kWireBatchFlag marks a client-coalesced
      // multi-call frame; split it and run every sub-call through the
      // same admission/enqueue path as a standalone frame. The whole
      // batch paid the selector + syscall cost once above — the win the
      // coalescing exists for. A malformed batch is dropped whole. Batch
      // frames are always understood; the local config only gates what
      // this server *emits*.
      if (is_wire_batch(frame)) {
        DataInputBuffer peek(cm, frame);
        std::vector<net::ByteSpan> subs;
        if (split_wire_batch(peek, frame, subs) != BatchSplit::kOk) continue;
        ++shard.pipeline.stats().batches_received;
        co_await host_.compute(peek.take_accrued());
        trace::TraceContext first_ctx{};
        for (const net::ByteSpan view : subs) {
          net::Bytes sub(view.begin(), view.end());
          ++shard.pipeline.stats().batched_calls_received;
          const sim::Dur sub_alloc = cm.heap_alloc(view.size());
          co_await host_.compute(sub_alloc);
          const trace::TraceContext ctx =
              co_await process_frame(conn, conn_id, session_id, shard, std::move(sub),
                                     t_recv_start, alloc_cost + sub_alloc);
          if (!first_ctx.valid()) first_ctx = ctx;
        }
        recv_span(host_, "batch.parse", {}, first_ctx, t_recv_start, host_.sched().now());
      } else {
        co_await process_frame(conn, conn_id, session_id, shard, std::move(frame),
                               t_recv_start, alloc_cost);
      }
    }
  } catch (const net::SocketError&) {
  } catch (const sim::ChannelClosed&) {
  }
  // The peer went away (or stop() closed the connection): close this end
  // too, which wakes the peer's receive loop, and drop it.
  conn->close();
  std::erase(conns_, conn);
}

sim::Co<trace::TraceContext> SocketRpcServer::process_frame(
    net::SocketPtr conn, std::uint64_t conn_id, std::uint64_t session_id, Shard& shard,
    net::Bytes frame, sim::Time t_recv_start, sim::Dur alloc_cost) {
  // Parse the call header; param bytes stay in place in `frame`. A
  // truncated or malformed header drops the frame; the reader goes on.
  DataInputBuffer in(host_.cost(), frame);
  ServerCall call;
  if (!read_call_header(in, call.hdr)) co_return trace::TraceContext{};
  call.recv_start = t_recv_start;
  call.recv_alloc = alloc_cost;
  call.param_off = in.position();
  co_await host_.compute(in.take_accrued());
  const trace::TraceContext ctx = call.hdr.ctx;
  recv_span(host_, "recv:", call.hdr.key.method, ctx, t_recv_start, host_.sched().now());
  call.conn = std::move(conn);
  call.session_id = session_id;
  call.owner = session_id != 0 ? session_id : conn_id;
  call.shard = &shard;
  call.frame = std::move(frame);
  // Sessions renew at arrival here (RPCoIB renews at dequeue).
  shard.pipeline.touch_session(session_id, call.hdr.retried, call.hdr.id, host_.sched().now());

  // A full queue sheds the arrival while it is still cheap — before it
  // costs a handler.
  if (shard.pipeline.full()) {
    co_await shard.pipeline.shed(host_, *this, call, call.hdr);
    co_return ctx;
  }
  shard.pipeline.push(std::move(call), host_.sched().now());
  co_return ctx;
}

sim::Task SocketRpcServer::handler_loop(std::shared_ptr<Shard> owned) {
  Shard& shard = *owned;
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      ServerCall call = co_await shard.pipeline.dequeue();
      const CallHeader& hdr = call.hdr;
      const sim::Time t_dequeue = host_.sched().now();
      // The dequeue gate (the session was renewed at arrival).
      if (!shard.pipeline.leave_queue(host_, hdr, call.enqueued, t_dequeue)) continue;
      const bool run = co_await shard.pipeline.pass_gate(host_, *this, call, hdr, call.owner,
                                                         call.session_id, t_dequeue);
      if (!run) continue;

      trace::TraceCollector* tr = hdr.ctx.valid() ? trace::active(host_.tracer()) : nullptr;
      trace::SpanScope handle(tr, "handle:" + hdr.key.method, trace::Kind::kServer,
                              trace::Category::kHandler, hdr.ctx, host_.id());
      co_await host_.compute(cm.thread_wakeup() + cm.rpc_framework());

      // Deserialize the param and invoke the method; the server-side
      // output buffer starts at 10 KB (Section II-A).
      DataInputBuffer in(cm, net::ByteSpan(call.frame).subspan(call.param_off));
      in.trace_context = handle.context();
      DataOutputBuffer out(cm, kServerInitialBuffer);
      Invocation<> invocation(dispatcher_, hdr.key, in, out);
      const RpcStatus status = co_await invocation;
      co_await host_.compute(in.take_accrued() + out.take_accrued());

      // The receive path per Listing 2 runs through deserialization;
      // Fig. 1 compares its allocation share to its total duration.
      shard.pipeline.stats().recv_alloc_us.add(
          sim::to_us(call.recv_alloc + in.take_alloc_accrued()));
      shard.pipeline.stats().recv_total_us.add(
          sim::to_us(host_.sched().now() - call.recv_start));

      sim::Dur frame_cost = 0;
      net::Bytes wire = response_frame(hdr.id, status, invocation.error(),
                                       status == RpcStatus::kSuccess ? out.data() : net::ByteSpan{},
                                       &frame_cost);
      co_await host_.compute(frame_cost + cm.rpc_framework());
      handle.end();
      // Executed past the caller's deadline, the response would be ignored:
      // don't spend the Responder + wire on it.
      if (shard.pipeline.finish(host_, hdr, call.owner, status, wire)) {
        shard.response_queue.push(Response{call.conn, std::move(wire)});
      }
      ++shard.pipeline.stats().calls_handled;
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Co<void> SocketRpcServer::write_response_batch(Shard& shard, net::SocketPtr conn,
                                                    const std::vector<Response*>& group,
                                                    std::size_t begin, std::size_t end) {
  const cluster::CostModel& cm = host_.cost();
  const std::size_t n = end - begin;
  // Each queued frame is [u32 len][payload]; the batch strips the per-frame
  // length prefix and re-frames as one wire write.
  std::vector<net::ByteSpan> payloads;
  payloads.reserve(n);
  for (std::size_t k = begin; k < end; ++k) {
    payloads.push_back(net::ByteSpan(group[k]->data).subspan(4));
  }
  BufferedOutputStream out(cm);
  encode_wire_batch(out, payloads);
  out.flush();
  co_await host_.compute(out.take_accrued());
  net::Bytes wire = out.take_pending();
  ++shard.pipeline.stats().response_batches;
  shard.pipeline.stats().batched_responses += n;
  try {
    co_await conn->write(wire);
  } catch (const net::SocketError&) {
    // Client vanished between handling and responding; drop it.
  }
}

sim::Task SocketRpcServer::responder_loop(std::shared_ptr<Shard> owned) {
  Shard& shard = *owned;
  try {
    for (;;) {
      Response r = co_await shard.response_queue.recv();
      if (!batch_.enabled) {
        try {
          co_await r.conn->write(r.data);
        } catch (const net::SocketError&) {
          // Client vanished between handling and responding; drop it.
        }
        continue;
      }
      // Coalescing: every response already queued behind `r` joins this
      // round, grouped per connection in first-seen order (deterministic —
      // never keyed on pointer order). Handler completions land a few
      // microseconds apart (core-semaphore stagger), so under a dense
      // completion pattern the Responder lingers briefly before draining —
      // that is what turns a burst of handler finishes into one wire write
      // per connection, and what keeps the callers on a shared connection
      // waking in sync (sustaining client-side call coalescing). Sparse
      // completions skip the wait entirely. Connections never migrate
      // between shards, so a connection's responses always coalesce within
      // its home shard's Responder — never across shards.
      shard.resp_gaps.note(host_.sched().now());
      const sim::Dur resp_linger = shard.resp_gaps.linger(batch_.linger / 4);
      if (resp_linger > 0) co_await sim::delay(host_.sched(), resp_linger);
      std::vector<Response> round;
      round.push_back(std::move(r));
      {
        Response more;
        while (shard.response_queue.try_recv(more)) round.push_back(std::move(more));
      }
      std::vector<net::SocketPtr> order;
      for (const Response& resp : round) {
        if (std::find(order.begin(), order.end(), resp.conn) == order.end()) {
          order.push_back(resp.conn);
        }
      }
      for (const net::SocketPtr& conn : order) {
        std::vector<Response*> mine;
        for (Response& resp : round) {
          if (resp.conn == conn) mine.push_back(&resp);
        }
        // Consecutive runs of >=2 small responses become one batch frame
        // (bounded by the config limits); everything else keeps its own
        // byte-identical frame.
        const auto is_small = [this](const Response& resp) {
          return resp.data.size() >= 4 &&
                 resp.data.size() - 4 <= batch_.small_threshold;
        };
        std::size_t i = 0;
        while (i < mine.size()) {
          std::size_t j = i;
          std::size_t run_bytes = 0;
          while (j < mine.size() && is_small(*mine[j]) && (j - i) < batch_.max_calls &&
                 run_bytes + mine[j]->data.size() - 4 <= batch_.max_bytes) {
            run_bytes += mine[j]->data.size() - 4;
            ++j;
          }
          if (j - i >= 2) {
            co_await write_response_batch(shard, conn, mine, i, j);
            i = j;
          } else {
            try {
              co_await conn->write(mine[i]->data);
            } catch (const net::SocketError&) {
              // Client vanished between handling and responding; drop it.
            }
            ++i;
          }
        }
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

}  // namespace rpcoib::rpc
