#include "rpc/socket_client.hpp"

#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "rpc/buffers.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

SocketRpcClient::SocketRpcClient(cluster::Host& host, net::SocketTable& sockets,
                                 net::Transport transport)
    : host_(host), sockets_(sockets), transport_(transport) {}

SocketRpcClient::~SocketRpcClient() { close_connections(); }

sim::Co<void> SocketRpcClient::dial(const ConnectionPtr& conn, net::Address addr) {
  try {
    conn->sock = co_await sockets_.connect(host_, addr, transport_);
    // A session handshake carries the durable session id: the server keys
    // retry-cache state by it, so dedup survives this connection.
    const std::uint64_t sid = session_id(host_);
    co_await conn->sock->write(net::encode_frame(
        Preamble{sid != 0 ? Preamble::kSessionVersion : Preamble::kVersion, sid}));
  } catch (const net::SocketError& e) {
    throw RpcTransportError(e.what());
  }
  host_.sched().spawn(receive_loop(conn));
}

void SocketRpcClient::break_link(Connection& conn) {
  // A FaultPlan kill closes with the request already on the wire: the
  // server may still execute and respond into the void, which is exactly
  // the duplicate-execution window the session-keyed retry cache must
  // close.
  conn.cancelled = true;
  if (conn.sock) conn.sock->close();
}

sim::Co<void> SocketRpcClient::deliver_one(cluster::Host& host, Connection& conn,
                                           net::ByteSpan payload) {
  const cluster::CostModel& cm = host.cost();
  DataInputBuffer in(cm, payload);
  std::uint64_t id = 0;
  std::uint8_t status = 0;
  // A malformed payload is dropped; its call times out like a lost reply.
  if (!in.try_read_u64(id) || !in.try_read_u8(status)) co_return;
  if (!conn.pending.contains(id)) co_return;  // call raced a timeout; drop
  const bool ok = status == static_cast<std::uint8_t>(RpcStatus::kSuccess);
  std::string error_msg;
  if (!ok && !in.try_read_text(error_msg)) co_return;
  co_await host.compute(in.take_accrued() + cm.thread_wakeup() + cm.rpc_framework());
  // The reply is matched only now, as RPCoIB matches after its receive
  // charge: a call that timed out meanwhile has unregistered itself (its
  // record is gone), and one that fail_all failed over keeps that outcome.
  Pending* pc = conn.take(id);
  if (pc == nullptr) co_return;
  pc->status = status;
  pc->error_msg = std::move(error_msg);
  if (ok) {
    pc->value.assign(payload.begin() + static_cast<std::ptrdiff_t>(in.position()),
                     payload.end());
  }
  pc->done.set();
}

sim::Task SocketRpcClient::receive_loop(ConnectionPtr conn) {
  // Hoisted: this loop may outlive the client object; after the first
  // suspension it only touches the host and the shared connection.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      // Listing 2's client twin: 4-byte length buffer, then a fresh heap
      // buffer per response, with the native->heap copy.
      net::Bytes len_buf(4);
      co_await conn->sock->read_full(len_buf);
      if (conn->cancelled) co_return;
      co_await host.compute(2 * cm.syscall() + cm.heap_alloc(4));
      DataInputBuffer len_in(cm, len_buf);
      const std::uint32_t len = len_in.read_u32();

      net::Bytes data(len);
      co_await host.compute(cm.heap_alloc(len));
      co_await conn->sock->read_full(data);
      if (conn->cancelled) co_return;
      co_await host.compute(cm.native_copy(len));
      if (conn->cancelled) co_return;

      // A response frame whose first word carries kWireBatchFlag is a
      // server-coalesced batch; each sub-message is laid out exactly like
      // a standalone response payload, and a malformed batch is dropped
      // whole. Batches are always understood — the local config only gates
      // what *we* emit.
      if (is_wire_batch(data)) {
        DataInputBuffer peek(cm, data);
        std::vector<net::ByteSpan> subs;
        if (split_wire_batch(peek, data, subs) != BatchSplit::kOk) continue;
        co_await host.compute(peek.take_accrued());
        for (const net::ByteSpan sub : subs) {
          if (conn->cancelled) co_return;
          co_await deliver_one(host, *conn, sub);
        }
      } else {
        co_await deliver_one(host, *conn, net::ByteSpan(data));
      }
    }
  } catch (const net::SocketError& e) {
    // EOF / reset from the remote end. `cancelled` doubles as a liveness
    // guard for the client object: close_connections() (also run by the
    // destructor) sets it before this loop can resume, so touching the
    // client's stats here is safe when it is still false.
    if (!conn->cancelled) {
      conn->fail_all(e.what());
      note_reconnect(ReconnectCause::kPeerClosed);
    }
  }
}

sim::Co<void> SocketRpcClient::flush_batch(ConnectionPtr conn, std::vector<net::Bytes> items,
                                           trace::TraceContext ctx) {
  // Hoisted for the same reason as receive_loop: the send mutex wait
  // below may outlive the client.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  const sim::Time t0 = host.sched().now();

  const std::vector<net::ByteSpan> payloads(items.begin(), items.end());
  BufferedOutputStream out(cm);
  encode_wire_batch(out, payloads);
  out.flush();
  const sim::Dur encode_cost = out.take_accrued();
  net::Bytes wire = out.take_pending();

  co_await conn->send_mu.lock();
  sim::SimLockGuard guard(conn->send_mu);
  // Client gone or connection failed while we waited: the batched calls'
  // pending entries were already completed with errors by fail_all.
  if (conn->cancelled || conn->broken) co_return;
  co_await host.compute(encode_cost);
  if (conn->cancelled || conn->broken) co_return;
  try {
    co_await conn->sock->write(wire);
  } catch (const net::SocketError& e) {
    if (!conn->cancelled) conn->fail_all(e.what());
    co_return;
  }
  if (conn->cancelled) co_return;
  note_batch_sent(ctx, t0);
}

sim::Co<void> SocketRpcClient::call_attempt(net::Address addr, const MethodKey& key,
                                            const Writable& param, Writable* response,
                                            std::uint64_t call_id, bool retried) {
  // Consume the ambient trace parent before the first suspension point
  // (see trace.hpp's propagation discipline).
  trace::TraceCollector* tr = trace::active(host_.tracer());
  const trace::TraceContext t_parent =
      tr != nullptr ? tr->take_ambient() : trace::TraceContext{};
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(tr, "rpc:" + key.method, trace::Kind::kClient,
                       trace::Category::kWire, t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  ConnectionPtr conn = co_await core_.get(addr);
  // Shared Hadoop RPC framework cost (call table, synchronization).
  co_await host_.compute(cm.rpc_framework());

  // --- Serialization (Listing 1, lines 2-7) ---------------------------
  const sim::Time t_ser_start = host_.sched().now();
  DataOutputBuffer d(cm, kClientInitialBuffer);
  write_call_header(d, call_id, retried, key, ctx);
  param.write(d);
  co_await host_.compute(d.take_accrued());
  const sim::Time t_serialized = host_.sched().now();
  trace_phase(tr, ctx, "serialize", trace::Category::kSerialization, t_ser_start, t_serialized);

  Pending pc(host_.sched());
  if (!batch_.batchable(d.length())) {
    // --- Sending (Listing 1, lines 9-13) ------------------------------
    BufferedOutputStream out(cm);
    out.write_u32(static_cast<std::uint32_t>(d.length()));
    out.write_payload(d.data());
    out.flush();
    co_await host_.compute(out.take_accrued());

    conn->file(call_id, pc);
    {
      co_await conn->send_mu.lock();
      sim::SimLockGuard guard(conn->send_mu);
      if (conn->broken) throw RpcTransportError("connection broken");
      const net::Bytes wire = out.take_pending();
      co_await conn->sock->write(wire);
    }
  } else {
    // Coalescing path: buffer the payload (one heap copy) and let the
    // batcher decide when the connection's next multi-call frame goes out.
    conn->file(call_id, pc);
    net::Bytes payload(d.data().begin(), d.data().end());
    co_await host_.compute(cm.heap_copy(d.length()));
    const CallSink sink{this, conn};
    co_await conn->calls.append(sink, std::move(payload), ctx);
  }
  const sim::Time t_sent = host_.sched().now();
  trace_phase(tr, ctx, "send", trace::Category::kSend, t_serialized, t_sent);

  core_.kill_if_due(conn, addr, sockets_.fabric());
  MethodProfile& prof =
      record_sent(key, d.stats().mem_adjustments, d.length(), t_start, t_serialized, t_sent);

  const bool replied = co_await await_reply(pc.done);
  if (!replied) throw timeout_error();  // pc unregisters: a late reply is dropped
  if (pc.transport_error) throw RpcTransportError(pc.error_msg);
  if (pc.status != static_cast<std::uint8_t>(RpcStatus::kSuccess)) {
    throw_status(pc.status, pc.error_msg);
  }
  if (response != nullptr) {
    const sim::Time t_deser = host_.sched().now();
    DataInputBuffer in(cm, pc.value);
    try {
      response->read_fields(in);
    } catch (const SerializationError&) {
      throw RpcTransportError("short reply body");
    }
    co_await host_.compute(in.take_accrued());
    trace_phase(tr, ctx, "deserialize", trace::Category::kSerialization, t_deser,
                host_.sched().now());
  }
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
}

}  // namespace rpcoib::rpc
