// Default Hadoop RPC client (socket path) — the baseline the paper
// profiles in Section II.
//
// Mirrors org.apache.hadoop.ipc.Client: per-server Connection with a
// receiver thread multiplexing concurrent calls by id; per-call
// serialization into a fresh 32-byte DataOutputBuffer grown by Algorithm 1;
// a fresh DataOutputStream/BufferedOutputStream pair per send (Listing 1);
// per-response heap buffer allocation + native->heap copy on receive
// (Listing 2's client-side twin).
//
// With coalescing enabled (BatchConfig) sub-threshold calls accumulate in
// a per-connection CallBatcher and go out as one multi-call frame
// ([u32 total][u64 kWireBatchFlag|count][u32 len_i x count][payload_i...])
// when a limit fills or the adaptive linger expires. Batched *responses*
// from the server are always understood, independent of the local knob.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "rpc/batch.hpp"
#include "rpc/rpc.hpp"
#include "sim/sync.hpp"

namespace rpcoib::rpc {

class SocketRpcClient final : public RpcClient {
 public:
  /// `transport` is the network the socket rides (1GigE / 10GigE / IPoIB).
  SocketRpcClient(cluster::Host& host, net::SocketTable& sockets, net::Transport transport);
  ~SocketRpcClient() override;

  cluster::Host& host() const override { return host_; }
  net::Transport transport() const { return transport_; }

  /// Drop all cached connections (peers observe EOF).
  void close_connections();

 protected:
  sim::Co<void> call_attempt(net::Address addr, const MethodKey& key, const Writable& param,
                             Writable* response, std::uint64_t call_id,
                             bool retried) override;

 private:
  struct PendingCall {
    explicit PendingCall(sim::Scheduler& s) : done(s) {}
    sim::SimEvent done;
    net::Bytes value;
    // The reply's RpcStatus byte; kError with the connection broken when
    // fail_all() failed the call over to the retry loop.
    std::uint8_t status = 0;
    std::string error_msg;
  };

  struct Connection;
  // Shared-owned for the same reason as RdmaRpcClient: the receive loop
  // and in-flight calls must outlive close_connections().
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// Coalescer sink for one connection's small calls: socket frames carry
  /// any length, so only BatchConfig's limits apply (kUnboundedBatch); the
  /// full adaptive linger; flush reasons counted in the client's stats.
  struct CallSink {
    SocketRpcClient* self;
    ConnectionPtr conn;
    sim::Scheduler& sched() const { return self->host_.sched(); }
    std::size_t limit() const { return kUnboundedBatch; }
    sim::Dur linger_cap() const { return kUncappedLinger; }
    bool stopped() const { return conn->cancelled || conn->broken; }
    RpcStats* flush_stats() const { return &self->stats_; }
    sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext ctx) const {
      return self->flush_batch(conn, std::move(items), ctx);
    }
  };

  struct Connection {
    Connection(sim::Scheduler& s, const BatchConfig& batch)
        : send_mu(s), ready(s), calls(batch) {}
    net::SocketPtr sock;
    sim::SimMutex send_mu;
    sim::SimEvent ready;  // set once the socket handshake completed
    bool broken = false;
    // Set by close_connections() before the sockets close: the receive
    // loop and flush timers check it after every resumption instead of
    // touching the (possibly destroyed) client.
    bool cancelled = false;
    std::map<std::uint64_t, PendingCall*> pending;
    Coalescer<CallSink> calls;  // small-call coalescing (BatchConfig)
    sim::JoinHandle receiver;
  };

  sim::Co<ConnectionPtr> get_connection(net::Address addr);
  sim::Task receive_loop(ConnectionPtr conn);
  /// Complete one response payload ([u64 id][u8 status][rest]) — the unit
  /// shared by the single-frame path and each sub-response of a batch.
  /// Static: runs off `host`/`conn` only, never the (possibly dead) client.
  static sim::Co<void> deliver_one(cluster::Host& host, Connection& conn,
                                   net::ByteSpan payload);
  /// Encode and send coalesced call payloads as one batch frame (the
  /// CallSink flush body).
  sim::Co<void> flush_batch(ConnectionPtr conn, std::vector<net::Bytes> items,
                            trace::TraceContext ctx);
  static void fail_all(Connection& conn, const std::string& why);
  /// Forced mid-call teardown: the FaultPlan connection-kill hook.
  void kill_connection(const ConnectionPtr& conn, net::Address addr);

  cluster::Host& host_;
  net::SocketTable& sockets_;
  net::Transport transport_;
  std::map<net::Address, std::shared_ptr<Connection>> connections_;
};

}  // namespace rpcoib::rpc
