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
#include <memory>
#include <vector>

#include "rpc/batch.hpp"
#include "rpc/client_core.hpp"
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
  void close_connections() { core_.close_all(); }

 protected:
  sim::Co<void> call_attempt(net::Address addr, const MethodKey& key, const Writable& param,
                             Writable* response, std::uint64_t call_id,
                             bool retried) override;

 private:
  struct Pending : PendingCall<Pending> {
    explicit Pending(sim::Scheduler& s) : PendingCall(s) {}
    net::Bytes value;
    std::uint8_t status = 0;  // the reply's RpcStatus byte
  };

  struct Connection;
  // Shared-owned for the same reason as RdmaRpcClient: the receive loop
  // and in-flight calls must outlive close_connections().
  using ConnectionPtr = std::shared_ptr<Connection>;

  using CallSink = ConnectionSink<SocketRpcClient, Connection>;
  friend CallSink;
  /// Socket frames carry any length, so only BatchConfig's limits apply.
  static std::size_t batch_limit(const Connection&) { return kUnboundedBatch; }

  struct Connection : ClientConnection<Pending> {
    Connection(sim::Scheduler& s, const BatchConfig& batch)
        : ClientConnection(s), send_mu(s), calls(batch) {}
    net::SocketPtr sock;
    sim::SimMutex send_mu;
    Coalescer<CallSink> calls;  // small-call coalescing (BatchConfig)
  };

  // The transport's half of the connection core (client_core.hpp).
  friend class ClientCore<SocketRpcClient, Connection>;
  /// Connect, write the preamble and spawn the receive loop.
  sim::Co<void> dial(const ConnectionPtr& conn, net::Address addr);
  /// Cancel and close: the receive loop stands down at its next resumption.
  static void break_link(Connection& conn);
  static const char* link_lost(const Connection&) { return nullptr; }

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

  cluster::Host& host_;
  net::SocketTable& sockets_;
  net::Transport transport_;
  ClientCore<SocketRpcClient, Connection> core_{*this};
};

}  // namespace rpcoib::rpc
