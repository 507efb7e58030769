// Simulated stream sockets over the fabric.
//
// The Java-sockets substrate the default Hadoop RPC runs on: connect /
// accept, full-duplex byte streams, kernel-stack CPU and user<->kernel
// copies charged per message, ChannelClosed surfacing as EOF. The RPC layer
// above does its own (instrumented) buffering — exactly the layering the
// paper analyzes.
//
// A listening port is a shared-owned Listener: the SocketTable holds it
// while it is bound and each acceptor loop holds its own copy, so
// unlisten() only shuts it down and the same address can be bound again
// at once while the old acceptor still unwinds.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/host.hpp"
#include "net/bytes.hpp"
#include "net/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

namespace rpcoib::net {

class Socket;
using SocketPtr = std::shared_ptr<Socket>;

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// Endpoint address: host index + TCP-like port.
struct Address {
  cluster::HostId host = -1;
  std::uint16_t port = 0;

  friend bool operator<(const Address& a, const Address& b) {
    return a.host != b.host ? a.host < b.host : a.port < b.port;
  }
  friend bool operator==(const Address& a, const Address& b) = default;
};

namespace detail {

/// Shared state between the two ends of an established connection.
struct Pipe {
  explicit Pipe(sim::Scheduler& s) : to_server(s), to_client(s) {}
  sim::Channel<Bytes> to_server;
  sim::Channel<Bytes> to_client;
  // Per-direction flow clocks: the fabric clamps arrivals so a stream is
  // never internally reordered by small-message preemption.
  sim::Time clock_to_server = 0;
  sim::Time clock_to_client = 0;
};

}  // namespace detail

/// One end of an established connection.
class Socket : public std::enable_shared_from_this<Socket> {
 public:
  Socket(cluster::Host& local, cluster::HostId remote, Transport t, Fabric& fab,
         std::shared_ptr<detail::Pipe> pipe, bool is_client);
  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Send `data`. Charges sender stack CPU and user->kernel copy, reserves
  /// NIC egress, and delivers the chunk to the peer.
  sim::Co<void> write(ByteSpan data);

  /// Send `data`, taking its bytes: a message of at most one segment moves
  /// onto the wire instead of being copied there. Charges, timing and
  /// delivered bytes are those of write(ByteSpan). `data` must stay alive
  /// until the write returns; pass a named local (see sim/task.hpp).
  sim::Co<void> write(Bytes&& data);

  /// Read exactly `out.size()` bytes (assembling across chunks). Throws
  /// SocketError on EOF before completion.
  sim::Co<void> read_full(MutByteSpan out);

  /// Half-close: peer reads EOF after draining. Idempotent.
  void close();

  /// When enabled, receive-side CPU charges (stack + kernel copy) are
  /// accumulated instead of charged inline, so a serialized Reader thread
  /// can pay them inside its critical section (see SocketRpcServer).
  void set_deferred_rx_charge(bool on) { defer_rx_ = on; }
  sim::Dur take_rx_charge() {
    sim::Dur d = rx_charge_;
    rx_charge_ = 0;
    return d;
  }

  cluster::Host& local() const { return local_; }
  cluster::HostId remote() const { return remote_; }
  Transport transport() const { return transport_; }

 private:
  sim::Channel<Bytes>& rx() const {
    return is_client_ ? pipe_->to_client : pipe_->to_server;
  }
  sim::Channel<Bytes>& tx() const {
    return is_client_ ? pipe_->to_server : pipe_->to_client;
  }
  /// Wait for the next chunk and make it pending_; called once pending_
  /// is used up.
  sim::Co<void> fill();
  /// Sender-side kernel stack + user->kernel copy for an n-byte write.
  sim::Dur send_cost(std::size_t n) const;
  /// Hand one segment to the fabric, due at the peer in flow order.
  void send_segment(Bytes chunk);

  /// Large writes are segmented so the receiver drains the stream at wire
  /// speed (TCP delivers a 2 MB message as many segments, and the paper's
  /// Fig. 1 "receive time" includes that drain).
  static constexpr std::size_t kSegmentBytes = 16 * 1024;

  cluster::Host& local_;
  cluster::HostId remote_;
  Transport transport_;
  Fabric& fab_;
  std::shared_ptr<detail::Pipe> pipe_;
  bool is_client_;
  bool closed_ = false;

  Bytes pending_;           // partially consumed chunk
  std::size_t pending_off_ = 0;
  bool defer_rx_ = false;
  sim::Dur rx_charge_ = 0;
};

/// Accept queue for a listening port. Shared-owned: the SocketTable holds
/// it while bound, and each acceptor coroutine holds it for as long as it
/// may still wait on it, so unlisten() never frees it under an acceptor.
class Listener {
 public:
  explicit Listener(sim::Scheduler& sched) : accepted_(sched) {}

  /// Wait for the next inbound connection, awaited directly. Throws
  /// sim::ChannelClosed once the listener is shut down.
  sim::Channel<SocketPtr>::RecvAwaiter accept() { return accepted_.recv(); }

  /// Close the accept queue. Connections not yet claimed by an acceptor
  /// are refused (their server ends close), as a closed listening socket
  /// drops its backlog.
  void shutdown() {
    accepted_.close();
    SocketPtr backlog;
    while (accepted_.try_recv(backlog)) backlog->close();
  }
  bool closed() const { return accepted_.closed(); }

 private:
  friend class SocketTable;
  sim::Channel<SocketPtr> accepted_;
};

/// Cluster-wide registry of listening ports; the `connect()` entry point.
class SocketTable {
 public:
  SocketTable(Fabric& fab, std::vector<cluster::Host*> hosts);

  /// Bind a listener. Throws if the address is taken. The caller's
  /// acceptor takes the returned pointer; unlisten() only shuts it down.
  std::shared_ptr<Listener> listen(Address addr);
  void unlisten(Address addr);

  /// Establish a connection (one round trip of handshake). Throws
  /// SocketError if nothing is listening.
  sim::Co<SocketPtr> connect(cluster::Host& src, Address dst, Transport t);

  cluster::Host& host(cluster::HostId id) { return *hosts_.at(static_cast<std::size_t>(id)); }
  Fabric& fabric() { return fab_; }

 private:
  Fabric& fab_;
  std::vector<cluster::Host*> hosts_;
  std::map<Address, std::shared_ptr<Listener>> listeners_;
};

}  // namespace rpcoib::net
