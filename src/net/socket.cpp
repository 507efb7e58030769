#include "net/socket.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace rpcoib::net {

Socket::Socket(cluster::Host& local, cluster::HostId remote, Transport t, Fabric& fab,
               std::shared_ptr<detail::Pipe> pipe, bool is_client)
    : local_(local),
      remote_(remote),
      transport_(t),
      fab_(fab),
      pipe_(std::move(pipe)),
      is_client_(is_client) {}

Socket::~Socket() { close(); }

void Socket::close() {
  if (closed_) return;
  closed_ = true;
  // FIN is ordered behind previously written data: it shares the flow
  // clock, so the peer drains all in-flight chunks first.
  std::shared_ptr<detail::Pipe> pipe = pipe_;
  sim::Channel<Bytes>* dest = &tx();
  sim::Time& clock = is_client_ ? pipe_->clock_to_server : pipe_->clock_to_client;
  fab_.deliver_flow(local_.id(), remote_, transport_, 1, clock,
                    [pipe, dest] { dest->close(); });
}

sim::Co<void> Socket::write(ByteSpan data) {
  if (closed_) throw SocketError("write on closed socket");
  const NetParams& p = fab_.params(transport_);
  // Sender-side kernel stack + user->kernel copy occupy a CPU core.
  co_await local_.compute(p.per_msg_send_cpu + p.kernel_copy(data.size()));
  // Large writes are segmented so the receiver drains the stream at wire
  // speed (TCP delivers a 2 MB message as many segments, and the paper's
  // Fig. 1 "receive time" includes that drain).
  static constexpr std::size_t kSegmentBytes = 16 * 1024;
  std::shared_ptr<detail::Pipe> pipe = pipe_;
  sim::Channel<Bytes>* dest = &tx();
  for (std::size_t off = 0; off < data.size(); off += kSegmentBytes) {
    const std::size_t n = std::min(kSegmentBytes, data.size() - off);
    Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(off),
                data.begin() + static_cast<std::ptrdiff_t>(off + n));
    // The fabric owns wire timing; the peer's rx channel gets each chunk
    // at its arrival time (flow-ordered). Capture the pipe (not `this`)
    // so a destroyed sender cannot dangle. NOTE: the size must be read
    // before the move — argument evaluation order is unspecified and the
    // lambda capture would otherwise empty the vector first.
    const std::size_t wire_bytes = chunk.size();
    sim::Time& clock = is_client_ ? pipe_->clock_to_server : pipe_->clock_to_client;
    fab_.deliver_flow(local_.id(), remote_, transport_, wire_bytes, clock,
                      [pipe, dest, chunk = std::move(chunk)]() mutable {
                        dest->push(std::move(chunk));
                      });
  }
  co_return;
}

sim::Co<void> Socket::fill() {
  if (pending_off_ < pending_.size()) co_return;
  Bytes chunk = co_await rx().recv();  // throws ChannelClosed on EOF
  const NetParams& p = fab_.params(transport_);
  // Receiver-side stack CPU + kernel->user copy, charged when the
  // application actually reads (mirrors a blocking read returning) — or
  // deferred to a serialized Reader's critical section when requested.
  const sim::Dur rx_cost = p.per_msg_recv_cpu + p.kernel_copy(chunk.size());
  if (defer_rx_) {
    rx_charge_ += rx_cost;
  } else {
    co_await local_.compute(rx_cost);
  }
  pending_ = std::move(chunk);
  pending_off_ = 0;
}

sim::Co<void> Socket::read_full(MutByteSpan out) {
  std::size_t got = 0;
  try {
    while (got < out.size()) {
      co_await fill();
      const std::size_t take = std::min(out.size() - got, pending_.size() - pending_off_);
      std::memcpy(out.data() + got, pending_.data() + pending_off_, take);
      pending_off_ += take;
      got += take;
    }
  } catch (const sim::ChannelClosed&) {
    throw SocketError("connection closed by peer");
  }
}

SocketTable::SocketTable(Fabric& fab, std::vector<cluster::Host*> hosts)
    : fab_(fab), hosts_(std::move(hosts)) {}

std::shared_ptr<Listener> SocketTable::listen(Address addr) {
  auto [it, inserted] = listeners_.emplace(addr, std::make_shared<Listener>(fab_.sched()));
  if (!inserted) throw SocketError("address already in use");
  return it->second;
}

void SocketTable::unlisten(Address addr) {
  auto node = listeners_.extract(addr);
  if (!node.empty()) node.mapped()->shutdown();
}

sim::Co<SocketPtr> SocketTable::connect(cluster::Host& src, Address dst, Transport t) {
  static constexpr std::size_t kHandshakeBytes = 64;
  // SYN travels to the server...
  co_await fab_.transfer(src.id(), dst.host, t, kHandshakeBytes);
  auto it = listeners_.find(dst);
  if (it == listeners_.end()) throw SocketError("connection refused");

  auto pipe = std::make_shared<detail::Pipe>(fab_.sched());
  cluster::Host& server_host = *hosts_.at(static_cast<std::size_t>(dst.host));
  auto server_end =
      std::make_shared<Socket>(server_host, src.id(), t, fab_, pipe, /*is_client=*/false);
  auto client_end =
      std::make_shared<Socket>(src, dst.host, t, fab_, pipe, /*is_client=*/true);
  it->second->accepted_.push(std::move(server_end));

  // ...and the SYN-ACK back before connect() returns.
  co_await fab_.transfer(dst.host, src.id(), t, kHandshakeBytes);
  co_return client_end;
}

}  // namespace rpcoib::net
