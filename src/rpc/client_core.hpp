// The client connection core both RPC clients run on.
//
// Hadoop's ipc.Client keeps its Connection and call table and swaps only
// the channel beneath them (paper Section III-D). Here that split is:
//  * PendingCall: one record per outstanding call;
//  * ClientConnection: the reconnect state machine's three flags
//    (DESIGN §13) and the pending-call table, with its register step and
//    fail_all;
//  * ClientCore: the connection table, its adopt-or-dial loop, the kill
//    and the shutdown.
// A transport supplies only what differs: how it dials, how it breaks its
// link, and (RPCoIB) a stale-link check on adopt and a per-call cleanup
// on failure.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/socket.hpp"
#include "rpc/batch.hpp"
#include "rpc/protocol.hpp"
#include "rpc/session.hpp"
#include "rpc/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "trace/context.hpp"

namespace rpcoib::rpc {

template <typename Pending>
struct ClientConnection;

/// One call waiting for its reply. `Self` is the transport's record, which
/// adds where the reply's bytes land.
template <typename Self>
struct PendingCall {
  explicit PendingCall(sim::Scheduler& s) : done(s) {}
  PendingCall(const PendingCall&) = delete;
  PendingCall& operator=(const PendingCall&) = delete;
  /// Unregisters the call from the connection it was filed on. The
  /// record must not outlive that connection: declare it after the
  /// connection's owning pointer.
  ~PendingCall() {
    if (table_ != nullptr) table_->erase(id_);
  }

  /// The cleanup fail_all runs before waking the call. A transport's
  /// record hides it to return what the call still holds.
  void release_leases() {}

  sim::SimEvent done;
  /// Set by fail_all alone: the connection died under the call. A reply
  /// that was delivered never sets it, whatever its status.
  bool transport_error = false;
  std::string error_msg;

 private:
  friend struct ClientConnection<Self>;
  std::map<std::uint64_t, Self*>* table_ = nullptr;
  std::uint64_t id_ = 0;
};

/// The per-connection half of the reconnect state machine:
///  * connecting: `ready` unset while the dial runs;
///  * healthy: `ready` set, `broken` clear;
///  * torn down: `broken` set and every pending call failed over to the
///    retry loop; `cancelled` too when the client itself closed it.
template <typename Pending>
struct ClientConnection {
  explicit ClientConnection(sim::Scheduler& s) : ready(s) {}

  /// The register step every call takes before its request can leave.
  /// Refused on a broken connection: its fail_all already ran and would
  /// never wake the call. The record unregisters itself when it dies, so
  /// no exit (reply, timeout or throw) leaves it dangling here.
  void file(std::uint64_t id, Pending& pc) {
    if (broken) throw RpcTransportError("connection broken");
    pending[id] = &pc;
    pc.table_ = &pending;
    pc.id_ = id;
  }

  /// The reply step: unregister the call a reply answers. nullptr when the
  /// call is gone: it timed out, or fail_all already failed it over.
  Pending* take(std::uint64_t id) {
    auto it = pending.find(id);
    if (it == pending.end()) return nullptr;
    Pending* pc = it->second;
    pending.erase(it);
    return pc;
  }

  /// Mark the connection broken and fail every pending call over to the
  /// retry loop. Runs off the connection alone, so a receive loop that
  /// outlived its client may call it.
  void fail_all(const std::string& why) {
    broken = true;
    for (auto& [id, pc] : pending) {
      pc->release_leases();
      pc->transport_error = true;
      pc->error_msg = why;
      pc->done.set();
    }
    pending.clear();
  }

  sim::SimEvent ready;  // set once the dial finished, either way
  bool broken = false;
  // Set before the client tears the connection down: its receive loop and
  // flush timers check it after every resumption instead of touching the
  // (possibly destroyed) client.
  bool cancelled = false;
  std::map<std::uint64_t, Pending*> pending;
};

/// Coalescer sink (batch.hpp) for one connection's small calls: a flush
/// goes out through `Client::flush_batch`, everything stands down once the
/// connection is cancelled or broken, and `Client::batch_limit` bounds the
/// frame's bytes.
template <typename Client, typename Conn>
struct ConnectionSink {
  Client* self;
  std::shared_ptr<Conn> conn;
  sim::Scheduler& sched() const { return self->host().sched(); }
  std::size_t limit() const { return self->batch_limit(*conn); }
  sim::Dur linger_cap() const { return kUncappedLinger; }
  bool stopped() const { return conn->cancelled || conn->broken; }
  RpcStats* flush_stats() const { return &self->stats(); }
  sim::Co<void> flush(std::vector<net::Bytes> items, trace::TraceContext ctx) const {
    return self->flush_batch(conn, std::move(items), ctx);
  }
};

/// One connection per server address, adopted by every call to it until
/// it breaks. `Client` supplies the transport's half as members this core
/// is a friend of:
///  * `sim::Co<void> dial(const std::shared_ptr<Conn>&, net::Address)`:
///    connect, handshake and spawn the receive loop. Throws
///    RpcTransportError, or an error the transport passes to its caller
///    unchanged.
///  * `void break_link(Conn&)`: cut the link under a kill or a shutdown.
///  * `const char* link_lost(const Conn&)`: why a healthy-looking
///    connection must not be adopted, or nullptr.
template <typename Client, typename Conn>
class ClientCore {
 public:
  using ConnPtr = std::shared_ptr<Conn>;

  explicit ClientCore(Client& client) : client_(client) {}

  /// Adopt the connection to `addr`, waiting out a dial in progress, or
  /// dial one. A failed dial fails its waiters too; each then adopts the
  /// replacement the first of them dials.
  sim::Co<ConnPtr> get(net::Address addr) {
    for (;;) {
      auto it = table_.find(addr);
      if (it == table_.end()) break;
      ConnPtr conn = it->second;
      if (conn->broken) {
        // Broken under a call (a failed post or fetch): shut what is left
        // of it, its receive ring and loop included, and dial afresh.
        if (!conn->cancelled) shut(*conn, "connection broken");
        table_.erase(it);
        break;
      }
      co_await conn->ready.wait();  // another caller may still be dialling
      if (!conn->broken) {
        if (const char* why = client_.link_lost(*conn)) {
          shut(*conn, why);
          client_.note_reconnect(ReconnectCause::kIdleEvicted);
        }
      }
      if (!conn->broken) co_return conn;
      // Woke on a broken connection: drop it unless a replacement already
      // took its place, then loop to adopt (or dial) the current one.
      erase_if_current(addr, conn);
    }
    auto conn = std::make_shared<Conn>(client_.host().sched(), client_.batch());
    table_[addr] = conn;
    try {
      co_await client_.dial(conn, addr);
    } catch (const std::exception& e) {
      conn->ready.set();
      conn->fail_all(e.what());
      erase_if_current(addr, conn);
      throw;
    }
    conn->ready.set();
    ++client_.stats().connections_opened;
    co_return conn;
  }

  /// Tear `conn` down under a live call and drop it from the table: the
  /// link breaks, every pending call fails over to the retry loop, and the
  /// next call dials afresh.
  void kill(const ConnPtr& conn, net::Address addr, ReconnectCause cause,
            const std::string& why) {
    client_.break_link(*conn);
    conn->fail_all(why);
    client_.note_reconnect(cause);
    erase_if_current(addr, conn);
  }

  /// The FaultPlan connection-kill hook, run right after a request went on
  /// the wire to `addr`, so the server may still execute it: the case the
  /// session-keyed retry cache makes exactly-once. True when a kill was
  /// due and fired.
  bool kill_if_due(const ConnPtr& conn, net::Address addr, net::Fabric& fabric) {
    net::FaultPlan* plan = fabric.fault_plan();
    if (conn->broken || plan == nullptr || !plan->kills_enabled()) return false;
    cluster::Host& h = client_.host();
    if (!plan->take_kill(h.id(), addr.host, h.sched().now())) return false;
    kill(conn, addr, ReconnectCause::kFaultInjected, "connection killed (injected fault)");
    return true;
  }

  /// Shut every connection down and empty the table (client shutdown).
  void close_all() {
    for (auto& [addr, conn] : table_) shut(*conn, "client shutdown");
    table_.clear();
  }

  /// Shut one connection (or connection-like record the client can break)
  /// down. Cancel first: a receive loop suspended mid-read may resume
  /// after the client is gone and must stand down instead of touching it.
  template <typename C>
  void shut(C& conn, const char* why) {
    conn.cancelled = true;
    client_.break_link(conn);
    conn.fail_all(why);
  }

 private:
  /// Drop `conn` unless `addr` already maps to a replacement another
  /// caller installed while this one was suspended: erasing that would
  /// orphan its receiver and strand its pending calls.
  void erase_if_current(net::Address addr, const ConnPtr& conn) {
    auto it = table_.find(addr);
    if (it != table_.end() && it->second == conn) table_.erase(it);
  }

  Client& client_;
  std::map<net::Address, ConnPtr> table_;
};

}  // namespace rpcoib::rpc
