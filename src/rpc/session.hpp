// Durable client sessions: the state that makes RPC exactly-once across
// connection loss.
//
// The PR-3 RetryCache dedups retried attempts by <conn, call> — but conn
// ids are dense per-server sequence numbers, so any reconnect (QP error,
// SRQ idle eviction, server restart, injected kill) used to lose the dedup
// key and a retried non-idempotent call could re-execute. With sessions
// enabled, each client mints one stable 64-bit session id for its
// lifetime and carries it in the transport handshake (socket preamble /
// verbs bootstrap blob); the server keys retry-cache state by
// <session, call> instead, so dedup survives reconnects. Ibdxnet and
// MPICH2-over-InfiniBand treat connection recovery as a first-class
// transport state for the same reason.
//
// Sessions are leased: a server-side SessionTable (one per reader shard,
// aggregated like the shard.* counters) expires sessions idle past the
// lease and LRU-evicts past the table cap, dropping their retry-cache
// entries. A *retried* attempt (kWireRetryFlag) arriving for an expired
// session — or missing the cache on a session re-opened after its dedup
// state was purged (the call-id fence) — is answered with a terminal
// session-expired error, never silently re-executed; a fresh call simply
// re-opens the session.
//
// Everything is default-off: with `enabled == false` no session id is
// minted (zero RNG draws), no handshake bytes change, and no report rows
// appear, so seeded runs are byte-identical to a sessionless build.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "net/bytes.hpp"
#include "sim/time.hpp"

namespace rpcoib::rpc {

/// Client/server session knobs. Set on both ends (EngineConfig::session
/// plumbs one struct to clients and servers) before the first call.
struct SessionConfig {
  bool enabled = false;
  /// Idle lease: a session with no call activity for this long expires
  /// and its retry-cache entries are dropped. 0 = never expires.
  sim::Dur lease = sim::seconds(60);
  /// Per-shard session cap; the least-recently-active session is evicted
  /// when exceeded. 0 = unbounded.
  std::size_t table_cap = 1024;
};

/// The socket connection preamble, written once per connection like
/// Hadoop's: "hrpc" and a version byte. Version 5 announces a durable
/// session and appends its id; a sessionless client sends version 4. The
/// server reads the first kHeadBytes, closes the connection unless they
/// start with the magic, then reads the id only for version 5.
struct Preamble {
  static constexpr std::size_t kHeadBytes = 5, kMaxBytes = 13;
  static constexpr std::uint8_t kVersion = 4, kSessionVersion = 5;
  static constexpr net::Byte kMagic[] = {'h', 'r', 'p', 'c'};
  std::uint8_t version = kVersion;
  std::uint64_t session_id = 0;  // kSessionVersion only
  net::ByteSpan magic = kMagic;  // the bytes read, or the bytes to write

  bool magic_ok() const { return std::ranges::equal(magic, kMagic); }

  template <typename IO>
  void fields(IO& io) {
    io.raw(magic, sizeof(kMagic)).u8(version);
    if (version == kSessionVersion) io.u64(session_id);
  }
};

/// Why a client tore a connection down and re-bootstrapped. Drives the
/// reconnect.* counters and the kSession trace spans.
enum class ReconnectCause : std::uint8_t {
  kPeerClosed,     // EOF / socket closed by the remote end
  kQpError,        // verbs post failed mid-call (QP to error state)
  kIdleEvicted,    // stale QP discovered on reuse (SRQ idle eviction)
  kFaultInjected,  // FaultPlan connection-kill fired
};

inline const char* reconnect_cause_name(ReconnectCause c) {
  switch (c) {
    case ReconnectCause::kPeerClosed: return "peer_closed";
    case ReconnectCause::kQpError: return "qp_error";
    case ReconnectCause::kIdleEvicted: return "idle_evicted";
    case ReconnectCause::kFaultInjected: return "fault_injected";
  }
  return "?";
}

/// Per-shard table of live sessions, LRU-ordered by last call activity.
/// Expiry is lazy — checked on every touch/alive probe — so the table
/// needs no GC task and stays deterministic.
class SessionTable {
 public:
  explicit SessionTable(const SessionConfig& cfg) : cfg_(cfg) {}

  struct TouchResult {
    bool opened = false;                  // sid was new (or re-opened)
    std::vector<std::uint64_t> expired;   // idle past lease, dropped now
    std::vector<std::uint64_t> evicted;   // LRU-evicted past table_cap
  };

  /// Renew (or open) `sid` at `now`, expiring idle sessions first. The
  /// caller forgets retry-cache state for every returned expired/evicted
  /// id. `open_if_missing == false` only renews a live session — the
  /// arrival path for retried attempts, which must not resurrect an
  /// expired session under a retried call id. `opener_call_id` is the
  /// fresh call doing the opening; it becomes the session's fence().
  TouchResult touch(std::uint64_t sid, sim::Time now, bool open_if_missing = true,
                    std::uint64_t opener_call_id = 0) {
    TouchResult r;
    r.expired = expire_idle(now);
    auto it = entries_.find(sid);
    if (it != entries_.end()) {
      it->second.last_active = now;
      lru_.splice(lru_.end(), lru_, it->second.lru_it);
      return r;
    }
    if (!open_if_missing) return r;
    lru_.push_back(sid);
    entries_[sid] = Entry{now, std::prev(lru_.end()), opener_call_id};
    r.opened = true;
    while (cfg_.table_cap > 0 && entries_.size() > cfg_.table_cap) {
      const std::uint64_t victim = lru_.front();
      lru_.pop_front();
      entries_.erase(victim);
      r.evicted.push_back(victim);
    }
    if (entries_.size() > peak_) peak_ = entries_.size();
    return r;
  }

  /// Known and not idle past the lease?
  bool alive(std::uint64_t sid, sim::Time now) const {
    auto it = entries_.find(sid);
    if (it == entries_.end()) return false;
    return cfg_.lease == 0 || now < it->second.last_active + cfg_.lease;
  }

  /// Call-id fence of a live session: the id of the fresh call that
  /// (re-)opened this incarnation. Client call ids are monotonic, so a
  /// *retried* call id below the fence predates the open — its dedup
  /// state (if it ever had any) died with the previous incarnation, and
  /// a cache miss on it proves nothing. 0 for unknown sessions.
  std::uint64_t fence(std::uint64_t sid) const {
    auto it = entries_.find(sid);
    return it == entries_.end() ? 0 : it->second.fence;
  }

  /// Drop every session idle past the lease; returns the dropped ids.
  std::vector<std::uint64_t> expire_idle(sim::Time now) {
    std::vector<std::uint64_t> out;
    if (cfg_.lease == 0) return out;
    while (!lru_.empty()) {
      const std::uint64_t sid = lru_.front();
      const Entry& e = entries_.at(sid);
      if (now < e.last_active + cfg_.lease) break;
      lru_.pop_front();
      entries_.erase(sid);
      out.push_back(sid);
    }
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t peak() const { return peak_; }

 private:
  struct Entry {
    sim::Time last_active = 0;
    std::list<std::uint64_t>::iterator lru_it;
    std::uint64_t fence = 0;  // call id that opened this incarnation
  };

  SessionConfig cfg_;
  std::map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = least recently active
  std::size_t peak_ = 0;
};

}  // namespace rpcoib::rpc
