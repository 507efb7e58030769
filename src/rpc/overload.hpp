// Server-side overload protection (both transports).
//
// Production Hadoop treats overload as a first-class failure mode
// (ipc.server.max.callqueue lineage): a server drowning in calls must shed
// load early and cheaply, not queue without bound. Two pieces live here:
//
//   OverloadConfig — one bound on each server call queue. An arrival at a
//   full queue is shed with a "busy" status the client maps to
//   ServerBusyException, which is always retryable (the handler never
//   ran).
//
//   RetryCache — a bounded LRU keyed by <connection id, call id>. Clients
//   keep one call id across attempts of the same logical call, so the
//   server can tell a retry from a new call: if the first attempt already
//   executed, the cached response frame is re-sent instead of running the
//   handler again. This is what makes retrying *non-idempotent* methods
//   after a timeout safe (see RpcRetryPolicy::retry_non_idempotent_on_timeout).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <utility>

#include "net/bytes.hpp"

namespace rpcoib::rpc {

struct OverloadConfig {
  /// Upper bound on queued (accepted, not yet executing) calls; an arrival
  /// at a full queue is shed busy. 0 = unbounded (the seed behavior).
  std::size_t max_call_queue = 0;
  /// Retry-cache capacity in entries; 0 disables the cache.
  std::size_t retry_cache_entries = 0;

  bool cache_enabled() const { return retry_cache_entries > 0; }
};

/// Bounded LRU of executed calls, keyed by <owner id, call id>.
///
/// The owner id is the session id when the connection advertised one
/// (durable across reconnects — see rpc/session.hpp) and the dense
/// per-server connection sequence number otherwise. Both are
/// deterministic per seed, so cache behavior — including evictions — is
/// too.
class RetryCache {
 public:
  enum class State {
    kFresh,       // never seen: execute, then complete()
    kInProgress,  // first attempt still executing: drop the duplicate
    kCompleted,   // already executed: re-send completed_frame()
  };

  explicit RetryCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look the call up, registering it as in-progress when unseen.
  State begin(std::uint64_t conn_id, std::uint64_t call_id) {
    const Key k{conn_id, call_id};
    auto it = entries_.find(k);
    if (it != entries_.end()) {
      touch(it);
      return it->second.done ? State::kCompleted : State::kInProgress;
    }
    insert(k, Entry{});
    return State::kFresh;
  }

  /// Non-mutating lookup: like begin() but never registers the call.
  /// Lets a server decide a retried attempt's fate (e.g. the session
  /// call-id fence) without planting an in-progress entry that would
  /// swallow the client's next attempt as a duplicate.
  State peek(std::uint64_t conn_id, std::uint64_t call_id) const {
    auto it = entries_.find(Key{conn_id, call_id});
    if (it == entries_.end()) return State::kFresh;
    return it->second.done ? State::kCompleted : State::kInProgress;
  }

  /// Response frame of a completed entry; valid until the next mutation.
  const net::Bytes* completed_frame(std::uint64_t conn_id, std::uint64_t call_id) const {
    auto it = entries_.find(Key{conn_id, call_id});
    if (it == entries_.end() || !it->second.done) return nullptr;
    return &it->second.frame;
  }

  /// Record the response of an executed call — also when the response was
  /// dropped for a passed deadline: the executed outcome must answer the
  /// retry that is already on its way.
  void complete(std::uint64_t conn_id, std::uint64_t call_id, net::Bytes frame) {
    const Key k{conn_id, call_id};
    auto it = entries_.find(k);
    if (it == entries_.end()) {
      // The in-progress entry was evicted while the handler ran.
      insert(k, Entry{true, std::move(frame), {}});
      return;
    }
    it->second.done = true;
    it->second.frame = std::move(frame);
    touch(it);
  }

  /// Drop an in-progress entry without recording an outcome — used when
  /// the attempt was shed with a retryable status (e.g. a capped-out
  /// buffer pool): the client's retry must execute fresh, not be swallowed
  /// as a duplicate of an attempt that produced nothing.
  void forget(std::uint64_t conn_id, std::uint64_t call_id) {
    const Key k{conn_id, call_id};
    auto it = entries_.find(k);
    if (it == entries_.end() || it->second.done) return;
    lru_.erase(it->second.lru);
    entries_.erase(it);
  }

  /// Drop every entry owned by `owner_id` — the dedup key space of one
  /// expired/evicted session (or one torn-down sessionless connection).
  /// Keys sort by owner first, so this is one contiguous map range.
  void forget_owner(std::uint64_t owner_id) {
    auto lo = entries_.lower_bound(Key{owner_id, 0});
    auto hi = owner_id == ~std::uint64_t{0} ? entries_.end()
                                            : entries_.lower_bound(Key{owner_id + 1, 0});
    if (lo == hi) return;
    for (auto it = lo; it != hi; ++it) lru_.erase(it->second.lru);
    entries_.erase(lo, hi);
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Key {
    std::uint64_t conn_id = 0;
    std::uint64_t call_id = 0;
    friend bool operator<(const Key& a, const Key& b) {
      return a.conn_id != b.conn_id ? a.conn_id < b.conn_id : a.call_id < b.call_id;
    }
  };
  struct Entry {
    bool done = false;
    net::Bytes frame;               // full response frame, re-sent verbatim
    std::list<Key>::iterator lru{};  // position in lru_ (front = hottest)
  };
  using Map = std::map<Key, Entry>;

  void touch(Map::iterator it) { lru_.splice(lru_.begin(), lru_, it->second.lru); }

  void insert(const Key& k, Entry e) {
    lru_.push_front(k);
    e.lru = lru_.begin();
    entries_.emplace(k, std::move(e));
    while (capacity_ > 0 && entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  std::size_t capacity_;
  std::list<Key> lru_;
  Map entries_;
};

}  // namespace rpcoib::rpc
