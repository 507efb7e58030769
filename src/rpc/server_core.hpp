// Transport-independent server core: the shard set under both RPC servers.
//
// Both servers keep the default server's Listener/Reader/Handler/Responder
// structure (Section III-D) and differ only in the channel beneath it. The
// core owns the shard decisions they share: the shard-count clamp, a fresh
// shard set per start(), the one home rule, the handler split, the
// drain-and-close of every call pipeline at stop() and the stats fold. The
// transport keeps its loops and whatever else a shard holds (CQ, SRQ
// stripe, Responder queue).
//
// Lifetime: every loop holds a shared_ptr to the shard it serves, so a
// back-to-back stop(); start() replaces the set while the old run's loops
// unwind off the shards they still own.
//
// `Shard` is built from (sched, index, overload, session) and exposes a
// `pipeline` (a CallPipeline).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "rpc/overload.hpp"
#include "rpc/session.hpp"
#include "rpc/stats.hpp"
#include "sim/scheduler.hpp"

namespace rpcoib::rpc {

/// Handlers on shard `i` when `total` are split across `shards`: an even
/// split, the remainder to the low shards, at least one each. With one
/// shard that is every handler, in the unsharded server's spawn order.
inline int handlers_on_shard(int total, int shards, int i) {
  return std::max(1, total / shards + (i < total % shards ? 1 : 0));
}

template <typename Shard>
class ServerCore {
 public:
  ServerCore(sim::Scheduler& sched, int shards) : sched_(sched), count_(std::max(1, shards)) {}

  /// The current run's shards (the last run's after stop(), empty before
  /// the first start()).
  const std::vector<std::shared_ptr<Shard>>& shards() const { return shards_; }

  /// A fresh shard set for a new run.
  void build(const OverloadConfig& overload, const SessionConfig& session) {
    shards_.clear();
    for (int i = 0; i < count_; ++i) {
      shards_.push_back(
          std::make_shared<Shard>(sched_, static_cast<std::uint32_t>(i), overload, session));
    }
  }

  /// The home rule: a session lands on the shard of its durable id, so a
  /// reconnect finds its lease and retry-cache state; sessionless traffic
  /// spreads by its dense `key` (connection id - 1, or a UD source host).
  const std::shared_ptr<Shard>& home(std::uint64_t sid, std::uint64_t key) const {
    return shards_[(sid != 0 ? sid : key) % shards_.size()];
  }

  /// Spawn `total` handler loops, `loop(shard)` each, split by
  /// handlers_on_shard.
  template <typename Loop>
  void spawn_handlers(int total, Loop loop) const {
    for (int i = 0; i < count_; ++i) {
      for (int h = handlers_on_shard(total, count_, i); h > 0; --h) {
        sched_.spawn(loop(shards_[static_cast<std::size_t>(i)]));
      }
    }
  }

  /// stop(): drain every queued-but-unexecuted call with drop accounting,
  /// hand each to `release` (the transport's owned resources), and close
  /// the queue so the handler loops unwind.
  template <typename Release>
  void drain(Release release) const {
    for (const auto& sh : shards_) {
      for (auto& call : sh->pipeline.drain()) release(call);
      sh->pipeline.close();
    }
  }

  /// Fold the per-shard stat blocks into `stats` (RpcStats::fold_shards);
  /// before the first start() that leaves every server row at zero.
  void fold(RpcStats& stats) const { stats.fold_shards(shards_); }

 private:
  sim::Scheduler& sched_;
  int count_;
  std::vector<std::shared_ptr<Shard>> shards_;
};

}  // namespace rpcoib::rpc
