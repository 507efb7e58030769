// RDMA READ completions routed from a CQ reader to the coroutine that
// posted the READ, keyed by an odd wr_id token (buffer-pointer wr_ids are
// even addresses, so the spaces can't collide). Shared by the server's
// rendezvous call fetch and the client's response and one-sided fetches.
#pragma once

#include <cstdint>
#include <map>

#include "net/bytes.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

class ReadWaiters {
 public:
  /// Post an RDMA READ of `from` into `into` on `qp` and wait for its
  /// completion. Returns the completion status: 0 = success; non-zero
  /// (the remote region is gone) leaves `into` untouched. A failed post
  /// throws.
  sim::Co<std::uint32_t> read(sim::Scheduler& sched, verbs::QueuePair& qp, net::MutByteSpan into,
                              verbs::RemoteBuffer from) {
    Waiter w(*this, sched);
    co_await qp.post_rdma_read(w.token, into, from);
    co_await w.done.wait();
    co_return w.status;
  }

  /// Route a kRdmaRead completion to its READ; one nobody waits on is
  /// dropped.
  void complete(const verbs::WorkCompletion& wc) {
    auto it = waiting_.find(wc.wr_id);
    if (it == waiting_.end()) return;
    it->second->status = wc.status;
    it->second->done.set();
  }

 private:
  /// One READ in flight, registered under a fresh token for its lifetime.
  struct Waiter {
    Waiter(ReadWaiters& owner, sim::Scheduler& sched)
        : owner(owner), token((owner.next_token_++ << 1) | 1), done(sched) {
      owner.waiting_[token] = this;
    }
    ~Waiter() { owner.waiting_.erase(token); }
    Waiter(const Waiter&) = delete;  // registered by address
    Waiter& operator=(const Waiter&) = delete;
    ReadWaiters& owner;
    std::uint64_t token;
    sim::SimEvent done;
    std::uint32_t status = 0;
  };

  std::map<std::uint64_t, Waiter*> waiting_;
  std::uint64_t next_token_ = 1;
};

}  // namespace rpcoib::oib
