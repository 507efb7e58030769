// RPC engine facade: the paper's `rpc.ib.enabled` switch.
//
// Upper layers (HDFS, MapReduce, HBase) construct clients and servers
// through this factory, choosing the transport by configuration only —
// keeping "the existing Hadoop RPC architecture and interface intact"
// exactly as Section III-D requires.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/socket.hpp"
#include "net/testbed.hpp"
#include "rpc/rpc.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"
#include "rpcoib/stream/stream.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

/// Which path Hadoop RPC takes.
enum class RpcMode {
  kSocket1GigE,
  kSocket10GigE,
  kSocketIPoIB,
  kRpcoIB,  // rpc.ib.enabled = true
};

const char* rpc_mode_name(RpcMode mode);

struct EngineConfig {
  RpcMode mode = RpcMode::kSocketIPoIB;
  int server_handlers = 8;
  /// Reader shards per server (server.shards). Each shard owns a disjoint
  /// set of connections with its own receive loop, call queue and handler
  /// subset on both transports. Default 1: the unsharded legacy server.
  int server_shards = 1;
  std::size_t eager_threshold = WireDefaults::kEagerThreshold;
  PoolConfig pool{};
  /// Timeout/retry/backoff applied to every client this engine creates.
  /// Default-disabled: zero timeout, zero retries — legacy behavior.
  rpc::RpcRetryPolicy retry{};
  /// Call-queue bound / retry cache applied to every server this engine
  /// creates. Default-disabled: unbounded queue, no cache — legacy behavior.
  rpc::OverloadConfig overload{};
  /// Small-message coalescing applied to every client (call batching) and
  /// server (response batching) this engine creates. Default-disabled:
  /// one frame per message, byte-identical to the seed wire format.
  rpc::BatchConfig batch{};
  /// Durable client sessions (session.* knobs): exactly-once RPC across
  /// connection loss. Applied to every client (session id in the
  /// handshake, retry flagging, reconnect accounting) and server
  /// (session-keyed retry cache, leases). Default-disabled: no handshake
  /// bytes change, no new report rows — byte-identical to a sessionless
  /// build.
  rpc::SessionConfig session{};
  /// Pipelined bulk streaming for the HDFS block pipeline and the shuffle
  /// fetch path (stream.* knobs). Default-disabled: both data paths stay
  /// byte-identical to the seed.
  stream::StreamConfig stream{};
  /// RPCoIB only: route sub-MTU eager calls over UD datagrams into a
  /// fixed server endpoint pool (ud.* knobs), keeping per-client server
  /// state flat; RC QPs bootstrap only for rendezvous-sized traffic. UD
  /// is lossy — enable `session` and a retry policy with it for
  /// exactly-once delivery. Default-disabled: byte-identical to RC-only.
  UdConfig ud{};
  /// RPCoIB only: one-sided read plane (onesided.* knobs). Servers export
  /// hot read-mostly responses into a registered seqlock region; clients
  /// resolve eligible lookups with RDMA READ and fall back to RPC on
  /// miss/conflict/stale generation. Default-disabled: no region, no
  /// advertisement, byte-identical wire and reports.
  OneSidedConfig onesided{};
};

/// Owns the verbs stack for a testbed and stamps out clients/servers.
class RpcEngine {
 public:
  explicit RpcEngine(net::Testbed& tb, EngineConfig cfg = {});

  std::unique_ptr<rpc::RpcClient> make_client(cluster::Host& host);
  std::unique_ptr<rpc::RpcServer> make_server(cluster::Host& host, net::Address addr);

  /// Merge the per-<protocol, method> profiles of every client this engine
  /// created (Table I / Fig. 3 aggregation). Clients must still be alive.
  std::map<rpc::MethodKey, rpc::MethodProfile> aggregated_profiles() const;

  /// Enable per-call size-sequence recording on all *future* clients
  /// (Fig. 3 traces).
  void record_size_sequences(bool on) { record_sequences_ = on; }

  const EngineConfig& config() const { return cfg_; }
  verbs::VerbsStack& verbs() { return verbs_; }
  net::Testbed& testbed() { return tb_; }

 private:
  std::unique_ptr<rpc::RpcClient> make_client_impl(cluster::Host& host);

  net::Testbed& tb_;
  EngineConfig cfg_;
  verbs::VerbsStack verbs_;
  bool record_sequences_ = false;
  // Live clients for stats aggregation; entries remove themselves on
  // destruction after flushing into retired_profiles_.
  mutable std::vector<rpc::RpcClient*> clients_;
  std::map<rpc::MethodKey, rpc::MethodProfile> retired_profiles_;
};

}  // namespace rpcoib::oib
