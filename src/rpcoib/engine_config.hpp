// The one configuration of Hadoop RPC: every knob an RPC endpoint takes,
// on either transport (the paper's `rpc.ib.enabled` and its companions).
//
// RpcEngine hands it whole to the RPCoIB client and server, which apply
// every field they serve themselves. The socket endpoints live in `rpc/`,
// below this layer, so RpcEngine passes them the fields they take through
// constructor arguments and setters.
#pragma once

#include <cstddef>

#include "rpc/batch.hpp"
#include "rpc/overload.hpp"
#include "rpc/retry.hpp"
#include "rpc/session.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/stream/stream.hpp"
#include "rpcoib/wire.hpp"

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

}  // namespace rpcoib::oib
