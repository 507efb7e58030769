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
#include "rpcoib/engine_config.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"
#include "rpcoib/stream/stream.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

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
