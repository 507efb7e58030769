#include "rpcoib/engine.hpp"

#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"

namespace rpcoib::oib {

const char* rpc_mode_name(RpcMode mode) {
  switch (mode) {
    case RpcMode::kSocket1GigE: return "RPC(1GigE)";
    case RpcMode::kSocket10GigE: return "RPC(10GigE)";
    case RpcMode::kSocketIPoIB: return "RPC(IPoIB)";
    case RpcMode::kRpcoIB: return "RPCoIB";
  }
  return "?";
}

namespace {

/// The socket transport a non-RDMA mode runs over.
net::Transport socket_transport(RpcMode mode) {
  switch (mode) {
    case RpcMode::kSocket1GigE: return net::Transport::kOneGigE;
    case RpcMode::kSocket10GigE: return net::Transport::kTenGigE;
    default: return net::Transport::kIPoIB;
  }
}

}  // namespace

RpcEngine::RpcEngine(net::Testbed& tb, EngineConfig cfg)
    : tb_(tb), cfg_(cfg), verbs_(tb.fabric()) {}

std::unique_ptr<rpc::RpcClient> RpcEngine::make_client(cluster::Host& host) {
  std::unique_ptr<rpc::RpcClient> client;
  if (cfg_.mode == RpcMode::kRpcoIB) {
    client = std::make_unique<RdmaRpcClient>(host, tb_.sockets(), verbs_, cfg_);
  } else {
    client = std::make_unique<rpc::SocketRpcClient>(host, tb_.sockets(),
                                                    socket_transport(cfg_.mode));
    client->set_retry_policy(cfg_.retry);
    client->set_batch(cfg_.batch);
    client->set_session(cfg_.session);
  }
  client->stats().record_sequences = record_sequences_;
  rpc::RpcClient* raw = client.get();
  clients_.push_back(raw);
  // Dead clients flush their stats into the engine accumulator so
  // aggregation never touches a dangling pointer.
  client->set_on_destroy([this, raw](const rpc::RpcStats& st) {
    for (const auto& [key, prof] : st.methods) retired_profiles_[key].merge(prof);
    std::erase(clients_, raw);
  });
  return client;
}

std::map<rpc::MethodKey, rpc::MethodProfile> RpcEngine::aggregated_profiles() const {
  std::map<rpc::MethodKey, rpc::MethodProfile> agg = retired_profiles_;
  for (const rpc::RpcClient* c : clients_) {
    for (const auto& [key, prof] : c->stats().methods) agg[key].merge(prof);
  }
  return agg;
}

std::unique_ptr<rpc::RpcServer> RpcEngine::make_server(cluster::Host& host,
                                                       net::Address addr) {
  if (cfg_.mode == RpcMode::kRpcoIB) {
    return std::make_unique<RdmaRpcServer>(host, tb_.sockets(), verbs_, addr, cfg_);
  }
  auto server = std::make_unique<rpc::SocketRpcServer>(host, tb_.sockets(), addr,
                                                       cfg_.server_handlers, cfg_.server_shards);
  server->set_overload(cfg_.overload);
  server->set_batch(cfg_.batch);
  server->set_session(cfg_.session);
  return server;
}

}  // namespace rpcoib::oib
