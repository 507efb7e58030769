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

RpcEngine::RpcEngine(net::Testbed& tb, EngineConfig cfg)
    : tb_(tb), cfg_(cfg), verbs_(tb.fabric()) {}

std::unique_ptr<rpc::RpcClient> RpcEngine::make_client(cluster::Host& host) {
  std::unique_ptr<rpc::RpcClient> client = make_client_impl(host);
  client->set_retry_policy(cfg_.retry);
  client->set_batch(cfg_.batch);
  client->set_session(cfg_.session);
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

std::unique_ptr<rpc::RpcClient> RpcEngine::make_client_impl(cluster::Host& host) {
  switch (cfg_.mode) {
    case RpcMode::kSocket1GigE:
      return std::make_unique<rpc::SocketRpcClient>(host, tb_.sockets(),
                                                    net::Transport::kOneGigE);
    case RpcMode::kSocket10GigE:
      return std::make_unique<rpc::SocketRpcClient>(host, tb_.sockets(),
                                                    net::Transport::kTenGigE);
    case RpcMode::kSocketIPoIB:
      return std::make_unique<rpc::SocketRpcClient>(host, tb_.sockets(),
                                                    net::Transport::kIPoIB);
    case RpcMode::kRpcoIB: {
      RdmaClientConfig rc;
      rc.eager_threshold = cfg_.eager_threshold;
      rc.pool = cfg_.pool;
      rc.fallback_to_socket = cfg_.socket_fallback;
      rc.ud = cfg_.ud;
      rc.onesided = cfg_.onesided;
      return std::make_unique<RdmaRpcClient>(host, tb_.sockets(), verbs_, rc);
    }
  }
  return nullptr;
}

std::unique_ptr<rpc::RpcServer> RpcEngine::make_server(cluster::Host& host,
                                                       net::Address addr) {
  std::unique_ptr<rpc::RpcServer> server;
  switch (cfg_.mode) {
    case RpcMode::kSocket1GigE:
    case RpcMode::kSocket10GigE:
    case RpcMode::kSocketIPoIB:
      server = std::make_unique<rpc::SocketRpcServer>(host, tb_.sockets(), addr,
                                                      cfg_.server_handlers, 1,
                                                      cfg_.server_shards, cfg_.shard_steal);
      break;
    case RpcMode::kRpcoIB: {
      RdmaServerConfig sc;
      sc.num_handlers = cfg_.server_handlers;
      sc.shards = cfg_.server_shards;
      sc.steal = cfg_.shard_steal;
      sc.eager_threshold = cfg_.eager_threshold;
      sc.pool = cfg_.pool;
      sc.socket_fallback = cfg_.socket_fallback;
      sc.ud = cfg_.ud;
      sc.onesided = cfg_.onesided;
      server = std::make_unique<RdmaRpcServer>(host, tb_.sockets(), verbs_, addr, sc);
      break;
    }
  }
  if (server) {
    server->set_overload(cfg_.overload);
    server->set_batch(cfg_.batch);
    server->set_session(cfg_.session);
  }
  return server;
}

}  // namespace rpcoib::oib
