// Quickstart: define an RPC protocol, serve it, and call it over both the
// default socket transport and RPCoIB on a simulated two-node cluster.
//
//   cmake --build build && ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "net/testbed.hpp"
#include "rpcoib/engine.hpp"

using namespace rpcoib;

namespace {

// 1. Parameters and results are Writables, exactly like Hadoop's. A
// Message states its wire layout once, as a field list that both write()
// and read_fields() run.
struct GreetParam final : rpc::Message<GreetParam> {
  std::string name;
  template <typename IO>
  void fields(IO& io) {
    io.text(name);
  }
};

const rpc::MethodKey kGreet{"example.GreeterProtocol", "greet"};
constexpr net::Address kServerAddr{1, 9000};

sim::Task run_client(rpc::RpcClient& client, const char* label) {
  GreetParam p;
  p.name = "world";
  rpc::Text reply;
  const sim::Time t0 = client.host().sched().now();
  co_await client.call(kServerAddr, kGreet, p, &reply);
  std::cout << label << ": \"" << reply.value << "\" in "
            << sim::to_us(client.host().sched().now() - t0) << " us (virtual)" << std::endl;
}

}  // namespace

int main() {
  for (oib::RpcMode mode : {oib::RpcMode::kSocketIPoIB, oib::RpcMode::kRpcoIB}) {
    // 2. A simulated testbed: hosts, networks (1GigE/10GigE/IPoIB/IB-verbs).
    // One scheduler per experiment: drain_tasks() is terminal.
    sim::Scheduler sched;
    net::Testbed tb(sched, net::Testbed::cluster_b());
    oib::RpcEngine engine(tb, oib::EngineConfig{.mode = mode});

    // 3. Register a method on a server...
    std::unique_ptr<rpc::RpcServer> server = engine.make_server(tb.host(1), kServerAddr);
    // The dispatcher decodes the param and writes the returned result,
    // like Hadoop's RPC.Server.call; a body that must wait in virtual time
    // returns sim::Co<rpc::Text> instead.
    server->dispatcher().register_method<GreetParam>(
        kGreet.protocol, kGreet.method,
        [](const GreetParam& p) { return rpc::Text("hello, " + p.name); });
    server->start();

    // 4. ...and call it from another host. The second call is "warm": the
    // RPCoIB path has learned the message size for this <protocol,method>.
    std::unique_ptr<rpc::RpcClient> client = engine.make_client(tb.host(0));
    sched.spawn(run_client(*client, oib::rpc_mode_name(mode)));
    sched.run_until(sim::seconds(5));
    sched.spawn(run_client(*client, oib::rpc_mode_name(mode)));
    sched.run_until(sim::seconds(10));

    server->stop();
    sched.drain_tasks();
  }
  return 0;
}
