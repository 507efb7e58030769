// The client side of both RPC transports pinned end to end: the connection
// table, its reconnect state machine and RPCoIB's plane ladder. One seeded,
// traced scenario per transport (sessions and a retry policy on) drives
// calls through every way a client connection is lost or a call leaves
// its plane:
//   * socket: a FaultPlan kill, a server stop/restart (peer_closed) with a
//     call in flight, and coalesced calls;
//   * RPCoIB: a FaultPlan kill, an RC idle eviction, a bootstrap failure
//     (sticky socket reroute), client pool exhaustion (overload.pool),
//     a server NACK (overload.nack), a call too big for a UD datagram
//     falling back to RC, and a one-sided miss.
// The client-side spans (id, parent, name, category, start, end) and the
// resilience report are compared against goldens rendered before the two
// clients moved onto one connection core, so the move is proven to keep
// every span, time and counter.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "net/fault.hpp"
#include "net/testbed.hpp"
#include "rpc/resilience.hpp"
#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/rdma_client.hpp"
#include "rpcoib/rdma_server.hpp"
#include "trace/trace.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib {
namespace {

using net::Address;
using net::Testbed;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr const char* kProto = "test.CoreProtocol";
const rpc::MethodKey kEcho{kProto, "echo"};
const rpc::MethodKey kSlow{kProto, "slow"};
const rpc::MethodKey kPut{kProto, "put"};
const rpc::MethodKey kGet{kProto, "get"};

/// Key-only lookup, eligible for the one-sided plane on "get".
struct KeyParam final : rpc::Writable {
  std::string key;
  explicit KeyParam(std::string k) : key(std::move(k)) {}
  void write(rpc::DataOutput& out) const override { out.write_text(key); }
  void read_fields(rpc::DataInput& in) override { key = in.read_text(); }
  std::optional<std::string> onesided_key(const std::string& protocol,
                                          const std::string& method) const override {
    if (protocol == kProto && method == "get") return key;
    return std::nullopt;
  }
};

/// echo(bytes) -> bytes; slow(null) -> bool after 2 s; put(bytes) -> bool;
/// get(key) -> int, never published.
void register_methods(rpc::RpcServer& server, Scheduler& s) {
  server.dispatcher().register_method(
      kEcho.protocol, kEcho.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable v;
        v.read_fields(in);
        v.write(out);
        co_return;
      });
  server.dispatcher().register_method(
      kSlow.protocol, kSlow.method, [&s](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
        co_await sim::delay(s, sim::seconds(2));
        rpc::BooleanWritable(true).write(out);
      });
  server.dispatcher().register_method(
      kPut.protocol, kPut.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        rpc::BytesWritable v;
        v.read_fields(in);
        rpc::BooleanWritable(true).write(out);
        co_return;
      });
  server.dispatcher().register_method(
      kGet.protocol, kGet.method, [](rpc::DataInput& in, rpc::DataOutput& out) -> Co<void> {
        KeyParam p("");
        p.read_fields(in);
        rpc::IntWritable(7).write(out);
        co_return;
      });
}

/// One call of `bytes` payload bytes started at virtual time `at`; a
/// failure is an outcome the spans and the report already record.
Task call_at(Scheduler& s, rpc::RpcClient& client, sim::Time at, Address addr,
             rpc::MethodKey key, std::size_t bytes) {
  co_await sim::delay(s, at - s.now());
  rpc::BytesWritable arg(net::Bytes(bytes, 0x5a));
  rpc::BytesWritable echo;
  rpc::BooleanWritable ok;
  rpc::Writable* resp = key.method == "echo" ? static_cast<rpc::Writable*>(&echo) : &ok;
  try {
    co_await client.call(addr, key, arg, resp);
  } catch (const std::runtime_error&) {
  }
}

/// Run `fn` at virtual time `at`.
Task run_at(Scheduler& s, sim::Time at, std::function<void()> fn) {
  co_await sim::delay(s, at - s.now());
  fn();
}

Task get_at(Scheduler& s, rpc::RpcClient& client, sim::Time at, Address addr) {
  co_await sim::delay(s, at - s.now());
  KeyParam arg("cold");
  rpc::IntWritable resp;
  try {
    co_await client.call(addr, kGet, arg, &resp);
  } catch (const std::runtime_error&) {
  }
}

rpc::RpcRetryPolicy retry_policy() {
  rpc::RpcRetryPolicy p;
  p.call_timeout = sim::millis(500);
  p.max_retries = 4;
  p.backoff_base = sim::millis(50);
  return p;
}

rpc::SessionConfig sessions_on() {
  rpc::SessionConfig c;
  c.enabled = true;
  return c;
}

void configure(rpc::RpcClient& client) {
  client.set_retry_policy(retry_policy());
  client.set_session(sessions_on());
}

/// "id parent name category start end" per span recorded on `hosts`.
std::string client_spans(const trace::TraceCollector& col, const std::set<int>& hosts) {
  std::ostringstream os;
  for (const trace::Span& sp : col.spans()) {
    if (hosts.count(sp.host) == 0) continue;
    os << sp.id << ' ' << sp.parent_id << ' ' << sp.name << ' '
       << static_cast<int>(sp.category) << ' ' << sp.start << ' ' << sp.end;
    for (const auto& [k, v] : sp.attrs) os << ' ' << k << '=' << v;
    os << '\n';
  }
  return os.str();
}

struct PinRun {
  std::string spans;
  std::string report;
};

PinRun run_socket_scenario() {
  constexpr Address kAddr{1, 9800};
  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->add_connection_kill(0, 1, sim::seconds(1));
  net::TestbedConfig cfg = Testbed::cluster_b();
  cfg.fault = plan;
  Scheduler s;
  Testbed tb(s, cfg);
  trace::TraceCollector col;
  col.set_enabled(true);
  tb.set_tracer(&col);
  rpc::OverloadConfig ov;
  ov.retry_cache_entries = 64;
  auto make_server = [&] {
    auto srv = std::make_unique<rpc::SocketRpcServer>(tb.host(1), tb.sockets(), kAddr, 4);
    srv->set_overload(ov);
    srv->set_session(sessions_on());
    register_methods(*srv, s);
    srv->start();
    return srv;
  };
  std::unique_ptr<rpc::SocketRpcServer> server = make_server();

  rpc::SocketRpcClient a(tb.host(0), tb.sockets(), net::Transport::kIPoIB);
  configure(a);
  rpc::SocketRpcClient b(tb.host(2), tb.sockets(), net::Transport::kIPoIB);
  configure(b);
  rpc::BatchConfig batch;
  batch.enabled = true;
  b.set_batch(batch);

  // Warm-up, then a call the kill lands under (retried on a new link).
  s.spawn(call_at(s, a, sim::millis(10), kAddr, kEcho, 64));
  s.spawn(call_at(s, a, sim::seconds(1), kAddr, kEcho, 64));
  // Coalesced small calls on the second client.
  for (int i = 0; i < 6; ++i) s.spawn(call_at(s, b, sim::millis(1500), kAddr, kEcho, 32));
  // A slow call in flight when the server stops (peer_closed on both
  // clients); its retries land before and after the restart.
  s.spawn(call_at(s, a, sim::millis(2500), kAddr, kSlow, 0));
  std::unique_ptr<rpc::SocketRpcServer> restarted;
  s.spawn(run_at(s, sim::millis(2600), [&] { server->stop(); }));
  s.spawn(run_at(s, sim::millis(2800), [&] { restarted = make_server(); }));
  s.spawn(call_at(s, a, sim::seconds(5), kAddr, kEcho, 64));
  s.spawn(call_at(s, b, sim::seconds(5), kAddr, kEcho, 32));
  s.run_until(sim::seconds(20));

  PinRun run;
  run.spans = client_spans(col, {0, 2});
  rpc::RpcStats total;
  total.merge(a.stats());
  total.merge(b.stats());
  EXPECT_GT(total.reconnects_fault_injected, 0u);
  EXPECT_GT(total.reconnects_peer_closed, 0u);
  EXPECT_GT(total.batches_sent, 0u);
  run.report = rpc::resilience_report(total, &plan->counters());
  a.close_connections();
  b.close_connections();
  restarted->stop();
  s.drain_tasks();
  return run;
}

PinRun run_rdma_scenario() {
  constexpr Address kMain{1, 9800};
  constexpr Address kReroute{2, 9800};
  auto plan = std::make_shared<net::FaultPlan>(7);
  plan->add_connection_kill(0, 1, sim::seconds(2));
  net::TestbedConfig cfg = Testbed::cluster_b();
  cfg.fault = plan;
  Scheduler s;
  Testbed tb(s, cfg);
  trace::TraceCollector col;
  col.set_enabled(true);
  tb.set_tracer(&col);
  verbs::VerbsStack stack(tb.fabric());
  rpc::OverloadConfig ov;
  ov.retry_cache_entries = 64;

  // Main server: SRQ ring with idle eviction, UD and one-sided planes on,
  // and a rendezvous pool capped at one demand allocation.
  oib::RdmaServerConfig sc;
  sc.num_handlers = 4;
  sc.pool.buffers_per_class = 32;
  sc.pool.demand_alloc_cap = 1;
  sc.pool.srq_depth = 64;
  sc.srq_idle_evict = sim::seconds(2);
  sc.ud.enabled = true;
  sc.onesided.enabled = true;
  oib::RdmaRpcServer main(tb.host(1), tb.sockets(), stack, kMain, sc);
  main.set_overload(ov);
  main.set_session(sessions_on());
  register_methods(main, s);
  main.start();
  // Second server: its first bootstrap fails, rerouting it to sockets.
  oib::RdmaRpcServer reroute(tb.host(2), tb.sockets(), stack, kReroute, oib::RdmaServerConfig{});
  reroute.set_session(sessions_on());
  register_methods(reroute, s);
  reroute.start();

  // Client A: UD and one-sided planes on. Client B: plain RC with
  // coalescing. Client C: its pool capped at one demand allocation.
  oib::RdmaClientConfig ca;
  ca.pool.buffers_per_class = 32;
  ca.ud.enabled = true;
  ca.onesided.enabled = true;
  oib::RdmaRpcClient a(tb.host(0), tb.sockets(), stack, ca);
  configure(a);
  oib::RdmaClientConfig cb;
  cb.pool.buffers_per_class = 32;
  oib::RdmaRpcClient b(tb.host(3), tb.sockets(), stack, cb);
  configure(b);
  rpc::BatchConfig batch;
  batch.enabled = true;
  b.set_batch(batch);
  oib::RdmaClientConfig cc = cb;
  cc.pool.demand_alloc_cap = 1;
  oib::RdmaRpcClient c(tb.host(4), tb.sockets(), stack, cc);
  configure(c);

  // Bootstrap failure: sticky socket reroute, then a call on the reroute.
  s.run_until(sim::millis(10));
  stack.inject_bootstrap_failures(1);
  s.spawn(call_at(s, a, sim::millis(10), kReroute, kEcho, 64));
  s.spawn(call_at(s, a, sim::millis(500), kReroute, kEcho, 64));
  // One-sided miss (opens the RC link), served over UD.
  s.spawn(get_at(s, a, sim::seconds(1), kMain));
  // Too big for a datagram: falls back to RC, where the kill lands.
  s.spawn(call_at(s, a, sim::seconds(2), kMain, kEcho, 6000));
  // Idle past the eviction sweep: the stale QP is found on adopt.
  s.spawn(call_at(s, a, sim::seconds(8), kMain, kEcho, 6000));
  // Server pool exhaustion: overlapping rendezvous fetches are NACKed.
  for (int i = 0; i < 6; ++i) s.spawn(call_at(s, b, sim::seconds(10), kMain, kPut, 96u << 10));
  // Coalesced small calls on client B's RC link.
  for (int i = 0; i < 6; ++i) s.spawn(call_at(s, b, sim::seconds(12), kMain, kEcho, 32));
  // Client pool exhaustion mid-serialize: overload.pool reroutes.
  for (int i = 0; i < 3; ++i) s.spawn(call_at(s, c, sim::seconds(14), kMain, kPut, 96u << 10));
  s.run_until(sim::seconds(30));

  PinRun run;
  run.spans = client_spans(col, {0, 3, 4});
  rpc::RpcStats total;
  for (const oib::RdmaRpcClient* cl : {&a, &b, &c}) total.merge(cl->stats());
  EXPECT_GT(total.reconnects_fault_injected, 0u);
  EXPECT_GT(total.reconnects_idle_evicted, 0u);
  EXPECT_GT(total.socket_reroutes, 0u);
  EXPECT_GT(total.ud_rc_fallbacks, 0u);
  EXPECT_GT(total.onesided_misses, 0u);
  EXPECT_GT(b.stats().nack_fallbacks, 0u);
  EXPECT_GT(c.stats().nack_fallbacks, 0u);
  EXPECT_GT(b.stats().batches_sent, 0u);
  run.report = rpc::resilience_report(total, &plan->counters());
  main.stop();
  reroute.stop();
  for (oib::RdmaRpcClient* cl : {&a, &b, &c}) {
    cl->close_connections();
    EXPECT_EQ(cl->pool().native().stats().acquires, cl->pool().native().stats().releases);
  }
  s.drain_tasks();
  return run;
}

// ---- A shut that lands while a connection is being dialled -----------------

constexpr Address kDialAddr{1, 9800};
constexpr sim::Time kDialAt = sim::millis(10);

/// One echo call dialled at kDialAt, the client's close_connections()
/// `offset` later and again once the call is over, then the run left to go
/// dry. Returns the tasks still live then, the server's included; an RPCoIB
/// client's pool must balance too.
template <typename Client>
std::size_t live_after_close_during_dial(sim::Dur offset) {
  constexpr bool kRdma = std::is_same_v<Client, oib::RdmaRpcClient>;
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<Client> client;
  if constexpr (kRdma) {
    server = std::make_unique<oib::RdmaRpcServer>(tb.host(1), tb.sockets(), stack, kDialAddr,
                                                  oib::RdmaServerConfig{});
    client = std::make_unique<Client>(tb.host(0), tb.sockets(), stack, oib::RdmaClientConfig{});
  } else {
    server = std::make_unique<rpc::SocketRpcServer>(tb.host(1), tb.sockets(), kDialAddr, 4);
    client = std::make_unique<Client>(tb.host(0), tb.sockets(), net::Transport::kIPoIB);
  }
  register_methods(*server, s);
  server->start();
  s.spawn(call_at(s, *client, kDialAt, kDialAddr, kEcho, 64));
  s.spawn(run_at(s, kDialAt + offset, [&] { client->close_connections(); }));
  s.run_until(sim::seconds(1));
  client->close_connections();
  s.run_until(sim::seconds(2));
  if constexpr (kRdma) {
    const auto& ps = client->pool().native().stats();
    EXPECT_EQ(ps.acquires, ps.releases) << "close at +" << offset << " ns";
  }
  const std::size_t live = s.live_task_count();
  server->stop();
  s.drain_tasks();
  return live;
}

/// close_connections() at every 2 µs across the first call's dial and on
/// into the call: a connection shut while it dials must not keep the
/// receive ring the dial posted, nor the receive loop it spawned (with, on
/// sockets, the server's reader at the other end). The reference closes
/// long after the call. A socket client's receive loop outlives its close
/// until the server's reader, seeing the EOF, closes its end, so no close
/// may leave more tasks live than the reference.
template <typename Client>
void sweep_close_across_dial() {
  const std::size_t settled = live_after_close_during_dial<Client>(sim::millis(500));
  for (sim::Dur offset = 0; offset <= sim::micros(60); offset += sim::micros(2)) {
    EXPECT_LE(live_after_close_during_dial<Client>(offset), settled)
        << "close at +" << offset << " ns";
  }
}

TEST(ClientCore, SocketCloseDuringDialLeavesNoReceiveLoop) {
  sweep_close_across_dial<rpc::SocketRpcClient>();
}

TEST(ClientCore, RdmaCloseDuringDialLeavesNoRingOrReceiveLoop) {
  sweep_close_across_dial<oib::RdmaRpcClient>();
}

// ---- Goldens (rendered before the clients moved onto one core) -----------
// Spans are "id parent name category start_ns end_ns [attr=value...]".
// The report's table lines end in "| ", trailing space included.

constexpr const char* kSocketSpans = R"(1 0 rpc:echo 6 10000000 10094129
2 1 serialize 1 10022635 10024519
3 1 send 2 10024519 10030618
7 1 deserialize 1 10093710 10094129
8 0 rpc:echo 6 1000000000 1000012033
9 8 serialize 1 1000004050 1000005934
10 8 send 2 1000005934 1000012033
11 0 reconnect.fault_injected 14 1000012033 1000012033
12 0 fault.transport:echo 10 1000000000 1000012033
16 0 retry.backoff:echo 11 1000012033 1056448608
17 0 rpc:echo 6 1056448608 1056524307
18 17 serialize 1 1056471243 1056473127
19 17 send 2 1056473127 1056479226
23 17 deserialize 1 1056523888 1056524307
24 0 rpc:echo 6 1500000000 1500096994
25 0 rpc:echo 6 1500000000 1500109078
26 0 rpc:echo 6 1500000000 1500121162
27 0 rpc:echo 6 1500000000 1500133246
28 0 rpc:echo 6 1500000000 1500145330
29 0 rpc:echo 6 1500000000 1500157414
30 24 serialize 1 1500022635 1500024510
31 25 serialize 1 1500022635 1500024510
32 26 serialize 1 1500022635 1500024510
33 27 serialize 1 1500022635 1500024510
34 28 serialize 1 1500022635 1500024510
35 29 serialize 1 1500022635 1500024510
36 24 send 2 1500024510 1500024586
37 25 send 2 1500024510 1500024586
38 26 send 2 1500024510 1500024586
39 27 send 2 1500024510 1500024586
40 28 send 2 1500024510 1500024586
41 29 send 2 1500024510 1500024586
42 24 batch.flush 2 1500024586 1500032258
62 24 deserialize 1 1500096594 1500096994
63 25 deserialize 1 1500108678 1500109078
64 26 deserialize 1 1500120762 1500121162
65 27 deserialize 1 1500132846 1500133246
66 28 deserialize 1 1500144930 1500145330
67 29 deserialize 1 1500157014 1500157414
68 0 rpc:slow 6 2500000000 2600008001
69 68 serialize 1 2500004050 2500005556
70 68 send 2 2500005556 2500011585
74 0 reconnect.peer_closed 14 2600008001 2600008001
75 0 reconnect.peer_closed 14 2600008001 2600008001
76 0 fault.transport:slow 10 2500000000 2600008001
77 0 retry.backoff:slow 11 2600008001 2670271218
78 0 rpc:slow 6 2670271218 2670279258
79 0 fault.transport:slow 10 2670271218 2670279258
80 0 retry.backoff:slow 11 2670279258 2786634559
81 0 rpc:slow 6 2786634559 2786642599
82 0 fault.transport:slow 10 2786634559 2786642599
83 0 retry.backoff:slow 11 2786642599 3076245026
84 0 rpc:slow 6 3076245026 3076320107
85 84 serialize 1 3076267661 3076269167
86 84 send 2 3076269167 3076275196
91 0 rpc:echo 6 5000000000 5000073439
92 0 rpc:echo 6 5000000000 5000094543
93 91 serialize 1 5000004050 5000005934
94 91 send 2 5000005934 5000012033
95 92 serialize 1 5000022635 5000024510
96 92 send 2 5000024510 5000024586
97 92 batch.flush 2 5000024586 5000030843
105 91 deserialize 1 5000073020 5000073439
106 92 deserialize 1 5000094143 5000094543
)";
constexpr const char* kSocketReport = R"(| Counter                     | Value    | 
|-----------------------------|----------|
| calls sent                  | 13       | 
| timeouts                    | 0        | 
| transport errors            | 4        | 
| retries                     | 4        | 
| socket fallbacks            | 0        | 
| busy rejections             | 0        | 
| nack fallbacks              | 0        | 
| backoff waits               | 4        | 
| backoff total (us)          | 532657.5 | 
| batches sent                | 2        | 
| batched calls               | 7        | 
| batch flushes (full)        | 0        | 
| batch flushes (linger)      | 0        | 
| batch flushes (immediate)   | 2        | 
| connections opened          | 5        | 
| threshold mismatches        | 0        | 
| reconnects (peer closed)    | 2        | 
| reconnects (qp error)       | 0        | 
| reconnects (idle evicted)   | 0        | 
| reconnects (fault injected) | 1        | 
| calls replayed              | 4        | 
| streams opened              | 0        | 
| stream chunks               | 0        | 
| stream bytes                | 0        | 
| stream credit stalls        | 0        | 
| stream fallbacks            | 0        | 
| stream pool denied          | 0        | 
| stream aborts               | 0        | 
| stream deadline expiries    | 0        | 
| fault drops                 | 0        | 
| fault spikes                | 0        | 
| fault outage hits           | 0        | 
| fault true losses           | 0        | 
| fault kills                 | 1        | 
)";
constexpr const char* kRdmaSpans = R"(3 0 pool.register 7 0 9215008 buffers=256
4 0 pool.register 7 0 9215008 buffers=256
5 0 pool.register 7 0 9215008 buffers=256
6 0 rpc:echo 6 10000000 10016080
7 6 fault.bootstrap:echo 10 10000000 10016080
8 0 rpc:echo 6 10016080 10110209
9 8 serialize 1 10038715 10040599
10 8 send 2 10040599 10046698
14 8 deserialize 1 10109790 10110209
15 0 rpc:echo 6 500000000 500073439
16 15 serialize 1 500004050 500005934
17 15 send 2 500005934 500012033
21 15 deserialize 1 500073020 500073439
22 0 onesided.fallback:get 15 1000041486 1000044869
23 0 rpc.ud:get 6 1000044869 1000083536
24 23 serialize 1 1000048919 1000050249
25 23 send 2 1000050249 1000050849 path=ud
29 23 deserialize 1 1000083456 1000083536
30 0 rpc.ud:echo 6 2000000000 2000006592
31 0 rpc:echo 6 2000006592 2000013601
32 31 serialize 1 2000010642 2000013001
33 32 pool.acquire 7 2000010642 2000010942
34 0 reconnect.fault_injected 14 2000013601 2000013601
35 31 send 2 2000013001 2000013601 path=rendezvous
36 0 fault.transport:echo 10 2000000000 2000013601
37 0 retry.backoff:echo 11 2000013601 2070276818
38 0 rpc.ud:echo 6 2070276818 2070283198
39 0 rpc:echo 6 2070283198 2070379274
40 39 serialize 1 2070328734 2070330883
41 40 pool.acquire 7 2070328734 2070328884
42 39 send 2 2070330883 2070331483 path=rendezvous
46 39 deserialize 1 2070375140 2070379274
47 0 rpc.ud:echo 6 8000000000 8000006380
48 0 rpc:echo 6 8000006380 8000102254
49 0 reconnect.idle_evicted 14 8000006380 8000006380
50 48 serialize 1 8000051916 8000054065
51 50 pool.acquire 7 8000051916 8000052066
52 48 send 2 8000054065 8000054665 path=rendezvous
56 48 deserialize 1 8000098120 8000102254
57 0 rpc:put 6 10000000000 10000085436
58 0 rpc:put 6 10000000000 10000096786
59 0 rpc:put 6 10000000000 10000108136
60 0 rpc:put 6 10000000000 10000119486
61 0 rpc:put 6 10000000000 10000130836
62 0 rpc:put 6 10000000000 10000142186
63 57 serialize 1 10000045536 10000063279
64 63 pool.acquire 7 10000045536 10000045836
65 58 serialize 1 10000045536 10000063279
66 65 pool.acquire 7 10000045536 10000045836
67 59 serialize 1 10000045536 10000063279
68 67 pool.acquire 7 10000045536 10000045836
69 60 serialize 1 10000045536 10000063279
70 69 pool.acquire 7 10000045536 10000045836
71 61 serialize 1 10000045536 10000063279
72 71 pool.acquire 7 10000045536 10000045836
73 62 serialize 1 10000045536 10000063279
74 73 pool.acquire 7 10000045536 10000045836
75 57 send 2 10000063279 10000063879 path=rendezvous
76 58 send 2 10000063279 10000063879 path=rendezvous
77 59 send 2 10000063279 10000063879 path=rendezvous
78 60 send 2 10000063279 10000063879 path=rendezvous
79 61 send 2 10000063279 10000063879 path=rendezvous
80 62 send 2 10000063279 10000063879 path=rendezvous
81 57 overload.nack:put 12 10000063879 10000085436
82 0 rpc:put 6 10000085436 10000541276
83 58 overload.nack:put 12 10000063879 10000096786
84 0 rpc:put 6 10000096786 10000676991
85 59 overload.nack:put 12 10000063879 10000108136
86 0 rpc:put 6 10000108136 10000812706
87 60 overload.nack:put 12 10000063879 10000119486
88 0 rpc:put 6 10000119486 10000948421
89 61 overload.nack:put 12 10000063879 10000130836
90 0 rpc:put 6 10000130836 10001084136
91 62 overload.nack:put 12 10000063879 10000142186
92 0 rpc:put 6 10000142186 10001219851
93 82 serialize 1 10000108071 10000170768
94 84 serialize 1 10000108071 10000170768
95 86 serialize 1 10000112186 10000174883
96 88 serialize 1 10000123536 10000186233
97 90 serialize 1 10000134886 10000197583
98 92 serialize 1 10000146236 10000208933
99 82 send 2 10000170768 10000283525
100 84 send 2 10000170768 10000325371
101 86 send 2 10000174883 10000367217
102 88 send 2 10000186233 10000409063
106 90 send 2 10000197583 10000450909
107 92 send 2 10000208933 10000492755
108 82 deserialize 1 10000541236 10000541276
112 84 deserialize 1 10000676951 10000676991
116 86 deserialize 1 10000812666 10000812706
120 88 deserialize 1 10000948381 10000948421
124 90 deserialize 1 10001084096 10001084136
128 92 deserialize 1 10001219811 10001219851
129 0 rpc:echo 6 12000000000 12000039356
130 0 rpc:echo 6 12000000000 12000050706
131 0 rpc:echo 6 12000000000 12000062056
132 0 rpc:echo 6 12000000000 12000073406
133 0 rpc:echo 6 12000000000 12000084756
134 0 rpc:echo 6 12000000000 12000096106
135 129 serialize 1 12000004050 12000005204
136 135 pool.acquire 7 12000004050 12000004200
137 130 serialize 1 12000004050 12000005204
138 137 pool.acquire 7 12000004050 12000004200
139 131 serialize 1 12000004050 12000005204
140 139 pool.acquire 7 12000004050 12000004200
141 132 serialize 1 12000004050 12000005204
142 141 pool.acquire 7 12000004050 12000004200
143 133 serialize 1 12000004050 12000005204
144 143 pool.acquire 7 12000004050 12000004200
145 134 serialize 1 12000004050 12000005204
146 145 pool.acquire 7 12000004050 12000004200
147 129 send 2 12000005204 12000005269 path=batched
148 130 send 2 12000005204 12000005269 path=batched
149 131 send 2 12000005204 12000005269 path=batched
150 132 send 2 12000005204 12000005269 path=batched
151 133 send 2 12000005204 12000005269 path=batched
152 134 send 2 12000005204 12000005269 path=batched
153 129 batch.flush 2 12000005269 12000006016
173 129 deserialize 1 12000038916 12000039356
174 130 deserialize 1 12000050266 12000050706
175 131 deserialize 1 12000061616 12000062056
176 132 deserialize 1 12000072966 12000073406
177 133 deserialize 1 12000084316 12000084756
178 134 deserialize 1 12000095666 12000096106
179 0 rpc:put 6 14000000000 14000085436
180 0 rpc:put 6 14000000000 14000045536
181 0 rpc:put 6 14000000000 14000045536
182 180 overload.pool:put 12 14000045536 14000045536
183 0 rpc:put 6 14000045536 14000501376
184 181 overload.pool:put 12 14000045536 14000045536
185 0 rpc:put 6 14000045536 14000637091
186 179 serialize 1 14000045536 14000063279
187 186 pool.acquire 7 14000045536 14000045836
188 179 send 2 14000063279 14000063879 path=rendezvous
189 179 overload.nack:put 12 14000063879 14000085436
190 0 rpc:put 6 14000085436 14000772806
191 183 serialize 1 14000068171 14000130868
192 185 serialize 1 14000068171 14000130868
193 190 serialize 1 14000089486 14000152183
194 183 send 2 14000130868 14000243625
195 185 send 2 14000130868 14000285471
196 190 send 2 14000152183 14000327317
200 183 deserialize 1 14000501336 14000501376
204 185 deserialize 1 14000637051 14000637091
208 190 deserialize 1 14000772766 14000772806
)";
constexpr const char* kRdmaReport = R"(| Counter                     | Value   | 
|-----------------------------|---------|
| calls sent                  | 17      | 
| timeouts                    | 0       | 
| transport errors            | 1       | 
| retries                     | 1       | 
| socket fallbacks            | 1       | 
| busy rejections             | 0       | 
| nack fallbacks              | 9       | 
| backoff waits               | 1       | 
| backoff total (us)          | 70263.2 | 
| batches sent                | 1       | 
| batched calls               | 6       | 
| batch flushes (full)        | 0       | 
| batch flushes (linger)      | 0       | 
| batch flushes (immediate)   | 1       | 
| connections opened          | 5       | 
| threshold mismatches        | 0       | 
| reconnects (peer closed)    | 0       | 
| reconnects (qp error)       | 0       | 
| reconnects (idle evicted)   | 1       | 
| reconnects (fault injected) | 1       | 
| calls replayed              | 1       | 
| ud datagrams sent           | 1       | 
| ud responses received       | 1       | 
| ud rc fallbacks             | 3       | 
| onesided reads              | 0       | 
| onesided misses             | 1       | 
| onesided conflict fallbacks | 0       | 
| onesided stale refreshes    | 0       | 
| onesided fallbacks          | 1       | 
| streams opened              | 0       | 
| stream chunks               | 0       | 
| stream bytes                | 0       | 
| stream credit stalls        | 0       | 
| stream fallbacks            | 0       | 
| stream pool denied          | 0       | 
| stream aborts               | 0       | 
| stream deadline expiries    | 0       | 
| fault drops                 | 0       | 
| fault spikes                | 0       | 
| fault outage hits           | 0       | 
| fault true losses           | 0       | 
| fault kills                 | 1       | 
)";

TEST(ClientCore, SocketClientKeepsEverySpanAcrossReconnects) {
  const PinRun run = run_socket_scenario();
  EXPECT_EQ(run.spans, kSocketSpans);
  EXPECT_EQ(run.report, kSocketReport);
}

TEST(ClientCore, RdmaClientKeepsEverySpanAcrossThePlaneLadder) {
  const PinRun run = run_rdma_scenario();
  EXPECT_EQ(run.spans, kRdmaSpans);
  EXPECT_EQ(run.report, kRdmaReport);
}

// ---- The pending-call table ------------------------------------------------

struct TablePending : rpc::PendingCall<TablePending> {
  using PendingCall::PendingCall;
};

Task await_pending(TablePending& pc, std::uint64_t id, std::vector<std::uint64_t>& woke) {
  co_await pc.done.wait();
  woke.push_back(id);
}

TEST(ClientCore, FailAllWakesCallsInCallIdOrderAfterAnOlderIdIsRefiled) {
  Scheduler s;
  rpc::ClientConnection<TablePending> conn(s);
  TablePending p7(s), p9(s), p3(s), p5(s);
  conn.file(7, p7);
  conn.file(9, p9);
  // A retry re-files older ids behind the newer ones.
  conn.file(3, p3);
  conn.file(5, p5);
  std::vector<std::uint64_t> woke;
  s.spawn(await_pending(p7, 7, woke));
  s.spawn(await_pending(p9, 9, woke));
  s.spawn(await_pending(p3, 3, woke));
  s.spawn(await_pending(p5, 5, woke));
  s.run();
  ASSERT_TRUE(woke.empty());
  EXPECT_EQ(std::distance(conn.pending.begin(), conn.pending.end()), 4);
  conn.fail_all("connection lost");
  s.run();
  EXPECT_EQ(woke, (std::vector<std::uint64_t>{3, 5, 7, 9}));
  EXPECT_TRUE(p3.transport_error && p5.transport_error && p7.transport_error &&
              p9.transport_error);
  EXPECT_EQ(p3.error_msg, "connection lost");
  EXPECT_TRUE(conn.pending.begin() == conn.pending.end());
  EXPECT_EQ(conn.take(5), nullptr);
  EXPECT_THROW(conn.file(11, p5), rpc::RpcTransportError);
}

TEST(ClientCore, PendingRecordUnregistersItselfAndTakeMatchesById) {
  Scheduler s;
  rpc::ClientConnection<TablePending> conn(s);
  TablePending p2(s), p4(s);
  conn.file(4, p4);
  conn.file(2, p2);
  {
    TablePending p3(s);
    conn.file(3, p3);
    EXPECT_TRUE(conn.pending.contains(3));
  }  // a record that dies (reply, timeout or throw) leaves no entry
  EXPECT_FALSE(conn.pending.contains(3));
  EXPECT_EQ(conn.take(1), nullptr);
  EXPECT_EQ(conn.take(4), &p4);
  EXPECT_EQ(conn.take(4), nullptr);
  EXPECT_EQ(conn.take(2), &p2);
  EXPECT_TRUE(conn.pending.begin() == conn.pending.end());
}

}  // namespace
}  // namespace rpcoib
