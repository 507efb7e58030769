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
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

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
  sc.pool.srq_low_watermark = 16;
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
/// until the next bytes arrive, so a close that lands under the call, whose
/// response wakes the loop, may leave fewer tasks live, never more.
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
40 0 retry.backoff:echo 11 2000013601 2070276818
41 0 rpc.ud:echo 6 2070276818 2070283198
42 0 rpc:echo 6 2070283198 2070378522
43 42 serialize 1 2070328734 2070330883
44 43 pool.acquire 7 2070328734 2070328884
45 42 send 2 2070330883 2070331483 path=rendezvous
49 42 deserialize 1 2070374388 2070378522
50 0 rpc.ud:echo 6 8000000000 8000006380
51 0 rpc:echo 6 8000006380 8000102254
52 0 reconnect.idle_evicted 14 8000006380 8000006380
53 51 serialize 1 8000051916 8000054065
54 53 pool.acquire 7 8000051916 8000052066
55 51 send 2 8000054065 8000054665 path=rendezvous
59 51 deserialize 1 8000098120 8000102254
60 0 rpc:put 6 10000000000 10000085436
61 0 rpc:put 6 10000000000 10000096786
62 0 rpc:put 6 10000000000 10000108136
63 0 rpc:put 6 10000000000 10000119486
64 0 rpc:put 6 10000000000 10000130836
65 0 rpc:put 6 10000000000 10000142186
66 60 serialize 1 10000045536 10000063279
67 66 pool.acquire 7 10000045536 10000045836
68 61 serialize 1 10000045536 10000063279
69 68 pool.acquire 7 10000045536 10000045836
70 62 serialize 1 10000045536 10000063279
71 70 pool.acquire 7 10000045536 10000045836
72 63 serialize 1 10000045536 10000063279
73 72 pool.acquire 7 10000045536 10000045836
74 64 serialize 1 10000045536 10000063279
75 74 pool.acquire 7 10000045536 10000045836
76 65 serialize 1 10000045536 10000063279
77 76 pool.acquire 7 10000045536 10000045836
78 60 send 2 10000063279 10000063879 path=rendezvous
79 61 send 2 10000063279 10000063879 path=rendezvous
80 62 send 2 10000063279 10000063879 path=rendezvous
81 63 send 2 10000063279 10000063879 path=rendezvous
82 64 send 2 10000063279 10000063879 path=rendezvous
83 65 send 2 10000063279 10000063879 path=rendezvous
84 60 overload.nack:put 12 10000063879 10000085436
85 0 rpc:put 6 10000085436 10000541276
86 61 overload.nack:put 12 10000063879 10000096786
87 0 rpc:put 6 10000096786 10000676991
88 62 overload.nack:put 12 10000063879 10000108136
89 0 rpc:put 6 10000108136 10000812706
90 63 overload.nack:put 12 10000063879 10000119486
91 0 rpc:put 6 10000119486 10000948421
92 64 overload.nack:put 12 10000063879 10000130836
93 0 rpc:put 6 10000130836 10001084136
94 65 overload.nack:put 12 10000063879 10000142186
95 0 rpc:put 6 10000142186 10001219851
96 85 serialize 1 10000108071 10000170768
97 87 serialize 1 10000108071 10000170768
98 89 serialize 1 10000112186 10000174883
99 91 serialize 1 10000123536 10000186233
100 93 serialize 1 10000134886 10000197583
101 95 serialize 1 10000146236 10000208933
102 85 send 2 10000170768 10000283525
103 87 send 2 10000170768 10000325371
104 89 send 2 10000174883 10000367217
105 91 send 2 10000186233 10000409063
109 93 send 2 10000197583 10000450909
110 95 send 2 10000208933 10000492755
111 85 deserialize 1 10000541236 10000541276
115 87 deserialize 1 10000676951 10000676991
119 89 deserialize 1 10000812666 10000812706
123 91 deserialize 1 10000948381 10000948421
127 93 deserialize 1 10001084096 10001084136
131 95 deserialize 1 10001219811 10001219851
132 0 rpc:echo 6 12000000000 12000039356
133 0 rpc:echo 6 12000000000 12000050706
134 0 rpc:echo 6 12000000000 12000062056
135 0 rpc:echo 6 12000000000 12000073406
136 0 rpc:echo 6 12000000000 12000084756
137 0 rpc:echo 6 12000000000 12000096106
138 132 serialize 1 12000004050 12000005204
139 138 pool.acquire 7 12000004050 12000004200
140 133 serialize 1 12000004050 12000005204
141 140 pool.acquire 7 12000004050 12000004200
142 134 serialize 1 12000004050 12000005204
143 142 pool.acquire 7 12000004050 12000004200
144 135 serialize 1 12000004050 12000005204
145 144 pool.acquire 7 12000004050 12000004200
146 136 serialize 1 12000004050 12000005204
147 146 pool.acquire 7 12000004050 12000004200
148 137 serialize 1 12000004050 12000005204
149 148 pool.acquire 7 12000004050 12000004200
150 132 send 2 12000005204 12000005269 path=batched
151 133 send 2 12000005204 12000005269 path=batched
152 134 send 2 12000005204 12000005269 path=batched
153 135 send 2 12000005204 12000005269 path=batched
154 136 send 2 12000005204 12000005269 path=batched
155 137 send 2 12000005204 12000005269 path=batched
156 132 batch.flush 2 12000005269 12000006016
176 132 deserialize 1 12000038916 12000039356
177 133 deserialize 1 12000050266 12000050706
178 134 deserialize 1 12000061616 12000062056
179 135 deserialize 1 12000072966 12000073406
180 136 deserialize 1 12000084316 12000084756
181 137 deserialize 1 12000095666 12000096106
182 0 rpc:put 6 14000000000 14000085436
183 0 rpc:put 6 14000000000 14000045536
184 0 rpc:put 6 14000000000 14000045536
185 183 overload.pool:put 12 14000045536 14000045536
186 0 rpc:put 6 14000045536 14000501376
187 184 overload.pool:put 12 14000045536 14000045536
188 0 rpc:put 6 14000045536 14000637091
189 182 serialize 1 14000045536 14000063279
190 189 pool.acquire 7 14000045536 14000045836
191 182 send 2 14000063279 14000063879 path=rendezvous
192 182 overload.nack:put 12 14000063879 14000085436
193 0 rpc:put 6 14000085436 14000772806
194 186 serialize 1 14000068171 14000130868
195 188 serialize 1 14000068171 14000130868
196 193 serialize 1 14000089486 14000152183
197 186 send 2 14000130868 14000243625
198 188 send 2 14000130868 14000285471
199 193 send 2 14000152183 14000327317
203 186 deserialize 1 14000501336 14000501376
207 188 deserialize 1 14000637051 14000637091
211 193 deserialize 1 14000772766 14000772806
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

}  // namespace
}  // namespace rpcoib
