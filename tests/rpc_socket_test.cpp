// End-to-end tests of the default (socket) Hadoop RPC path: echo calls,
// concurrent calls, exceptions, multiple clients, stats capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "chaos_env.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpc/socket_client.hpp"
#include "rpc/socket_server.hpp"

namespace rpcoib::rpc {
namespace {

using net::Address;
using net::Testbed;
using net::Transport;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr Address kServerAddr{1, 9000};

// Named method keys: the codebase rule forbids non-trivially-destructible
// temporaries in co_await statements (see sim/task.hpp).
const MethodKey kEcho{"test.EchoProtocol", "echo"};
const MethodKey kAdd{"test.EchoProtocol", "add"};
const MethodKey kFail{"test.EchoProtocol", "fail"};
const MethodKey kNope{"test.EchoProtocol", "nope"};

/// Registers a tiny test protocol on a server:
///   echo(BytesWritable) -> BytesWritable
///   add(two i32)        -> IntWritable
///   fail(Null)          -> always throws
void register_test_protocol(RpcServer& server) {
  server.dispatcher().register_method(
      "test.EchoProtocol", "echo", [](DataInput& in, DataOutput& out) -> Co<void> {
        BytesWritable payload;
        payload.read_fields(in);
        BytesWritable(std::move(payload.value)).write(out);
        co_return;
      });
  server.dispatcher().register_method(
      "test.EchoProtocol", "add", [](DataInput& in, DataOutput& out) -> Co<void> {
        const std::int32_t a = in.read_i32();
        const std::int32_t b = in.read_i32();
        IntWritable(a + b).write(out);
        co_return;
      });
  server.dispatcher().register_method(
      "test.EchoProtocol", "fail", [](DataInput&, DataOutput&) -> Co<void> {
        throw std::runtime_error("deliberate failure");
        co_return;
      });
}

struct AddParam final : Writable {
  std::int32_t a = 0, b = 0;
  void write(DataOutput& out) const override {
    out.write_i32(a);
    out.write_i32(b);
  }
  void read_fields(DataInput& in) override {
    a = in.read_i32();
    b = in.read_i32();
  }
};

struct Fixture {
  Fixture(Scheduler& s, Transport t = Transport::kIPoIB)
      : tb(s, Testbed::cluster_b()),
        server(tb.host(1), tb.sockets(), kServerAddr, 4),
        client(tb.host(0), tb.sockets(), t) {
    register_test_protocol(server);
    server.start();
  }
  ~Fixture() {
    client.close_connections();
    server.stop();
    tb.sched().drain_tasks();
  }
  Testbed tb;
  SocketRpcServer server;
  SocketRpcClient client;
};

Task call_echo(Fixture& f, std::size_t n, net::Bytes& got, bool& ok) {
  net::Bytes payload(n);
  for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<net::Byte>(i * 7);
  BytesWritable req(payload);
  BytesWritable resp;
  co_await f.client.call(kServerAddr, kEcho, req, &resp);
  got = std::move(resp.value);
  ok = (got == payload);
}

TEST(SocketRpc, EchoRoundTripsPayload) {
  Scheduler s;
  Fixture f(s);
  net::Bytes got;
  bool ok = false;
  s.spawn(call_echo(f, 512, got, ok));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(got.size(), 512u);
}

class EchoSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EchoSizes, RoundTripsAllSizes) {
  Scheduler s;
  Fixture f(s);
  net::Bytes got;
  bool ok = false;
  s.spawn(call_echo(f, GetParam(), got, ok));
  s.run_until(sim::seconds(30));
  EXPECT_TRUE(ok) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, EchoSizes,
                         ::testing::Values(1, 4, 64, 1024, 4096, 65536, 1u << 20,
                                           2u << 20));

Task call_add(Fixture& f, std::int32_t a, std::int32_t b, std::int32_t& out) {
  AddParam p;
  p.a = a;
  p.b = b;
  IntWritable r;
  co_await f.client.call(kServerAddr, kAdd, p, &r);
  out = r.value;
}

TEST(SocketRpc, TypedCall) {
  Scheduler s;
  Fixture f(s);
  std::int32_t out = 0;
  s.spawn(call_add(f, 20, 22, out));
  s.run_until(sim::seconds(10));
  EXPECT_EQ(out, 42);
}

TEST(SocketRpc, ManyConcurrentCallsMultiplexOneConnection) {
  Scheduler s;
  Fixture f(s);
  constexpr int kN = 32;
  std::vector<std::int32_t> out(kN, 0);
  for (int i = 0; i < kN; ++i) s.spawn(call_add(f, i, 1000, out[static_cast<std::size_t>(i)]));
  s.run_until(sim::seconds(30));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 1000 + i);
}

Task call_fail(Fixture& f, bool& remote_ex, std::string& msg) {
  NullWritable arg;
  try {
    co_await f.client.call(kServerAddr, kFail, arg, nullptr);
  } catch (const RemoteException& e) {
    remote_ex = true;
    msg = e.what();
  }
}

TEST(SocketRpc, HandlerExceptionSurfacesAsRemoteException) {
  Scheduler s;
  Fixture f(s);
  bool remote_ex = false;
  std::string msg;
  s.spawn(call_fail(f, remote_ex, msg));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(remote_ex);
  EXPECT_EQ(msg, "deliberate failure");
}

Task call_unknown(Fixture& f, bool& remote_ex) {
  NullWritable arg;
  try {
    co_await f.client.call(kServerAddr, kNope, arg, nullptr);
  } catch (const RemoteException&) {
    remote_ex = true;
  }
}

TEST(SocketRpc, UnknownMethodIsRemoteError) {
  Scheduler s;
  Fixture f(s);
  bool remote_ex = false;
  s.spawn(call_unknown(f, remote_ex));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(remote_ex);
}

Task call_refused(Fixture& f, bool& transport_err) {
  NullWritable arg;
  try {
    co_await f.client.call({5, 4242}, kAdd, arg, nullptr);
  } catch (const RpcTransportError&) {
    transport_err = true;
  }
}

TEST(SocketRpc, ConnectionRefusedIsTransportError) {
  Scheduler s;
  Fixture f(s);
  bool transport_err = false;
  s.spawn(call_refused(f, transport_err));
  s.run_until(sim::seconds(10));
  EXPECT_TRUE(transport_err);
}

TEST(SocketRpc, StatsCaptureTableOneQuantities) {
  Scheduler s;
  Fixture f(s);
  std::int32_t out = 0;
  for (int i = 0; i < 10; ++i) s.spawn(call_add(f, i, i, out));
  s.run_until(sim::seconds(30));

  const MethodKey key{"test.EchoProtocol", "add"};
  ASSERT_TRUE(f.client.stats().methods.contains(key));
  const MethodProfile& prof = f.client.stats().methods.at(key);
  EXPECT_EQ(prof.mem_adjustments.count(), 10u);
  // Request is ~50 bytes: 32 -> 64 is one adjustment.
  EXPECT_GE(prof.mem_adjustments.mean(), 1.0);
  EXPECT_GT(prof.serialize_us.mean(), 0.0);
  EXPECT_GT(prof.send_us.mean(), 0.0);
  EXPECT_GT(prof.total_us.mean(), prof.serialize_us.mean());
  EXPECT_EQ(f.client.stats().calls_sent, 10u);
  EXPECT_EQ(f.server.stats().calls_handled, 10u);
  EXPECT_EQ(f.server.stats().recv_total_us.count(), 10u);
  EXPECT_GT(f.server.stats().recv_alloc_us.mean(), 0.0);
}

TEST(SocketRpc, SizeSequencesRecordedWhenEnabled) {
  Scheduler s;
  Fixture f(s);
  f.client.stats().record_sequences = true;
  std::int32_t out = 0;
  for (int i = 0; i < 5; ++i) s.spawn(call_add(f, i, i, out));
  s.run_until(sim::seconds(30));
  const MethodProfile& prof = f.client.stats().methods.at({"test.EchoProtocol", "add"});
  ASSERT_EQ(prof.size_sequence.size(), 5u);
  // add() has fixed-size params: perfect message size locality.
  for (std::uint32_t sz : prof.size_sequence) EXPECT_EQ(sz, prof.size_sequence[0]);
}

Task two_clients_run(Fixture& f, SocketRpcClient& c2, std::int32_t& o1, std::int32_t& o2) {
  AddParam p;
  p.a = 1;
  p.b = 2;
  IntWritable r1, r2;
  co_await f.client.call(kServerAddr, kAdd, p, &r1);
  co_await c2.call(kServerAddr, kAdd, p, &r2);
  o1 = r1.value;
  o2 = r2.value;
}

TEST(SocketRpc, MultipleClientHostsShareOneServer) {
  Scheduler s;
  Fixture f(s);
  SocketRpcClient c2(f.tb.host(2), f.tb.sockets(), Transport::kIPoIB);
  std::int32_t o1 = 0, o2 = 0;
  s.spawn(two_clients_run(f, c2, o1, o2));
  s.run_until(sim::seconds(10));
  EXPECT_EQ(o1, 3);
  EXPECT_EQ(o2, 3);
  c2.close_connections();
}

Task call_add_catching(SocketRpcClient& c, std::int32_t a, std::int32_t b,
                       std::int32_t& out, bool& failed) {
  AddParam p;
  p.a = a;
  p.b = b;
  IntWritable r;
  try {
    co_await c.call(kServerAddr, kAdd, p, &r);
    out = r.value;
  } catch (const RpcTransportError&) {
    failed = true;
  }
}

Task start_server_after_failure(Scheduler& s, SocketRpcServer& server, const bool& failed) {
  // Poll at 1 us: the first caller's connect failure wakes the waiters,
  // and the first waiter's replacement SYN is still in flight (one-way
  // latency is several us) when the listener comes up — so the retry
  // connects while the other waiter is parked on the replacement's
  // `ready` event.
  while (!failed) co_await sim::delay(s, sim::micros(1));
  server.start();
}

// Regression: a caller woken from a broken connection's `ready` event must
// not clobber the replacement another waiter already installed. Pre-fix,
// the second waiter erased the map entry unconditionally, orphaning the
// first waiter's connection (two connections opened, stranded receive
// loop); post-fix it adopts the replacement and exactly one connection is
// established.
TEST(SocketRpc, ReconnectRaceAdoptsReplacementConnection) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
  register_test_protocol(server);
  // Server NOT started yet: the first call installs the connection entry,
  // suspends in connect (SYN), and fails at the listener check.
  SocketRpcClient client(tb.host(0), tb.sockets(), Transport::kIPoIB);
  std::int32_t out_a = 0, out_b = 0, out_c = 0;
  bool failed_a = false, failed_b = false, failed_c = false;
  s.spawn(call_add_catching(client, 1, 1, out_a, failed_a));   // installs, fails
  s.spawn(call_add_catching(client, 2, 3, out_b, failed_b));   // waits on ready
  s.spawn(call_add_catching(client, 10, 20, out_c, failed_c)); // waits on ready
  s.spawn(start_server_after_failure(s, server, failed_a));
  s.run_until(sim::seconds(10));

  EXPECT_TRUE(failed_a);  // no listener at its connect
  EXPECT_FALSE(failed_b);
  EXPECT_FALSE(failed_c);
  EXPECT_EQ(out_b, 5);
  EXPECT_EQ(out_c, 30);
  // One waiter reconnected; the other adopted that replacement instead of
  // clobbering it with a second connection.
  EXPECT_EQ(client.stats().connections_opened, 1u);
  client.close_connections();
  server.stop();
  s.drain_tasks();
}

// Regression: destroying a client whose receive loop is parked in read()
// must not leave the loop touching freed state when the peer's teardown
// finally wakes it (close() is a half-close — the local reader is only
// woken by the *server* closing its end). Pre-fix this was a use-after-
// free under ASan; post-fix the loop observes the cancelled flag and
// exits.
TEST(SocketRpc, DestroyClientWithParkedReceiverIsSafe) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
  register_test_protocol(server);
  server.start();
  auto client = std::make_unique<SocketRpcClient>(tb.host(0), tb.sockets(),
                                                  Transport::kIPoIB);
  std::int32_t out = 0;
  bool failed = false;
  s.spawn(call_add_catching(*client, 3, 4, out, failed));
  s.run_until(sim::seconds(1));
  ASSERT_EQ(out, 7);
  // The call is done but the receive loop is still blocked in read() on
  // the idle connection. Destroy the client under it...
  client.reset();
  // ...then tear down the server: its side's close reaches the parked
  // reader, which resumes exactly once more after the client is gone.
  server.stop();
  s.run_until(sim::seconds(2));
}

/// Run `fn` at virtual time `at`.
Task run_at(Scheduler& s, sim::Time at, std::function<void()> fn) {
  co_await sim::delay(s, at - s.now());
  fn();
}

/// One add call started at virtual time `at`; records the transport
/// error's message, if any.
Task add_at(Scheduler& s, SocketRpcClient& c, sim::Time at, std::string& error) {
  co_await sim::delay(s, at - s.now());
  AddParam p;
  IntWritable r;
  try {
    co_await c.call(kServerAddr, kAdd, p, &r);
  } catch (const RpcTransportError& e) {
    error = e.what();
  }
}

// Regression (use-after-free): a call that adopted a live connection must
// not register on it once the peer's EOF has broken it. Pre-fix the
// unbatched path filed its pending record before checking `broken`, threw
// on the check, and left a dangling pointer in a connection that stays in
// the table; close_connections() then failed the dead record (an ASan
// heap-use-after-free). The call's start is swept across the window
// around the server stop, so a cost-model change cannot move the window
// out of the test unnoticed: at least one start must meet the broken
// connection.
TEST(SocketRpc, CallRacingPeerCloseLeavesNoDanglingRecord) {
  int broken_hits = 0;
  for (sim::Dur lead = 0; lead <= 3000; lead += 50) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
    register_test_protocol(server);
    server.start();
    SocketRpcClient client(tb.host(0), tb.sockets(), Transport::kIPoIB);
    std::string warm_error, error;
    s.spawn(add_at(s, client, 0, warm_error));
    const sim::Time t0 = sim::seconds(1);
    s.spawn(run_at(s, t0, [&server] { server.stop(); }));
    s.spawn(add_at(s, client, t0 - lead, error));
    s.run_until(sim::seconds(2));
    EXPECT_TRUE(warm_error.empty());
    if (error == "connection broken") ++broken_hits;
    client.close_connections();
    s.drain_tasks();
  }
  EXPECT_GT(broken_hits, 0);
}

// Regression: an error reply is never turned into a transport error by a
// teardown racing its delivery. Pre-fix the receive loop unregistered the
// call before charging its delivery and woke it after; a teardown in
// between left the caller reading `broken` next to a non-success status,
// and it threw RpcTransportError("deliberate failure"), which the retry
// loop would re-send although the handler had run. Now a reply is matched
// after the charge: before that the teardown fails the call over ("client
// shutdown"), after it the call gets its RemoteException. The teardown is
// swept across the reply's arrival and must land on both sides.
TEST(SocketRpc, ErrorReplyRacingTeardownStaysRemoteException) {
  int remote = 0, shutdown = 0;
  for (sim::Dur delta = sim::micros(60); delta <= sim::micros(80); delta += 100) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
    register_test_protocol(server);
    server.start();
    SocketRpcClient client(tb.host(0), tb.sockets(), Transport::kIPoIB);
    std::string warm_error;
    s.spawn(add_at(s, client, 0, warm_error));
    const sim::Time t0 = sim::seconds(1);
    std::string outcome;
    s.spawn([](Scheduler& sc, SocketRpcClient& c, sim::Time at, std::string& out) -> Task {
      co_await sim::delay(sc, at - sc.now());
      NullWritable arg;
      try {
        co_await c.call(kServerAddr, kFail, arg, nullptr);
        out = "ok";
      } catch (const RemoteException&) {
        out = "remote";
      } catch (const RpcTransportError& e) {
        out = std::string("transport: ") + e.what();
      }
    }(s, client, t0, outcome));
    s.spawn(run_at(s, t0 + delta, [&client] { client.close_connections(); }));
    s.run_until(sim::seconds(2));
    EXPECT_TRUE(warm_error.empty());
    if (outcome == "remote") {
      ++remote;
    } else {
      EXPECT_EQ(outcome, "transport: client shutdown") << "teardown at +" << delta << " ns";
      ++shutdown;
    }
    server.stop();
    s.drain_tasks();
  }
  EXPECT_GT(remote, 0);
  EXPECT_GT(shutdown, 0);
}

// Regression (use-after-free): a reply whose call times out while the
// receive loop is charging its delivery is dropped. Pre-fix the loop had
// already unregistered the call and woke it after the charge, writing
// into the record the timed-out caller had destroyed (an ASan
// heap-use-after-free). The deadline is swept across the reply's arrival
// and must land on both sides of it.
TEST(SocketRpc, ReplyRacingCallTimeoutIsDropped) {
  int ok = 0, timed_out = 0;
  for (sim::Dur timeout = sim::micros(60); timeout <= sim::micros(80); timeout += 50) {
    Scheduler s;
    Testbed tb(s, Testbed::cluster_b());
    SocketRpcServer server(tb.host(1), tb.sockets(), kServerAddr, 4);
    register_test_protocol(server);
    server.start();
    SocketRpcClient client(tb.host(0), tb.sockets(), Transport::kIPoIB);
    std::string warm_error, error;
    s.spawn(add_at(s, client, 0, warm_error));
    s.run_until(sim::millis(500));
    RpcRetryPolicy policy;
    policy.call_timeout = timeout;
    client.set_retry_policy(policy);
    s.spawn(add_at(s, client, sim::seconds(1), error));
    s.run_until(sim::seconds(2));
    EXPECT_TRUE(warm_error.empty());
    if (error.empty()) {
      ++ok;
    } else {
      EXPECT_NE(error.find("timed out"), std::string::npos) << error;
      ++timed_out;
    }
    client.close_connections();
    server.stop();
    s.drain_tasks();
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(timed_out, 0);
}

// Regression (use-after-free): stop() then start() with no scheduler step
// between them. stop() closes every shard's call and response queues, but
// the handler and responder loops parked on them only see the close when
// they next run; start() meanwhile replaces the shards. Pre-fix the old
// shards died in start(), and each woken loop read its freed channel (an
// ASan heap-use-after-free in Channel::RecvAwaiter::await_resume). The
// loops now own the shard they serve and unwind off the closed one.
TEST(SocketRpc, BackToBackStopStartServesAgain) {
  Scheduler s;
  Fixture f(s);
  std::int32_t before = 0, after = 0;
  s.spawn(call_add(f, 20, 22, before));
  s.run_until(sim::seconds(1));
  ASSERT_EQ(before, 42);

  f.server.stop();
  f.server.start();
  s.run_until(sim::seconds(2));
  s.spawn(call_add(f, 40, 2, after));
  s.run_until(sim::seconds(3));
  EXPECT_EQ(after, 42);
}

// Closing a client's connections leaves nothing of them behind: the
// server's reader sees the EOF, closes its end, which wakes the client's
// parked receive loop, and drops the connection. The live tasks return to
// their count from before the client connected.
TEST(SocketRpc, ClientCloseLeavesNoServerConnection) {
  Scheduler s;
  Fixture f(s);
  s.run_until(sim::millis(1));
  const std::size_t before = s.live_task_count();
  std::int32_t out = 0;
  s.spawn(call_add(f, 1, 2, out));
  s.run_until(sim::seconds(1));
  ASSERT_EQ(out, 3);
  f.client.close_connections();
  s.run_until(sim::seconds(2));
  EXPECT_EQ(s.live_task_count(), before);
}

// --- Restart sweep ------------------------------------------------------------
//
// The socket twin of RpcoIB.RestartMidTrafficServesAgain*: a back-to-back
// stop(); start() at every microsecond of the first burst, with sessions
// off and on, at RPCOIB_SHARDS shards (default 2). At every instant each
// call ends with its value or a transport error (a timeout included), one
// more call succeeds, and once every client and the server are closed no
// task is left.

enum Outcome : int { kPending = 0, kValue, kTransportError, kWrongValue };

struct RestartRig {
  static constexpr cluster::HostId kClientHosts[] = {0, 2, 3, 4};
  static constexpr int kLanes = 2;  // concurrent callers per client
  static constexpr int kCallsPerLane = 4;

  RestartRig(Scheduler& s, bool sessions, int shards)
      : tb(s, Testbed::cluster_b()),
        server(tb.host(1), tb.sockets(), kServerAddr, 4, shards),
        outcomes(std::size(kClientHosts) * kLanes * kCallsPerLane, kPending) {
    register_test_protocol(server);
    SessionConfig session;
    session.enabled = sessions;
    server.set_session(session);
    server.start();
    RpcRetryPolicy retry;
    retry.call_timeout = sim::millis(2);
    retry.max_retries = 2;
    retry.backoff_base = sim::micros(200);
    for (const cluster::HostId h : kClientHosts) {
      clients.push_back(
          std::make_unique<SocketRpcClient>(tb.host(h), tb.sockets(), Transport::kIPoIB));
      clients.back()->set_retry_policy(retry);
      clients.back()->set_session(session);
    }
    const std::size_t sizes[] = {64, 2000, 16384};
    std::size_t slot = 0;
    for (auto& c : clients) {
      for (int lane = 0; lane < kLanes; ++lane) {
        std::vector<std::size_t> mine;
        for (int i = 0; i < kCallsPerLane; ++i) mine.push_back(sizes[(slot + i) % 3]);
        s.spawn(echo_lane(*c, mine, &outcomes[slot], &last_end));
        slot += kCallsPerLane;
      }
    }
  }
  ~RestartRig() {
    for (auto& c : clients) c->close_connections();
    server.stop();
    tb.sched().drain_tasks();
  }

  static Task echo_lane(RpcClient& c, std::vector<std::size_t> sizes, int* outcomes,
                        sim::Time* last_end) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      net::Bytes payload(sizes[i]);
      for (std::size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<net::Byte>(b * 7 + i);
      }
      BytesWritable req(payload);
      BytesWritable resp;
      try {
        co_await c.call(kServerAddr, kEcho, req, &resp);
        outcomes[i] = resp.value == payload ? kValue : kWrongValue;
      } catch (const RpcTransportError&) {
        outcomes[i] = kTransportError;
      }
      *last_end = std::max(*last_end, c.host().sched().now());
    }
  }

  Testbed tb;
  SocketRpcServer server;
  std::vector<std::unique_ptr<SocketRpcClient>> clients;
  std::vector<int> outcomes;
  sim::Time last_end = 0;
};

Task echo_once(RpcClient& c, bool& ok) {
  net::Bytes payload(512, net::Byte{9});
  BytesWritable req(payload);
  BytesWritable resp;
  co_await c.call(kServerAddr, kEcho, req, &resp);
  ok = resp.value == payload;
}

void restart_sweep(bool sessions, int shards) {
  // The burst's end, from a run without a restart.
  sim::Time burst_end = 0;
  {
    Scheduler s;
    RestartRig rig(s, sessions, shards);
    s.run_until(sim::millis(50));
    for (const int o : rig.outcomes) ASSERT_EQ(o, kValue);
    burst_end = rig.last_end;
  }
  ASSERT_GT(burst_end, 0u);
  for (sim::Time t = 0; t <= burst_end; t += sim::micros(1)) {
    SCOPED_TRACE("restart at " + std::to_string(sim::to_us(t)) + " us");
    Scheduler s;
    RestartRig rig(s, sessions, shards);
    s.run_until(t);
    rig.server.stop();
    rig.server.start();
    s.run_until(t + sim::millis(50));
    for (const int o : rig.outcomes) {
      ASSERT_TRUE(o == kValue || o == kTransportError) << "outcome " << o;
    }
    bool ok = false;
    s.spawn(echo_once(*rig.clients.front(), ok));
    s.run_until(s.now() + sim::millis(50));
    ASSERT_TRUE(ok);

    for (auto& c : rig.clients) c->close_connections();
    rig.server.stop();
    s.run_until(s.now() + sim::millis(50));
    ASSERT_EQ(s.live_task_count(), 0u);
  }
}

TEST(SocketRpc, RestartMidTrafficServesAgain) {
  for (const bool sessions : {false, true}) {
    SCOPED_TRACE(sessions ? "sessions on" : "sessions off");
    restart_sweep(sessions, chaos_shards(2));
  }
}

/// A raw server that answers the first call with a reply whose body is
/// too short for an IntWritable: [u32 9][u64 id][u8 kSuccess], no value.
Task short_reply_server(Testbed& tb, std::shared_ptr<net::Listener> l) {
  const cluster::CostModel& cm = tb.host(1).cost();
  net::SocketPtr conn = co_await l->accept();
  net::Bytes magic(5);
  co_await conn->read_full(magic);
  net::Bytes len_buf(4);
  co_await conn->read_full(len_buf);
  DataInputBuffer len_in(cm, len_buf);
  net::Bytes frame(len_in.read_u32());
  co_await conn->read_full(frame);
  DataInputBuffer in(cm, frame);
  CallHeader hdr;
  EXPECT_TRUE(read_call_header(in, hdr));
  DataOutputBuffer body(cm);
  body.write_u64(hdr.id);
  body.write_u8(static_cast<std::uint8_t>(RpcStatus::kSuccess));
  BufferedOutputStream out(cm);
  out.write_u32(static_cast<std::uint32_t>(body.length()));
  out.write_payload(body.data());
  out.flush();
  const net::Bytes wire = out.take_pending();
  co_await conn->write(wire);
}

// A reply with a valid header but a body too short for the response's
// Writable fails the attempt as a transport error instead of throwing a
// SerializationError past the retry loop and out of Scheduler::run.
TEST(SocketRpc, ShortReplyBodyIsATransportError) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  SocketRpcClient client(tb.host(0), tb.sockets(), Transport::kIPoIB);
  s.spawn(short_reply_server(tb, tb.sockets().listen(kServerAddr)));
  std::string error;
  s.spawn([](SocketRpcClient& c, std::string& err) -> Task {
    AddParam p;
    IntWritable sum;
    try {
      co_await c.call(kServerAddr, kAdd, p, &sum);
    } catch (const RpcTransportError& e) {
      err = e.what();
    }
  }(client, error));
  EXPECT_NO_THROW(s.run_until(sim::seconds(1)));
  EXPECT_NE(error.find("short reply"), std::string::npos) << error;
  client.close_connections();
  s.drain_tasks();
}

TEST(SocketRpc, LatencyOrderingAcrossTransports) {
  auto latency = [](Transport t) {
    Scheduler s;
    Fixture f(s, t);
    std::int32_t out = 0;
    const sim::Time t0 = s.now();
    s.spawn(call_add(f, 1, 2, out));
    s.run_until(sim::seconds(10));
    EXPECT_EQ(out, 3);
    return f.client.stats().methods.at({"test.EchoProtocol", "add"}).total_us.mean() +
           sim::to_us(t0) * 0;
  };
  const double gige = latency(Transport::kOneGigE);
  const double tengige = latency(Transport::kTenGigE);
  const double ipoib = latency(Transport::kIPoIB);
  EXPECT_LT(tengige, gige);
  EXPECT_LT(ipoib, gige);
}

}  // namespace
}  // namespace rpcoib::rpc
