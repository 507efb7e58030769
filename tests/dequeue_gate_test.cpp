// The dequeue gate both RPC servers run around CallPipeline::decide, and
// their admission-shed answer, pinned end to end. One seeded scenario per
// transport (two shards, tracing on) drives calls into every non-execute
// outcome:
//   * a deadline that passed while the call sat in the queue;
//   * a retry refused because its session lease expired;
//   * a retry answered from the retry cache;
//   * a retry dropped while its first attempt still executes;
//   * a handler finishing past the caller's deadline;
//   * an arrival shed by the admission bound.
// The server-side spans (name, start, end) and the resilience report are
// compared against goldens rendered before the gate moved into one step,
// so the move is proven to keep every span, time and counter.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/testbed.hpp"
#include "rpc/resilience.hpp"
#include "rpcoib/engine.hpp"
#include "trace/trace.hpp"

namespace rpcoib {
namespace {

using net::Address;
using net::Testbed;
using oib::EngineConfig;
using oib::RpcEngine;
using oib::RpcMode;
using sim::Co;
using sim::Scheduler;
using sim::Task;

constexpr Address kAddr{1, 9600};
constexpr cluster::HostId kServerHost = 1;
const rpc::MethodKey kSlow{"test.GateProtocol", "slow"};
const rpc::MethodKey kBump{"test.GateProtocol", "bump"};

/// slow: sleeps 5 s. bump: non-idempotent, sleeps 3 s.
void register_methods(rpc::RpcServer& server, Scheduler& s) {
  server.dispatcher().register_method(
      kSlow.protocol, kSlow.method, [&s](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
        co_await sim::delay(s, sim::seconds(5));
        rpc::BooleanWritable(true).write(out);
      });
  server.dispatcher().register_method(
      kBump.protocol, kBump.method, [&s](rpc::DataInput&, rpc::DataOutput& out) -> Co<void> {
        co_await sim::delay(s, sim::seconds(3));
        rpc::BooleanWritable(true).write(out);
      });
}

/// One call started at `at`; any failure is an expected outcome here.
Task call_at(Scheduler& s, rpc::RpcClient& client, sim::Time at, rpc::MethodKey key) {
  co_await sim::delay(s, at);
  rpc::NullWritable arg;
  rpc::BooleanWritable resp;
  try {
    co_await client.call(kAddr, key, arg, &resp);
  } catch (const std::runtime_error&) {
  }
}

rpc::RpcRetryPolicy timeout_retry(int retries, sim::Dur backoff) {
  rpc::RpcRetryPolicy p;
  p.call_timeout = sim::seconds(1);
  p.max_retries = retries;
  p.backoff_base = backoff;
  p.non_idempotent.insert(kBump.to_string());
  p.retry_non_idempotent_on_timeout = true;
  return p;
}

struct GateRun {
  std::string spans;   // "name start end" per server-side span, in record order
  std::string report;  // resilience report, server rows without the shard block
  std::string shards;  // the shard counters both commits share
};

GateRun run_gate_scenario(RpcMode mode) {
  Scheduler s;
  Testbed tb(s, Testbed::cluster_b());
  trace::TraceCollector col;
  col.set_enabled(true);
  tb.set_tracer(&col);
  EngineConfig ec{.mode = mode, .server_handlers = 4, .server_shards = 2};
  ec.overload.max_call_queue = 4;
  ec.overload.retry_cache_entries = 64;
  ec.session.enabled = true;
  ec.session.lease = sim::seconds(3);
  RpcEngine engine(tb, ec);
  auto server = engine.make_server(tb.host(kServerHost), kAddr);
  register_methods(*server, s);
  server->start();

  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (cluster::HostId h : {0, 2, 3, 4}) clients.push_back(engine.make_client(tb.host(h)));
  // t=0: four slow calls with a 1 s deadline. Two run past it (their
  // responses expire); two wait in the queue and expire at dequeue.
  clients[0]->set_retry_policy(timeout_retry(0, sim::millis(20)));
  for (int i = 0; i < 4; ++i) s.spawn(call_at(s, *clients[0], 0, kSlow));
  // t=20 s: one bump whose first retry lands while attempt one still
  // runs (dropped in flight) and whose next retry finds it completed
  // (replayed from the cache).
  clients[1]->set_retry_policy(timeout_retry(6, sim::millis(500)));
  s.spawn(call_at(s, *clients[1], sim::seconds(20), kBump));
  // t=40 s: one bump whose retry backs off past the 3 s session lease and
  // is refused with session-expired.
  clients[2]->set_retry_policy(timeout_retry(2, sim::seconds(5)));
  s.spawn(call_at(s, *clients[2], sim::seconds(40), kBump));
  // t=60 s: a burst of slow calls over the admission bound: two run, four
  // queue, the rest are shed.
  for (int i = 0; i < 10; ++i) s.spawn(call_at(s, *clients[3], sim::seconds(60), kSlow));
  s.run_until(sim::seconds(120));

  GateRun run;
  std::ostringstream spans;
  for (const trace::Span& sp : col.spans()) {
    if (sp.host == kServerHost) spans << sp.name << ' ' << sp.start << ' ' << sp.end << '\n';
  }
  run.spans = spans.str();
  rpc::RpcStats st = server->stats();
  std::ostringstream shards;
  for (const rpc::ShardCounters& sc : st.shards) {
    shards << sc.conns_assigned << ' ' << sc.dispatched << ' ' << sc.queued_peak << ' '
           << sc.dropped << '\n';
  }
  run.shards = shards.str();
  EXPECT_GT(st.calls_expired, 0u);
  EXPECT_GT(st.sessions_rejected, 0u);
  EXPECT_GT(st.dedup_hits, 0u);
  EXPECT_GT(st.dedup_in_flight, 0u);
  EXPECT_GT(st.responses_expired, 0u);
  EXPECT_GT(st.calls_shed, 0u);
  st.shards.clear();
  rpc::RpcStats client_total;
  for (const auto& c : clients) client_total.merge(c->stats());
  run.report = rpc::resilience_report(client_total, nullptr, &st);
  server->stop();
  s.drain_tasks();
  return run;
}

// ---- Goldens (rendered before the gate moved into one step) ---------------
// Spans are "name start_ns end_ns"; shard lines are "conns dispatched
// queue_peak dropped". The report's table lines end in "| ", trailing
// space included.

constexpr const char* kSocketSpans = R"(recv:slow 38023 51826
queue 51826 51826
handle:slow 51826 5000069683
recv:slow 51826 63524
queue 63524 63524
handle:slow 63524 5000081381
recv:slow 63524 75222
recv:slow 75222 86920
deadline.response:slow 5000069683 5000069683
deadline.expired:slow 75222 5000069683
deadline.expired:slow 86920 5000069683
deadline.response:slow 5000081381 5000081381
recv:bump 20000038023 20000051826
queue 20000051826 20000051826
handle:bump 20000051826 23000069683
recv:bump 21536779310 21536791008
queue 21536791008 21536791008
deadline.response:bump 23000069683 23000069683
recv:bump 24020020485 24020032183
queue 24020032183 24020032183
overload.dedup:bump 24020032183 24020032183
recv:bump 40000038023 40000051826
queue 40000051826 40000051826
handle:bump 40000051826 43000069683
deadline.response:bump 43000069683 43000069683
recv:bump 46380688668 46380700366
queue 46380700366 46380700366
session.rejected:bump 46380700366 46380700366
recv:slow 60000037913 60000051667
queue 60000051667 60000051667
handle:slow 60000051667 65000069524
recv:slow 60000051667 60000063316
queue 60000063316 60000063316
handle:slow 60000063316 65000081173
recv:slow 60000063316 60000074965
recv:slow 60000074965 60000086614
recv:slow 60000086614 60000098263
recv:slow 60000098263 60000109912
recv:slow 60000109912 60000121561
overload.shed:slow 60000109912 60000121561
recv:slow 60000121561 60000133210
overload.shed:slow 60000121561 60000133210
recv:slow 60000133210 60000144859
overload.shed:slow 60000133210 60000144859
recv:slow 60000144859 60000156508
overload.shed:slow 60000144859 60000156508
queue 60000074965 65000069524
handle:slow 65000069524 70000087381
queue 60000086614 65000081173
handle:slow 65000081173 70000099030
queue 60000098263 70000087381
handle:slow 70000087381 75000105238
queue 60000109912 70000099030
handle:slow 70000099030 75000116887
)";

constexpr const char* kSocketReport = R"(| Counter                          | Value     | 
|----------------------------------|-----------|
| calls sent                       | 19        | 
| timeouts                         | 7         | 
| transport errors                 | 0         | 
| retries                          | 3         | 
| socket fallbacks                 | 0         | 
| busy rejections                  | 0         | 
| nack fallbacks                   | 0         | 
| backoff waits                    | 3         | 
| backoff total (us)               | 7400598.9 | 
| batches sent                     | 0         | 
| batched calls                    | 0         | 
| batch flushes (full)             | 0         | 
| batch flushes (linger)           | 0         | 
| batch flushes (immediate)        | 0         | 
| connections opened               | 4         | 
| threshold mismatches             | 0         | 
| streams opened                   | 0         | 
| stream chunks                    | 0         | 
| stream bytes                     | 0         | 
| stream credit stalls             | 0         | 
| stream fallbacks                 | 0         | 
| stream pool denied               | 0         | 
| stream aborts                    | 0         | 
| stream deadline expiries         | 0         | 
| server calls shed                | 4         | 
| server calls expired             | 2         | 
| server responses expired         | 4         | 
| server dedup hits                | 1         | 
| server dedup in-flight           | 1         | 
| server dropped on stop           | 0         | 
| server pool nacks                | 0         | 
| server queue depth peak          | 4         | 
| server batches received          | 0         | 
| server batched calls             | 0         | 
| server response batches          | 0         | 
| server batched responses         | 0         | 
| server srq posted                | 0         | 
| server srq refills               | 0         | 
| server srq rnr stalls            | 0         | 
| server srq evictions             | 0         | 
| server recv ring bytes peak      | 0         | 
| server responses dropped on stop | 0         | 
| server sessions opened           | 4         | 
| server sessions expired          | 3         | 
| server sessions evicted          | 0         | 
| server session rejections        | 1         | 
| server session table peak        | 1         | 
)";

constexpr const char* kSocketShards = R"(3 9 2 2
1 6 4 4
)";

constexpr const char* kRdmaSpans = R"(pool.register 0 4575752
recv:slow 4604820 4604820
queue 4604820 4604820
handle:slow 4610870 5004611843
recv:slow 4612120 4612120
queue 4612120 4612120
handle:slow 4618170 5004619143
deadline.response:slow 5004610870 5004610870
recv:slow 4619420 4619420
deadline.expired:slow 4619420 5004617893
deadline.response:slow 5004618170 5004618170
recv:slow 4626720 4626720
deadline.expired:slow 4626720 5004623943
recv:bump 20000055722 20000055722
queue 20000055722 20000055722
handle:bump 20000061772 23000062745
recv:bump 21536791226 21536791226
queue 21536791226 21536791226
deadline.response:bump 23000061772 23000061772
recv:bump 24020026618 24020026618
queue 24020026618 24020026618
overload.dedup:bump 24020026618 24020032668
recv:bump 40000055722 40000055722
queue 40000055722 40000055722
handle:bump 40000061772 43000062745
deadline.response:bump 43000061772 43000061772
recv:bump 46380700584 46380700584
queue 46380700584 46380700584
session.rejected:bump 46380700584 46380706634
recv:slow 60000055628 60000055628
queue 60000055628 60000055628
handle:slow 60000061678 65000067772
recv:slow 60000062928 60000062928
queue 60000062928 60000062928
handle:slow 60000068978 65000075072
overload.shed:slow 60000099428 60000099428
overload.shed:slow 60000111984 60000111984
overload.shed:slow 60000124540 60000124540
overload.shed:slow 60000137096 60000137096
recv:slow 60000070228 60000070228
queue 60000070228 65000067772
handle:slow 65000073822 70000079916
recv:slow 60000077528 60000077528
queue 60000077528 65000075072
handle:slow 65000081122 70000087216
recv:slow 60000084828 60000084828
queue 60000084828 70000079916
handle:slow 70000085966 75000092060
recv:slow 60000092128 60000092128
queue 60000092128 70000087216
handle:slow 70000093266 75000099360
)";

constexpr const char* kRdmaReport = R"(| Counter                          | Value     | 
|----------------------------------|-----------|
| calls sent                       | 19        | 
| timeouts                         | 7         | 
| transport errors                 | 0         | 
| retries                          | 3         | 
| socket fallbacks                 | 0         | 
| busy rejections                  | 0         | 
| nack fallbacks                   | 0         | 
| backoff waits                    | 3         | 
| backoff total (us)               | 7400598.9 | 
| batches sent                     | 0         | 
| batched calls                    | 0         | 
| batch flushes (full)             | 0         | 
| batch flushes (linger)           | 0         | 
| batch flushes (immediate)        | 0         | 
| connections opened               | 4         | 
| threshold mismatches             | 0         | 
| streams opened                   | 0         | 
| stream chunks                    | 0         | 
| stream bytes                     | 0         | 
| stream credit stalls             | 0         | 
| stream fallbacks                 | 0         | 
| stream pool denied               | 0         | 
| stream aborts                    | 0         | 
| stream deadline expiries         | 0         | 
| server calls shed                | 4         | 
| server calls expired             | 2         | 
| server responses expired         | 4         | 
| server dedup hits                | 1         | 
| server dedup in-flight           | 1         | 
| server dropped on stop           | 0         | 
| server pool nacks                | 0         | 
| server queue depth peak          | 4         | 
| server batches received          | 0         | 
| server batched calls             | 0         | 
| server response batches          | 0         | 
| server batched responses         | 0         | 
| server srq posted                | 64        | 
| server srq refills               | 0         | 
| server srq rnr stalls            | 0         | 
| server srq evictions             | 0         | 
| server recv ring bytes peak      | 524288    | 
| server responses dropped on stop | 0         | 
| server sessions opened           | 6         | 
| server sessions expired          | 5         | 
| server sessions evicted          | 0         | 
| server session rejections        | 1         | 
| server session table peak        | 1         | 
)";

constexpr const char* kRdmaShards = R"(3 9 2 2
1 6 4 4
)";

TEST(DequeueGate, SocketServerAnswersEveryVerdict) {
  const GateRun run = run_gate_scenario(RpcMode::kSocketIPoIB);
  EXPECT_EQ(run.spans, kSocketSpans);
  EXPECT_EQ(run.report, kSocketReport);
  EXPECT_EQ(run.shards, kSocketShards);
}

TEST(DequeueGate, RdmaServerAnswersEveryVerdict) {
  const GateRun run = run_gate_scenario(RpcMode::kRpcoIB);
  EXPECT_EQ(run.spans, kRdmaSpans);
  EXPECT_EQ(run.report, kRdmaReport);
  EXPECT_EQ(run.shards, kRdmaShards);
}

}  // namespace
}  // namespace rpcoib
