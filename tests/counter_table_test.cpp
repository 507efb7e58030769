// The RpcStats counter table: one kCounterRows row per counter drives
// merge, the shard fold and resilience_report. The golden reports below
// were rendered by the hand-written report that preceded the table and pin
// its bytes: row order, labels, the gates and every value. Each table line
// ends in "| " (the Table's cell terminator), trailing space included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "rpc/resilience.hpp"
#include "rpc/stats.hpp"

namespace rpcoib {
namespace {

using rpc::RpcStats;
using rpc::ShardCounters;

/// Every RpcStats counter, named independently of the library's own row
/// table, in declaration order.
constexpr std::uint64_t RpcStats::*kAllCounters[] = {
    &RpcStats::calls_sent, &RpcStats::calls_handled, &RpcStats::timeouts,
    &RpcStats::transport_errors, &RpcStats::retries, &RpcStats::socket_reroutes,
    &RpcStats::busy_rejections, &RpcStats::nack_fallbacks, &RpcStats::calls_shed,
    &RpcStats::calls_expired, &RpcStats::responses_expired, &RpcStats::dedup_hits,
    &RpcStats::dedup_in_flight, &RpcStats::dropped_on_stop, &RpcStats::pool_nacks,
    &RpcStats::queue_depth_peak, &RpcStats::batches_sent, &RpcStats::batched_calls,
    &RpcStats::batch_flush_full, &RpcStats::batch_flush_linger,
    &RpcStats::batch_flush_immediate, &RpcStats::batches_received,
    &RpcStats::batched_calls_received, &RpcStats::response_batches,
    &RpcStats::batched_responses, &RpcStats::connections_opened,
    &RpcStats::threshold_mismatches, &RpcStats::reconnects_peer_closed,
    &RpcStats::reconnects_qp_error, &RpcStats::reconnects_idle_evicted,
    &RpcStats::reconnects_fault_injected, &RpcStats::calls_replayed,
    &RpcStats::session_cold_restarts, &RpcStats::sessions_opened,
    &RpcStats::sessions_expired, &RpcStats::sessions_evicted, &RpcStats::sessions_rejected,
    &RpcStats::session_table_peak, &RpcStats::srq_posted, &RpcStats::srq_refills,
    &RpcStats::srq_rnr_stalls, &RpcStats::srq_evictions, &RpcStats::recv_ring_bytes_peak,
    &RpcStats::responses_dropped_on_stop, &RpcStats::ud_datagrams_sent,
    &RpcStats::ud_responses_received, &RpcStats::ud_rc_fallbacks,
    &RpcStats::ud_calls_received, &RpcStats::ud_responses_sent, &RpcStats::ud_rx_dropped,
    &RpcStats::ud_resp_oversize, &RpcStats::onesided_reads, &RpcStats::onesided_misses,
    &RpcStats::onesided_conflict_fallbacks, &RpcStats::onesided_stale_refreshes,
    &RpcStats::onesided_fallbacks, &RpcStats::onesided_published,
    &RpcStats::onesided_reexports, &RpcStats::streams_opened, &RpcStats::stream_chunks,
    &RpcStats::stream_bytes, &RpcStats::stream_credit_stalls, &RpcStats::stream_fallbacks,
    &RpcStats::stream_pool_denied, &RpcStats::stream_aborts,
    &RpcStats::stream_deadline_expiries,
};

/// Every counter, the backoff summary and (from `base`) a distinct nonzero
/// value for each.
RpcStats filled(std::uint64_t base) {
  RpcStats s;
  for (std::uint64_t RpcStats::*f : kAllCounters) s.*f = base++;
  s.backoff_us.add(static_cast<double>(base) + 0.25);
  s.backoff_us.add(12.5);
  return s;
}

ShardCounters shard(std::uint64_t base) {
  return ShardCounters{base, base + 1, base + 2, base + 3};
}

/// Zero stats with one counter set.
RpcStats only(std::uint64_t RpcStats::*field) {
  RpcStats s;
  s.*field = 3;
  return s;
}

std::string report_full() {
  RpcStats server = filled(101);
  server.shards = {shard(201), shard(211), shard(227)};
  const net::FaultCounters faults{301, 302, 303, 304, 305, 306};
  return rpc::resilience_report(filled(1), &faults, &server);
}

std::string report_zero_client() { return rpc::resilience_report(RpcStats{}); }

std::string report_zero_all() {
  const net::FaultCounters faults{};
  const RpcStats server;
  return rpc::resilience_report(RpcStats{}, &faults, &server);
}

std::string report_client_gate(std::uint64_t RpcStats::*field) {
  return rpc::resilience_report(only(field));
}

std::string report_server_gate(std::uint64_t RpcStats::*field) {
  const RpcStats server = only(field);
  return rpc::resilience_report(RpcStats{}, nullptr, &server);
}

std::string report_fault_gate(std::uint64_t net::FaultCounters::*field) {
  net::FaultCounters faults{};
  faults.*field = 2;
  return rpc::resilience_report(RpcStats{}, &faults);
}

// ---- Expected reports (rendered by the pre-table report) -------------------------

constexpr const char* kFull = R"(| Counter                          | Value | 
|----------------------------------|-------|
| calls sent                       | 1     | 
| timeouts                         | 3     | 
| transport errors                 | 4     | 
| retries                          | 5     | 
| socket fallbacks                 | 6     | 
| busy rejections                  | 7     | 
| nack fallbacks                   | 8     | 
| backoff waits                    | 2     | 
| backoff total (us)               | 79.8  | 
| batches sent                     | 17    | 
| batched calls                    | 18    | 
| batch flushes (full)             | 19    | 
| batch flushes (linger)           | 20    | 
| batch flushes (immediate)        | 21    | 
| connections opened               | 26    | 
| threshold mismatches             | 27    | 
| reconnects (peer closed)         | 28    | 
| reconnects (qp error)            | 29    | 
| reconnects (idle evicted)        | 30    | 
| reconnects (fault injected)      | 31    | 
| calls replayed                   | 32    | 
| ud datagrams sent                | 45    | 
| ud responses received            | 46    | 
| ud rc fallbacks                  | 47    | 
| onesided reads                   | 52    | 
| onesided misses                  | 53    | 
| onesided conflict fallbacks      | 54    | 
| onesided stale refreshes         | 55    | 
| onesided fallbacks               | 56    | 
| session cold restarts            | 33    | 
| streams opened                   | 59    | 
| stream chunks                    | 60    | 
| stream bytes                     | 61    | 
| stream credit stalls             | 62    | 
| stream fallbacks                 | 63    | 
| stream pool denied               | 64    | 
| stream aborts                    | 65    | 
| stream deadline expiries         | 66    | 
| fault drops                      | 301   | 
| fault spikes                     | 302   | 
| fault outage hits                | 303   | 
| fault true losses                | 304   | 
| fault kills                      | 305   | 
| fault datagram losses            | 306   | 
| server calls shed                | 109   | 
| server calls expired             | 110   | 
| server responses expired         | 111   | 
| server dedup hits                | 112   | 
| server dedup in-flight           | 113   | 
| server dropped on stop           | 114   | 
| server pool nacks                | 115   | 
| server queue depth peak          | 116   | 
| server batches received          | 122   | 
| server batched calls             | 123   | 
| server response batches          | 124   | 
| server batched responses         | 125   | 
| server srq posted                | 139   | 
| server srq refills               | 140   | 
| server srq rnr stalls            | 141   | 
| server srq evictions             | 142   | 
| server recv ring bytes peak      | 143   | 
| server responses dropped on stop | 144   | 
| server ud calls received         | 148   | 
| server ud responses sent         | 149   | 
| server ud rx dropped             | 150   | 
| server ud oversize responses     | 151   | 
| server onesided published        | 157   | 
| server onesided reexports        | 158   | 
| server sessions opened           | 134   | 
| server sessions expired          | 135   | 
| server sessions evicted          | 136   | 
| server session rejections        | 137   | 
| server session table peak        | 138   | 
| server shards                    | 3     | 
| shard 0 conns                    | 201   | 
| shard 0 dispatched               | 202   | 
| shard 0 queue peak               | 203   | 
| shard 0 dropped                  | 204   | 
| shard 1 conns                    | 211   | 
| shard 1 dispatched               | 212   | 
| shard 1 queue peak               | 213   | 
| shard 1 dropped                  | 214   | 
| shard 2 conns                    | 227   | 
| shard 2 dispatched               | 228   | 
| shard 2 queue peak               | 229   | 
| shard 2 dropped                  | 230   | 
| shard dispatch spread (max-min)  | 26    | 
)";

constexpr const char* kZeroClient = R"(| Counter                   | Value | 
|---------------------------|-------|
| calls sent                | 0     | 
| timeouts                  | 0     | 
| transport errors          | 0     | 
| retries                   | 0     | 
| socket fallbacks          | 0     | 
| busy rejections           | 0     | 
| nack fallbacks            | 0     | 
| backoff waits             | 0     | 
| backoff total (us)        | 0.0   | 
| batches sent              | 0     | 
| batched calls             | 0     | 
| batch flushes (full)      | 0     | 
| batch flushes (linger)    | 0     | 
| batch flushes (immediate) | 0     | 
| connections opened        | 0     | 
| threshold mismatches      | 0     | 
| streams opened            | 0     | 
| stream chunks             | 0     | 
| stream bytes              | 0     | 
| stream credit stalls      | 0     | 
| stream fallbacks          | 0     | 
| stream pool denied        | 0     | 
| stream aborts             | 0     | 
| stream deadline expiries  | 0     | 
)";

constexpr const char* kZeroAll = R"(| Counter                          | Value | 
|----------------------------------|-------|
| calls sent                       | 0     | 
| timeouts                         | 0     | 
| transport errors                 | 0     | 
| retries                          | 0     | 
| socket fallbacks                 | 0     | 
| busy rejections                  | 0     | 
| nack fallbacks                   | 0     | 
| backoff waits                    | 0     | 
| backoff total (us)               | 0.0   | 
| batches sent                     | 0     | 
| batched calls                    | 0     | 
| batch flushes (full)             | 0     | 
| batch flushes (linger)           | 0     | 
| batch flushes (immediate)        | 0     | 
| connections opened               | 0     | 
| threshold mismatches             | 0     | 
| streams opened                   | 0     | 
| stream chunks                    | 0     | 
| stream bytes                     | 0     | 
| stream credit stalls             | 0     | 
| stream fallbacks                 | 0     | 
| stream pool denied               | 0     | 
| stream aborts                    | 0     | 
| stream deadline expiries         | 0     | 
| fault drops                      | 0     | 
| fault spikes                     | 0     | 
| fault outage hits                | 0     | 
| fault true losses                | 0     | 
| server calls shed                | 0     | 
| server calls expired             | 0     | 
| server responses expired         | 0     | 
| server dedup hits                | 0     | 
| server dedup in-flight           | 0     | 
| server dropped on stop           | 0     | 
| server pool nacks                | 0     | 
| server queue depth peak          | 0     | 
| server batches received          | 0     | 
| server batched calls             | 0     | 
| server response batches          | 0     | 
| server batched responses         | 0     | 
| server srq posted                | 0     | 
| server srq refills               | 0     | 
| server srq rnr stalls            | 0     | 
| server srq evictions             | 0     | 
| server recv ring bytes peak      | 0     | 
| server responses dropped on stop | 0     | 
)";

constexpr const char* kReconnect = R"(| Counter                     | Value | 
|-----------------------------|-------|
| calls sent                  | 0     | 
| timeouts                    | 0     | 
| transport errors            | 0     | 
| retries                     | 0     | 
| socket fallbacks            | 0     | 
| busy rejections             | 0     | 
| nack fallbacks              | 0     | 
| backoff waits               | 0     | 
| backoff total (us)          | 0.0   | 
| batches sent                | 0     | 
| batched calls               | 0     | 
| batch flushes (full)        | 0     | 
| batch flushes (linger)      | 0     | 
| batch flushes (immediate)   | 0     | 
| connections opened          | 0     | 
| threshold mismatches        | 0     | 
| reconnects (peer closed)    | 0     | 
| reconnects (qp error)       | 0     | 
| reconnects (idle evicted)   | 0     | 
| reconnects (fault injected) | 0     | 
| calls replayed              | 3     | 
| streams opened              | 0     | 
| stream chunks               | 0     | 
| stream bytes                | 0     | 
| stream credit stalls        | 0     | 
| stream fallbacks            | 0     | 
| stream pool denied          | 0     | 
| stream aborts               | 0     | 
| stream deadline expiries    | 0     | 
)";

constexpr const char* kUdClient = R"(| Counter                   | Value | 
|---------------------------|-------|
| calls sent                | 0     | 
| timeouts                  | 0     | 
| transport errors          | 0     | 
| retries                   | 0     | 
| socket fallbacks          | 0     | 
| busy rejections           | 0     | 
| nack fallbacks            | 0     | 
| backoff waits             | 0     | 
| backoff total (us)        | 0.0   | 
| batches sent              | 0     | 
| batched calls             | 0     | 
| batch flushes (full)      | 0     | 
| batch flushes (linger)    | 0     | 
| batch flushes (immediate) | 0     | 
| connections opened        | 0     | 
| threshold mismatches      | 0     | 
| ud datagrams sent         | 0     | 
| ud responses received     | 0     | 
| ud rc fallbacks           | 3     | 
| streams opened            | 0     | 
| stream chunks             | 0     | 
| stream bytes              | 0     | 
| stream credit stalls      | 0     | 
| stream fallbacks          | 0     | 
| stream pool denied        | 0     | 
| stream aborts             | 0     | 
| stream deadline expiries  | 0     | 
)";

constexpr const char* kOneSidedClient = R"(| Counter                     | Value | 
|-----------------------------|-------|
| calls sent                  | 0     | 
| timeouts                    | 0     | 
| transport errors            | 0     | 
| retries                     | 0     | 
| socket fallbacks            | 0     | 
| busy rejections             | 0     | 
| nack fallbacks              | 0     | 
| backoff waits               | 0     | 
| backoff total (us)          | 0.0   | 
| batches sent                | 0     | 
| batched calls               | 0     | 
| batch flushes (full)        | 0     | 
| batch flushes (linger)      | 0     | 
| batch flushes (immediate)   | 0     | 
| connections opened          | 0     | 
| threshold mismatches        | 0     | 
| onesided reads              | 0     | 
| onesided misses             | 0     | 
| onesided conflict fallbacks | 0     | 
| onesided stale refreshes    | 0     | 
| onesided fallbacks          | 3     | 
| streams opened              | 0     | 
| stream chunks               | 0     | 
| stream bytes                | 0     | 
| stream credit stalls        | 0     | 
| stream fallbacks            | 0     | 
| stream pool denied          | 0     | 
| stream aborts               | 0     | 
| stream deadline expiries    | 0     | 
)";

constexpr const char* kColdRestart = R"(| Counter                   | Value | 
|---------------------------|-------|
| calls sent                | 0     | 
| timeouts                  | 0     | 
| transport errors          | 0     | 
| retries                   | 0     | 
| socket fallbacks          | 0     | 
| busy rejections           | 0     | 
| nack fallbacks            | 0     | 
| backoff waits             | 0     | 
| backoff total (us)        | 0.0   | 
| batches sent              | 0     | 
| batched calls             | 0     | 
| batch flushes (full)      | 0     | 
| batch flushes (linger)    | 0     | 
| batch flushes (immediate) | 0     | 
| connections opened        | 0     | 
| threshold mismatches      | 0     | 
| session cold restarts     | 3     | 
| streams opened            | 0     | 
| stream chunks             | 0     | 
| stream bytes              | 0     | 
| stream credit stalls      | 0     | 
| stream fallbacks          | 0     | 
| stream pool denied        | 0     | 
| stream aborts             | 0     | 
| stream deadline expiries  | 0     | 
)";

constexpr const char* kUdServer = R"(| Counter                          | Value | 
|----------------------------------|-------|
| calls sent                       | 0     | 
| timeouts                         | 0     | 
| transport errors                 | 0     | 
| retries                          | 0     | 
| socket fallbacks                 | 0     | 
| busy rejections                  | 0     | 
| nack fallbacks                   | 0     | 
| backoff waits                    | 0     | 
| backoff total (us)               | 0.0   | 
| batches sent                     | 0     | 
| batched calls                    | 0     | 
| batch flushes (full)             | 0     | 
| batch flushes (linger)           | 0     | 
| batch flushes (immediate)        | 0     | 
| connections opened               | 0     | 
| threshold mismatches             | 0     | 
| streams opened                   | 0     | 
| stream chunks                    | 0     | 
| stream bytes                     | 0     | 
| stream credit stalls             | 0     | 
| stream fallbacks                 | 0     | 
| stream pool denied               | 0     | 
| stream aborts                    | 0     | 
| stream deadline expiries         | 0     | 
| server calls shed                | 0     | 
| server calls expired             | 0     | 
| server responses expired         | 0     | 
| server dedup hits                | 0     | 
| server dedup in-flight           | 0     | 
| server dropped on stop           | 0     | 
| server pool nacks                | 0     | 
| server queue depth peak          | 0     | 
| server batches received          | 0     | 
| server batched calls             | 0     | 
| server response batches          | 0     | 
| server batched responses         | 0     | 
| server srq posted                | 0     | 
| server srq refills               | 0     | 
| server srq rnr stalls            | 0     | 
| server srq evictions             | 0     | 
| server recv ring bytes peak      | 0     | 
| server responses dropped on stop | 0     | 
| server ud calls received         | 0     | 
| server ud responses sent         | 0     | 
| server ud rx dropped             | 0     | 
| server ud oversize responses     | 3     | 
)";

constexpr const char* kOneSidedServer = R"(| Counter                          | Value | 
|----------------------------------|-------|
| calls sent                       | 0     | 
| timeouts                         | 0     | 
| transport errors                 | 0     | 
| retries                          | 0     | 
| socket fallbacks                 | 0     | 
| busy rejections                  | 0     | 
| nack fallbacks                   | 0     | 
| backoff waits                    | 0     | 
| backoff total (us)               | 0.0   | 
| batches sent                     | 0     | 
| batched calls                    | 0     | 
| batch flushes (full)             | 0     | 
| batch flushes (linger)           | 0     | 
| batch flushes (immediate)        | 0     | 
| connections opened               | 0     | 
| threshold mismatches             | 0     | 
| streams opened                   | 0     | 
| stream chunks                    | 0     | 
| stream bytes                     | 0     | 
| stream credit stalls             | 0     | 
| stream fallbacks                 | 0     | 
| stream pool denied               | 0     | 
| stream aborts                    | 0     | 
| stream deadline expiries         | 0     | 
| server calls shed                | 0     | 
| server calls expired             | 0     | 
| server responses expired         | 0     | 
| server dedup hits                | 0     | 
| server dedup in-flight           | 0     | 
| server dropped on stop           | 0     | 
| server pool nacks                | 0     | 
| server queue depth peak          | 0     | 
| server batches received          | 0     | 
| server batched calls             | 0     | 
| server response batches          | 0     | 
| server batched responses         | 0     | 
| server srq posted                | 0     | 
| server srq refills               | 0     | 
| server srq rnr stalls            | 0     | 
| server srq evictions             | 0     | 
| server recv ring bytes peak      | 0     | 
| server responses dropped on stop | 0     | 
| server onesided published        | 0     | 
| server onesided reexports        | 3     | 
)";

constexpr const char* kSessions = R"(| Counter                          | Value | 
|----------------------------------|-------|
| calls sent                       | 0     | 
| timeouts                         | 0     | 
| transport errors                 | 0     | 
| retries                          | 0     | 
| socket fallbacks                 | 0     | 
| busy rejections                  | 0     | 
| nack fallbacks                   | 0     | 
| backoff waits                    | 0     | 
| backoff total (us)               | 0.0   | 
| batches sent                     | 0     | 
| batched calls                    | 0     | 
| batch flushes (full)             | 0     | 
| batch flushes (linger)           | 0     | 
| batch flushes (immediate)        | 0     | 
| connections opened               | 0     | 
| threshold mismatches             | 0     | 
| streams opened                   | 0     | 
| stream chunks                    | 0     | 
| stream bytes                     | 0     | 
| stream credit stalls             | 0     | 
| stream fallbacks                 | 0     | 
| stream pool denied               | 0     | 
| stream aborts                    | 0     | 
| stream deadline expiries         | 0     | 
| server calls shed                | 0     | 
| server calls expired             | 0     | 
| server responses expired         | 0     | 
| server dedup hits                | 0     | 
| server dedup in-flight           | 0     | 
| server dropped on stop           | 0     | 
| server pool nacks                | 0     | 
| server queue depth peak          | 0     | 
| server batches received          | 0     | 
| server batched calls             | 0     | 
| server response batches          | 0     | 
| server batched responses         | 0     | 
| server srq posted                | 0     | 
| server srq refills               | 0     | 
| server srq rnr stalls            | 0     | 
| server srq evictions             | 0     | 
| server recv ring bytes peak      | 0     | 
| server responses dropped on stop | 0     | 
| server sessions opened           | 0     | 
| server sessions expired          | 0     | 
| server sessions evicted          | 0     | 
| server session rejections        | 0     | 
| server session table peak        | 3     | 
)";

constexpr const char* kKills = R"(| Counter                   | Value | 
|---------------------------|-------|
| calls sent                | 0     | 
| timeouts                  | 0     | 
| transport errors          | 0     | 
| retries                   | 0     | 
| socket fallbacks          | 0     | 
| busy rejections           | 0     | 
| nack fallbacks            | 0     | 
| backoff waits             | 0     | 
| backoff total (us)        | 0.0   | 
| batches sent              | 0     | 
| batched calls             | 0     | 
| batch flushes (full)      | 0     | 
| batch flushes (linger)    | 0     | 
| batch flushes (immediate) | 0     | 
| connections opened        | 0     | 
| threshold mismatches      | 0     | 
| streams opened            | 0     | 
| stream chunks             | 0     | 
| stream bytes              | 0     | 
| stream credit stalls      | 0     | 
| stream fallbacks          | 0     | 
| stream pool denied        | 0     | 
| stream aborts             | 0     | 
| stream deadline expiries  | 0     | 
| fault drops               | 0     | 
| fault spikes              | 0     | 
| fault outage hits         | 0     | 
| fault true losses         | 0     | 
| fault kills               | 2     | 
)";

constexpr const char* kDatagramLosses = R"(| Counter                   | Value | 
|---------------------------|-------|
| calls sent                | 0     | 
| timeouts                  | 0     | 
| transport errors          | 0     | 
| retries                   | 0     | 
| socket fallbacks          | 0     | 
| busy rejections           | 0     | 
| nack fallbacks            | 0     | 
| backoff waits             | 0     | 
| backoff total (us)        | 0.0   | 
| batches sent              | 0     | 
| batched calls             | 0     | 
| batch flushes (full)      | 0     | 
| batch flushes (linger)    | 0     | 
| batch flushes (immediate) | 0     | 
| connections opened        | 0     | 
| threshold mismatches      | 0     | 
| streams opened            | 0     | 
| stream chunks             | 0     | 
| stream bytes              | 0     | 
| stream credit stalls      | 0     | 
| stream fallbacks          | 0     | 
| stream pool denied        | 0     | 
| stream aborts             | 0     | 
| stream deadline expiries  | 0     | 
| fault drops               | 0     | 
| fault spikes              | 0     | 
| fault outage hits         | 0     | 
| fault true losses         | 0     | 
| fault datagram losses     | 2     | 
)";


// ---- Golden reports -------------------------------------------------------------

TEST(ResilienceReportGolden, EveryFieldSet) { EXPECT_EQ(report_full(), kFull); }

TEST(ResilienceReportGolden, AllZero) {
  EXPECT_EQ(report_zero_client(), kZeroClient);
  EXPECT_EQ(report_zero_all(), kZeroAll);
}

TEST(ResilienceReportGolden, EachGateOpensAlone) {
  EXPECT_EQ(report_client_gate(&RpcStats::calls_replayed), kReconnect);
  EXPECT_EQ(report_client_gate(&RpcStats::ud_rc_fallbacks), kUdClient);
  EXPECT_EQ(report_client_gate(&RpcStats::onesided_fallbacks), kOneSidedClient);
  EXPECT_EQ(report_client_gate(&RpcStats::session_cold_restarts), kColdRestart);
  EXPECT_EQ(report_server_gate(&RpcStats::ud_resp_oversize), kUdServer);
  EXPECT_EQ(report_server_gate(&RpcStats::onesided_reexports), kOneSidedServer);
  EXPECT_EQ(report_server_gate(&RpcStats::session_table_peak), kSessions);
  EXPECT_EQ(report_fault_gate(&net::FaultCounters::kills), kKills);
  EXPECT_EQ(report_fault_gate(&net::FaultCounters::datagram_losses), kDatagramLosses);
}

// Any one counter of a gated group opens the whole group: the report grows
// by exactly that group's printed rows.
TEST(ResilienceReportGolden, AnyCounterOpensItsGroup) {
  const auto lines = [](const std::string& s) { return std::count(s.begin(), s.end(), '\n'); };
  for (const rpc::CounterRow& r : rpc::kCounterRows) {
    if (!rpc::gated(r.group)) continue;
    long group_rows = 0;
    for (const rpc::CounterRow& o : rpc::kCounterRows) group_rows += o.group == r.group;
    const bool server = r.group >= rpc::CounterGroup::kServer;
    const RpcStats zero;
    const std::string base =
        server ? rpc::resilience_report(RpcStats{}, nullptr, &zero) : report_zero_client();
    const std::string one = server ? report_server_gate(r.field) : report_client_gate(r.field);
    EXPECT_EQ(lines(one), lines(base) + group_rows) << r.label;
    EXPECT_NE(one.find(r.label), std::string::npos) << r.label;
  }
}

// ---- The table ------------------------------------------------------------------

TEST(CounterTable, EveryCounterHasExactlyOneRow) {
  ASSERT_EQ(rpc::kCounterRows.size(), std::size(kAllCounters));
  for (std::uint64_t RpcStats::*f : kAllCounters) {
    int rows = 0;
    for (const rpc::CounterRow& r : rpc::kCounterRows) rows += r.field == f;
    EXPECT_EQ(rows, 1);
  }
  std::set<std::string> labels;
  for (const rpc::CounterRow& r : rpc::kCounterRows) {
    if (r.label == nullptr) continue;
    EXPECT_TRUE(labels.insert(r.label).second) << r.label;
  }
}

TEST(CounterTable, MergeSumsCountersAndKeepsPeaks) {
  RpcStats a = filled(1);
  const RpcStats b = filled(1000);
  a.merge(b);
  const RpcStats a0 = filled(1);
  for (const rpc::CounterRow& r : rpc::kCounterRows) {
    const std::uint64_t want = r.merge == rpc::CounterMerge::kPeak ? b.*r.field
                                                                 : a0.*r.field + b.*r.field;
    EXPECT_EQ(a.*r.field, want) << (r.label ? r.label : "calls handled");
  }
  EXPECT_EQ(a.backoff_us.count(), 4u);
}

// Multi-client reports merge every client's stats; calls_sent used to be
// left out of the merge, so such reports read "calls sent | 0".
TEST(CounterTable, MergedClientsReportTheirCallsSent) {
  RpcStats c1, c2, merged;
  c1.calls_sent = 5;
  c2.calls_sent = 7;
  merged.merge(c1);
  merged.merge(c2);
  EXPECT_EQ(merged.calls_sent, 12u);
  EXPECT_NE(rpc::resilience_report(merged).find("| calls sent                | 12    |"),
            std::string::npos);
}

struct FakePipeline {
  RpcStats s;
  ShardCounters c;
  const RpcStats& stats() const { return s; }
  const ShardCounters& counters() const { return c; }
};
struct FakeShard {
  FakePipeline pipeline;
};

TEST(CounterTable, FoldRebuildsServerRowsFromShards) {
  std::vector<std::unique_ptr<FakeShard>> shards;
  for (std::uint64_t base : {1, 500}) {
    shards.push_back(std::make_unique<FakeShard>());
    shards.back()->pipeline.s = filled(base);
    shards.back()->pipeline.c = shard(base);
  }
  RpcStats view;
  view.threshold_mismatches = 9;  // written directly on the server view
  view.calls_shed = 1234;         // stale: the fold overwrites it
  for (int pass = 0; pass < 2; ++pass) {
    view.fold_shards(shards);
    RpcStats want;
    want.merge(shards[0]->pipeline.s);
    want.merge(shards[1]->pipeline.s);
    for (const rpc::CounterRow& r : rpc::kCounterRows) {
      const bool server = r.group >= rpc::CounterGroup::kServer;
      const std::uint64_t expect =
          server ? want.*r.field : (r.field == &RpcStats::threshold_mismatches ? 9 : 0);
      EXPECT_EQ(view.*r.field, expect) << (r.label ? r.label : "calls handled");
    }
    ASSERT_EQ(view.shards.size(), 2u);
    EXPECT_EQ(view.shards[1].dispatched, 501u);
    EXPECT_EQ(view.backoff_us.count(), 0u);
  }
}

TEST(MethodProfile, MergeCombinesEverySummaryAndTheSizeSequence) {
  rpc::MethodProfile a, b;
  a.serialize_us.add(1.0);
  b.serialize_us.add(3.0);
  b.msg_bytes.add(64);
  a.size_sequence = {1, 2};
  b.size_sequence = {3};
  b.sequence_dropped = 4;
  a.merge(b);
  EXPECT_EQ(a.serialize_us.count(), 2u);
  EXPECT_DOUBLE_EQ(a.serialize_us.mean(), 2.0);
  EXPECT_EQ(a.msg_bytes.count(), 1u);
  EXPECT_EQ(a.size_sequence, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(a.sequence_dropped, 4u);
}

}  // namespace
}  // namespace rpcoib
