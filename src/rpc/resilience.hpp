// Resilience metrics table: retry/timeout/fault counters rendered with the
// same fixed-width Table the bench binaries use. Returned as a string so
// the chaos suite can assert byte-identical reports across seeded runs.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>

#include "metrics/table.hpp"
#include "net/fault.hpp"
#include "rpc/stats.hpp"

namespace rpcoib::rpc {

/// Appends group `g`'s rows of `s` in kCounterRows order; a gated group
/// only when one of its counters is nonzero.
inline void counter_rows(metrics::Table& t, const RpcStats& s, CounterGroup g) {
  bool open = !gated(g);
  for (const CounterRow& r : kCounterRows) open = open || (r.group == g && s.*r.field != 0);
  if (!open) return;
  for (const CounterRow& r : kCounterRows) {
    if (r.group == g && r.label != nullptr) t.row({r.label, std::to_string(s.*r.field)});
  }
}

inline std::string resilience_report(const RpcStats& stats,
                                     const net::FaultCounters* faults = nullptr,
                                     const RpcStats* server = nullptr) {
  using enum CounterGroup;
  metrics::Table t({"Counter", "Value"});
  counter_rows(t, stats, kCalls);
  t.row({"backoff waits", std::to_string(stats.backoff_us.count())});
  t.row({"backoff total (us)", metrics::Table::num(stats.backoff_us.sum(), 1)});
  for (CounterGroup g : {kLink, kReconnect, kUdClient, kOneSidedClient, kColdRestart, kStream}) {
    counter_rows(t, stats, g);
  }
  if (faults != nullptr) {
    t.row({"fault drops", std::to_string(faults->drops)});
    t.row({"fault spikes", std::to_string(faults->spikes)});
    t.row({"fault outage hits", std::to_string(faults->outage_hits)});
    t.row({"fault true losses", std::to_string(faults->true_losses)});
    // Kills and datagram losses only appear when the plan fired one,
    // keeping kill-free, loss-free seeded reports byte-identical to earlier
    // builds.
    if (faults->kills > 0) t.row({"fault kills", std::to_string(faults->kills)});
    if (faults->datagram_losses > 0) {
      t.row({"fault datagram losses", std::to_string(faults->datagram_losses)});
    }
  }
  if (server != nullptr) {
    for (CounterGroup g : {kServer, kUdServer, kOneSidedServer, kSessions}) {
      counter_rows(t, *server, g);
    }
    if (!server->shards.empty()) {
      // Sharded receive path (server.shards): one row group per reader
      // shard plus an imbalance summary, all integer-valued so the chaos
      // suite's byte-identical assertions extend to the sharded layout.
      t.row({"server shards", std::to_string(server->shards.size())});
      std::uint64_t max_disp = 0, min_disp = ~std::uint64_t{0};
      for (std::size_t i = 0; i < server->shards.size(); ++i) {
        const ShardCounters& sc = server->shards[i];
        const std::string p = "shard " + std::to_string(i) + " ";
        t.row({p + "conns", std::to_string(sc.conns_assigned)});
        t.row({p + "dispatched", std::to_string(sc.dispatched)});
        t.row({p + "queue peak", std::to_string(sc.queued_peak)});
        t.row({p + "dropped", std::to_string(sc.dropped)});
        t.row({p + "steals", std::to_string(sc.steals)});
        t.row({p + "stolen", std::to_string(sc.stolen)});
        max_disp = std::max(max_disp, sc.dispatched);
        min_disp = std::min(min_disp, sc.dispatched);
      }
      t.row({"shard dispatch spread (max-min)", std::to_string(max_disp - min_disp)});
    }
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

}  // namespace rpcoib::rpc
