// Per-layer counts read from the simulator's public stats after a run.
//
// Every workload fills the same keys (zero where a layer is not on its
// path), snapshotting before and after the measured phase; main.cpp turns
// the deltas into the per-layer metrics.
#pragma once

#include <algorithm>
#include <map>
#include <string>

#include "rpc/stats.hpp"
#include "rpcoib/buffer_pool.hpp"

namespace perfbench {

using Counts = std::map<std::string, double>;

/// Keys that are gauges (high-water marks, totals held), not event counts:
/// the measured-phase value is the value after the run, not a delta.
inline bool is_gauge(const std::string& key) {
  return key == "rpc.queue_depth_peak" || key == "rpcoib.registered_bytes";
}

inline Counts delta(const Counts& after, const Counts& before) {
  Counts d = after;
  for (auto& [k, v] : d) {
    auto it = before.find(k);
    if (!is_gauge(k) && it != before.end()) v -= it->second;
  }
  return d;
}

inline Counts empty_counts() {
  Counts c;
  for (const char* k :
       {"rpc.calls", "rpc.mem_adjustments", "rpc.queue_depth_peak", "rpc.retries",
        "rpcoib.history_hits", "rpcoib.history_misses", "rpcoib.demand_allocs",
        "rpcoib.registered_bytes", "stream.chunks", "stream.bytes", "stream.credit_stalls",
        "stream.fallbacks", "hdfs.nn_calls", "hbase.flushes", "hbase.gets", "hbase.get_hits"}) {
    c[k] = 0;
  }
  return c;
}

/// Caller-side view: retries, timeouts and busy rejections, plus the
/// bulk-stream counters (a StreamHub keeps its own RpcStats).
inline void add_client_stats(Counts& c, const rpcoib::rpc::RpcStats& st) {
  c["rpc.retries"] += static_cast<double>(st.retries + st.timeouts + st.busy_rejections);
  c["stream.chunks"] += static_cast<double>(st.stream_chunks);
  c["stream.bytes"] += static_cast<double>(st.stream_bytes);
  c["stream.credit_stalls"] += static_cast<double>(st.stream_credit_stalls);
  c["stream.fallbacks"] += static_cast<double>(st.stream_fallbacks);
}

inline void add_server_stats(Counts& c, const rpcoib::rpc::RpcStats& st) {
  c["rpc.queue_depth_peak"] =
      std::max(c["rpc.queue_depth_peak"], static_cast<double>(st.queue_depth_peak));
  c["rpc.retries"] += static_cast<double>(st.calls_shed + st.dedup_hits);
}

/// Per-<protocol, method> profiles (Table I): calls and Algorithm 1
/// memory adjustments. Calls of `nn_protocol` also count as NameNode calls.
inline void add_profiles(Counts& c,
                         const std::map<rpcoib::rpc::MethodKey, rpcoib::rpc::MethodProfile>& p,
                         const std::string& nn_protocol = "") {
  for (const auto& [key, prof] : p) {
    const double calls = static_cast<double>(prof.total_us.count());
    c["rpc.calls"] += calls;
    c["rpc.mem_adjustments"] += prof.mem_adjustments.sum();
    if (!nn_protocol.empty() && key.protocol == nn_protocol) c["hdfs.nn_calls"] += calls;
  }
}

inline void add_pool_stats(Counts& c, const rpcoib::oib::PoolStats& p) {
  c["rpcoib.history_hits"] += static_cast<double>(p.history_hits);
  c["rpcoib.history_misses"] += static_cast<double>(p.history_misses);
  c["rpcoib.demand_allocs"] += static_cast<double>(p.demand_allocations);
  c["rpcoib.registered_bytes"] += static_cast<double>(p.registered_bytes);
}

}  // namespace perfbench
