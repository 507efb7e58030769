// The RPCOIB_* environment readers the fault suites share, so a CI leg
// that sets one variable reshapes every suite the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "rpcoib/buffer_pool.hpp"

namespace rpcoib {

/// RPCOIB_CHAOS_SEED seeds every fault plan and chaos schedule (default 1),
/// so CI can sweep seeds: the same seed gives byte-identical behaviour.
inline std::uint64_t chaos_seed() {
  const char* env = std::getenv("RPCOIB_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// RPCOIB_SHARDS shards the servers' receive/dispatch chain
/// (server.shards) on both transports; `fallback` when unset. CI runs the
/// chaos matrix at 1 and 4, plus a striped-SRQ geometry (RPCOIB_SHARDS=4
/// RPCOIB_SRQ_DEPTH=8 RPCOIB_CHAOS_CONNS=64); the byte-identical-per-seed
/// assertions then cover the sharded pipelines too.
inline int chaos_shards(int fallback = 1) {
  const char* env = std::getenv("RPCOIB_SHARDS");
  return env != nullptr ? static_cast<int>(std::strtoul(env, nullptr, 10)) : fallback;
}

/// RPCOIB_SRQ_DEPTH resizes the RPCoIB server's shared receive ring (tiny
/// rings force the RNR/refill path under faults; 0 selects the legacy
/// per-connection rings). The watermark scales along.
inline oib::PoolConfig chaos_pool() {
  oib::PoolConfig p;
  if (const char* env = std::getenv("RPCOIB_SRQ_DEPTH")) {
    p.srq_depth = std::strtoull(env, nullptr, 10);
    p.srq_low_watermark = std::max<std::size_t>(1, p.srq_depth / 4);
  }
  return p;
}

}  // namespace rpcoib
