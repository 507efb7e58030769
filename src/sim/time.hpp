// Virtual time for the discrete-event simulator.
//
// All simulated clocks are 64-bit nanosecond counters. Helpers convert the
// units the paper reports (microseconds for RPC latency, seconds for job
// execution time) to and from the internal representation.
#pragma once

#include <cstdint>

namespace rpcoib::sim {

/// A point in virtual time, in nanoseconds since simulation start.
using Time = std::uint64_t;

/// A span of virtual time, in nanoseconds.
using Dur = std::uint64_t;

inline constexpr Dur kNanosecond = 1;
inline constexpr Dur kMicrosecond = 1000;
inline constexpr Dur kMillisecond = 1000 * 1000;
inline constexpr Dur kSecond = 1000ULL * 1000 * 1000;

constexpr Dur micros(std::uint64_t n) { return n * kMicrosecond; }
constexpr Dur millis(std::uint64_t n) { return n * kMillisecond; }
constexpr Dur seconds(std::uint64_t n) { return n * kSecond; }

/// Fractional durations; negative inputs clamp to zero so cost-model
/// arithmetic can never schedule into the past.
constexpr Dur from_us(double us) {
  return us <= 0 ? 0 : static_cast<Dur>(us * static_cast<double>(kMicrosecond) + 0.5);
}

constexpr double to_us(Time t) { return static_cast<double>(t) / static_cast<double>(kMicrosecond); }
constexpr double to_ms(Time t) { return static_cast<double>(t) / static_cast<double>(kMillisecond); }
constexpr double to_sec(Time t) { return static_cast<double>(t) / static_cast<double>(kSecond); }

}  // namespace rpcoib::sim
