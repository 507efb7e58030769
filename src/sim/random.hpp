// Deterministic random number generation for the simulator.
//
// std::mt19937 + std::*_distribution are not guaranteed bit-identical
// across standard library implementations, so the simulator carries its own
// generator (xoshiro256++) and distributions. Same seed => same run,
// everywhere, which the DES determinism tests rely on.
#pragma once

#include <cmath>
#include <cstdint>

namespace rpcoib::sim {

/// splitmix64: used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : x_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t x_;
};

/// xoshiro256++ — fast, high-quality, deterministic PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Exponential with the given mean (> 0).
  double next_exponential(double mean) {
    double u = next_double();
    if (u >= 1.0) u = 0.9999999999999999;
    return -mean * std::log1p(-u);
  }

  /// Normal via Box–Muller (deterministic, uses two uniforms per pair).
  double next_normal(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double two_pi_u2 = 2.0 * 3.141592653589793 * u2;
    spare_ = mag * std::sin(two_pi_u2);
    have_spare_ = true;
    return mean + stddev * mag * std::cos(two_pi_u2);
  }

  /// Fork an independent stream (for per-node RNGs from one master seed).
  Rng fork() { return Rng(next_u64()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
  bool have_spare_ = false;
  double spare_ = 0;
};

/// Zipfian generator over [0, n), YCSB-style (Gray et al.), used by the
/// YCSB workload substrate for skewed key choice.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta = 0.99) : n_(n), theta_(theta) {
    zetan_ = zeta(n_, theta_);
    zeta2_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  std::uint64_t next(Rng& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const double v = 1.0 + static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
    std::uint64_t r = static_cast<std::uint64_t>(v) - 1;
    return r >= n_ ? n_ - 1 : r;
  }

 private:
  static double zeta(std::uint64_t n, double theta) {
    double sum = 0;
    for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_, zeta2_, alpha_, eta_;
};

}  // namespace rpcoib::sim
