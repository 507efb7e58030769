// Lightweight metrics used throughout the stack.
//
// Every instrumented quantity in the reproduction — memory-adjustment
// counts (Table I), buffer-allocation time ratio (Fig. 1), message-size
// traces (Fig. 3), latency/throughput (Fig. 5) — flows through these types,
// so the bench harnesses only aggregate and print.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace rpcoib::metrics {

/// Running summary of a stream of samples: count / sum / min / max / mean /
/// variance (Welford).
class Summary {
 public:
  void add(double v) {
    ++n_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
  }

  void merge(const Summary& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const std::uint64_t n = n_ + o.n_;
    const double delta = o.mean_ - mean_;
    const double mean = mean_ + delta * static_cast<double>(o.n_) / static_cast<double>(n);
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(o.n_) /
                       static_cast<double>(n);
    mean_ = mean;
    n_ = n;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0; }
  double min() const { return n_ ? min_ : 0; }
  double max() const { return n_ ? max_ : 0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0; }
  double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = Summary(); }

  bool operator==(const Summary&) const = default;

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log2-bucketed histogram with percentile estimation, for latency
/// distributions. Values are arbitrary doubles >= 0.
class Histogram {
 public:
  Histogram() : buckets_(kBuckets, 0) {}

  void add(double v) {
    summary_.add(v);
    ++buckets_[bucket_for(v)];
  }

  /// Approximate p-quantile (0..1) using bucket interpolation.
  double quantile(double q) const {
    const std::uint64_t n = summary_.count();
    if (n == 0) return 0;
    const double target = q * static_cast<double>(n);
    double cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const double next = cum + static_cast<double>(buckets_[i]);
      if (next >= target) {
        const double lo = bucket_lo(i);
        const double hi = bucket_hi(i);
        const double frac = buckets_[i] ? (target - cum) / static_cast<double>(buckets_[i]) : 0;
        return std::clamp(lo + frac * (hi - lo), summary_.min(), summary_.max());
      }
      cum = next;
    }
    return summary_.max();
  }

  const Summary& summary() const { return summary_; }
  void reset() {
    summary_.reset();
    std::fill(buckets_.begin(), buckets_.end(), 0);
  }

 private:
  static constexpr std::size_t kBuckets = 64;

  static std::size_t bucket_for(double v) {
    if (v < 1.0) return 0;
    const int e = std::ilogb(v);
    return std::min<std::size_t>(static_cast<std::size_t>(e) + 1, kBuckets - 1);
  }
  static double bucket_lo(std::size_t i) { return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1); }
  static double bucket_hi(std::size_t i) { return std::ldexp(1.0, static_cast<int>(i)); }

  Summary summary_;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace rpcoib::metrics
