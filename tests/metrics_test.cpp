// Tests for the metrics library: Welford summaries, merging, histogram
// quantiles, table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "metrics/metrics.hpp"
#include "metrics/table.hpp"

namespace rpcoib::metrics {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZeroed) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10 + i % 7;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmptySides) {
  Summary a, empty;
  a.add(3.0);
  a.add(5.0);
  Summary copy = a;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), 2u);
  Summary e2;
  e2.merge(a);
  EXPECT_EQ(e2.count(), 2u);
  EXPECT_DOUBLE_EQ(e2.mean(), 4.0);
}

TEST(Histogram, QuantilesBracketData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_GE(h.quantile(0.5), 256.0);   // log2 buckets: coarse but ordered
  EXPECT_LE(h.quantile(0.5), 1000.0);
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.99), 1000.0);
  EXPECT_EQ(h.summary().count(), 1000u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.add(5);
  h.reset();
  EXPECT_EQ(h.summary().count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Table, AlignsColumnsAndFormatsNumbers) {
  Table t({"A", "LongHeader"});
  t.row({"xx", Table::num(3.14159, 2)});
  t.row({"y", Table::pct(12.345)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("12.3%"), std::string::npos);
  EXPECT_NE(out.find("LongHeader"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"A", "B", "C"});
  t.row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

}  // namespace
}  // namespace rpcoib::metrics
