#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace akadns {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(EmpiricalDistribution, QuantilesUnweighted) {
  EmpiricalDistribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(d.median(), 50.0);
}

TEST(EmpiricalDistribution, WeightedQuantile) {
  EmpiricalDistribution d;
  d.add(1.0, 1.0);
  d.add(10.0, 99.0);
  // 99% of weight sits at 10.
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.005), 1.0);
}

TEST(EmpiricalDistribution, CdfAt) {
  EmpiricalDistribution d;
  for (double v : {1.0, 2.0, 3.0, 4.0}) d.add(v);
  EXPECT_DOUBLE_EQ(d.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf_at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(d.fraction_above(2.0), 0.5);
}

TEST(EmpiricalDistribution, ZeroWeightIgnored) {
  EmpiricalDistribution d;
  d.add(5.0, 0.0);
  EXPECT_TRUE(d.empty());
}

TEST(EmpiricalDistribution, QuantileOfEmptyThrows) {
  EmpiricalDistribution d;
  EXPECT_THROW(d.quantile(0.5), std::logic_error);
}

TEST(LogHistogram, EmptyQuantilesAreZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, SingleSampleEveryQuantileIsTheSample) {
  LogHistogram h;
  h.add(1234.5);
  EXPECT_EQ(h.count(), 1u);
  // The clamp to [min, max] makes every quantile exact for one sample.
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 1234.5) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 1234.5);
  EXPECT_DOUBLE_EQ(h.min(), 1234.5);
  EXPECT_DOUBLE_EQ(h.max(), 1234.5);
}

TEST(LogHistogram, MergeWithEmptyIsIdentityBothWays) {
  LogHistogram filled, empty;
  for (double v : {150.0, 900.0, 44000.0}) filled.add(v);
  const std::uint64_t count = filled.count();
  const double p50 = filled.quantile(0.5);

  filled.merge(empty);  // rhs empty: no-op
  EXPECT_EQ(filled.count(), count);
  EXPECT_DOUBLE_EQ(filled.quantile(0.5), p50);
  EXPECT_DOUBLE_EQ(filled.min(), 150.0);
  EXPECT_DOUBLE_EQ(filled.max(), 44000.0);

  empty.merge(filled);  // lhs empty: adopts rhs wholesale, incl. min/max
  EXPECT_EQ(empty.count(), count);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), p50);
  EXPECT_DOUBLE_EQ(empty.min(), 150.0);
  EXPECT_DOUBLE_EQ(empty.max(), 44000.0);
}

TEST(LogHistogram, MergeIsCommutative) {
  LogHistogram a, b, ab, ba;
  for (int i = 1; i <= 400; ++i) a.add(100.0 + i * 17.0);
  for (int i = 1; i <= 250; ++i) b.add(5000.0 + i * 113.0);
  ab = a;
  ab.merge(b);
  ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
  EXPECT_DOUBLE_EQ(ab.sum(), ba.sum());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q)) << "q=" << q;
  }
  ASSERT_EQ(ab.bin_count(), ba.bin_count());
  for (std::size_t i = 0; i < ab.bin_count(); ++i) {
    EXPECT_EQ(ab.bucket(i), ba.bucket(i)) << "bucket " << i;
  }
}

TEST(LogHistogram, MergeMismatchedAxesThrows) {
  LogHistogram a(100.0, 1.08, 256);
  LogHistogram narrower(100.0, 1.08, 64);
  LogHistogram steeper(100.0, 1.5, 256);
  EXPECT_THROW(a.merge(narrower), std::invalid_argument);
  EXPECT_THROW(a.merge(steeper), std::invalid_argument);
}

TEST(LogHistogram, FromBucketsRoundTrips) {
  LogHistogram live;
  for (int i = 0; i < 1000; ++i) live.add(100.0 * (1 + i % 97));
  std::vector<std::uint64_t> counts(live.bin_count());
  for (std::size_t i = 0; i < live.bin_count(); ++i) counts[i] = live.bucket(i);
  const LogHistogram rebuilt = LogHistogram::from_buckets(
      live.lo(), live.growth(), std::move(counts), live.sum(), live.min(), live.max());
  EXPECT_EQ(rebuilt.count(), live.count());
  EXPECT_DOUBLE_EQ(rebuilt.sum(), live.sum());
  EXPECT_DOUBLE_EQ(rebuilt.min(), live.min());
  EXPECT_DOUBLE_EQ(rebuilt.max(), live.max());
  for (double q : {0.1, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(rebuilt.quantile(q), live.quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogram, AddNMatchesRepeatedAdd) {
  LogHistogram bulk, repeated;
  bulk.add_n(777.0, 5);
  bulk.add_n(777.0, 0);  // no-op, must not disturb min/max
  for (int i = 0; i < 5; ++i) repeated.add(777.0);
  EXPECT_EQ(bulk.count(), repeated.count());
  EXPECT_DOUBLE_EQ(bulk.sum(), repeated.sum());
  EXPECT_DOUBLE_EQ(bulk.min(), repeated.min());
  EXPECT_DOUBLE_EQ(bulk.quantile(0.5), repeated.quantile(0.5));
}

TEST(MassOfTop, SharesOfTheHeaviestItemsAtLeastOne) {
  const std::vector<double> weights{4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(mass_of_top(weights, 0.1), 0.4);  // ⌊0.1 · 4⌋ = 0: one item still counts
  EXPECT_DOUBLE_EQ(mass_of_top(weights, 0.25), 0.4);
  EXPECT_DOUBLE_EQ(mass_of_top(weights, 0.5), 0.7);
  EXPECT_DOUBLE_EQ(mass_of_top(weights, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(mass_of_top({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(mass_of_top({1.0, 3.0, 4.0, 2.0}, 0.5), 0.7);
}

TEST(RenderBar, Extremes) {
  EXPECT_EQ(render_bar(0.0, 10), "          ");
  EXPECT_EQ(render_bar(1.0, 10), "##########");
  EXPECT_EQ(render_bar(0.5, 10), "#####     ");
}

TEST(Fmt, FormatsPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

TEST(FmtCount, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(360000000000ULL), "360,000,000,000");
}

}  // namespace
}  // namespace akadns
