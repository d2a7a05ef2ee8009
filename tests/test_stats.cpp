#include "src/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/util/rng.hpp"

namespace xlf {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(2.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStats, EmptySideNeverPollutesExtrema) {
  // All samples strictly positive: if the empty side's default
  // min_/max_ leaked into the merge, min() would come back 0.
  RunningStats a, b;
  a.add(4.0);
  a.add(9.0);
  a.merge(b);  // empty right side
  EXPECT_DOUBLE_EQ(a.min(), 4.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);

  RunningStats c;
  c.merge(a);  // empty left side
  EXPECT_DOUBLE_EQ(c.min(), 4.0);
  EXPECT_DOUBLE_EQ(c.max(), 9.0);

  // Same in the all-negative direction, where a polluted max() shows 0.
  RunningStats d, e;
  d.add(-7.0);
  d.add(-2.0);
  d.merge(e);
  EXPECT_DOUBLE_EQ(d.max(), -2.0);
  e.merge(d);
  EXPECT_DOUBLE_EQ(e.min(), -7.0);
  EXPECT_DOUBLE_EQ(e.max(), -2.0);
}

TEST(RunningStats, EmptyStatsReportNanExtrema) {
  // Documented convention for empty accumulators: a zero-request
  // stream (e.g. a write-only run's read-latency distribution) must
  // not report a fabricated 0.0 extremum into CSV reports — NaN marks
  // the side as unobserved.
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, NanExtremaClearOnFirstSample) {
  RunningStats s;
  EXPECT_TRUE(std::isnan(s.min()));
  s.add(-3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);

  // Merging a populated accumulator into an empty one also clears the
  // NaN state (the infinity identities, not the reported NaN, drive
  // the merge).
  RunningStats empty;
  empty.merge(s);
  EXPECT_DOUBLE_EQ(empty.min(), -3.0);
  EXPECT_DOUBLE_EQ(empty.max(), -3.0);
}

TEST(RunningStats, ChainedShardMergeMatchesSerial) {
  // The parallel replica reduction folds shards in index order, some
  // of which may be empty; the result must match one serial stream.
  Rng rng(77);
  RunningStats serial;
  std::vector<RunningStats> shards(8);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian(-1.0, 2.0);
    serial.add(x);
    shards[static_cast<std::size_t>(i) % 5].add(x);  // shards 5..7 stay empty
  }
  RunningStats merged;
  for (const RunningStats& shard : shards) merged.merge(shard);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), serial.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(merged.min(), serial.min());
  EXPECT_DOUBLE_EQ(merged.max(), serial.max());
}

TEST(Percentile, ExactValues) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Rmse, KnownValue) {
  EXPECT_DOUBLE_EQ(rmse({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_NEAR(rmse({0.0, 0.0}, {3.0, 4.0}), std::sqrt(12.5), 1e-12);
  EXPECT_THROW(rmse({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.5 * i - 7.0);
  }
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-10);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-8);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineStillClose) {
  Rng rng(11);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(i * 0.1);
    y.push_back(1.2 * i * 0.1 + 3.0 + rng.gaussian(0.0, 0.05));
  }
  const LinearFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 1.2, 0.02);
  EXPECT_NEAR(fit.intercept, 3.0, 0.05);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(QFunction, KnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.15865525, 1e-7);
  EXPECT_NEAR(q_function(3.0), 1.3498980e-3, 1e-9);
  // Q(4.7534) ~ 1e-6 — the BOL RBER operating zone.
  EXPECT_NEAR(q_function(4.7534), 1e-6, 2e-8);
}

TEST(QFunction, InverseRoundTrip) {
  for (double p : {0.4, 0.1, 1e-3, 1e-6, 1e-9, 1e-12}) {
    const double x = q_function_inverse(p);
    EXPECT_NEAR(q_function(x), p, p * 1e-6) << "p=" << p;
  }
  EXPECT_THROW(q_function_inverse(0.0), std::invalid_argument);
  EXPECT_THROW(q_function_inverse(1.0), std::invalid_argument);
}

TEST(LogSpace, EndpointsAndMonotonicity) {
  const auto grid = log_space(1e2, 1e6, 9);
  ASSERT_EQ(grid.size(), 9u);
  EXPECT_NEAR(grid.front(), 1e2, 1e-9);
  EXPECT_NEAR(grid.back(), 1e6, 1e-3);
  for (std::size_t i = 1; i < grid.size(); ++i) EXPECT_GT(grid[i], grid[i - 1]);
  // Log-equidistant: constant ratio.
  const double ratio = grid[1] / grid[0];
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_NEAR(grid[i] / grid[i - 1], ratio, 1e-9);
  }
}

}  // namespace
}  // namespace xlf
