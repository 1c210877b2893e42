#include "util/empirical_dist.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/running_stats.h"

namespace rlblh {
namespace {

TEST(EmpiricalDistribution, RejectsBadConstruction) {
  EXPECT_THROW(EmpiricalDistribution(0.0, 1.0, 8, 0), ConfigError);
  EXPECT_THROW(EmpiricalDistribution(1.0, 0.0, 8, 8), ConfigError);
}

TEST(EmpiricalDistribution, CannotSampleWhenEmpty) {
  EmpiricalDistribution d(0.0, 1.0);
  Rng rng(1);
  EXPECT_THROW(d.sample(rng), ConfigError);
}

TEST(EmpiricalDistribution, MeanTracksObservations) {
  EmpiricalDistribution d(0.0, 10.0);
  Rng rng(1);
  d.add(2.0, rng);
  d.add(4.0, rng);
  d.add(6.0, rng);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_EQ(d.count(), 3u);
}

TEST(EmpiricalDistribution, ValuesClampIntoRange) {
  EmpiricalDistribution d(0.0, 1.0);
  Rng rng(1);
  d.add(-5.0, rng);
  d.add(7.0, rng);
  EXPECT_DOUBLE_EQ(d.mean(), 0.5);
  for (int i = 0; i < 50; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(EmpiricalDistribution, SampleOfConstantIsNearConstant) {
  EmpiricalDistribution d(0.0, 1.0, 32, 16);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) d.add(0.5, rng);
  for (int i = 0; i < 100; ++i) {
    // Reservoir draws return exactly 0.5; histogram draws jitter within the
    // one occupied cell (width 1/32).
    EXPECT_NEAR(d.sample(rng), 0.5, 1.0 / 32.0);
  }
}

TEST(EmpiricalDistribution, SampleDistributionMatchesSource) {
  EmpiricalDistribution d(0.0, 1.0, 32, 64);
  Rng rng(5);
  RunningStats source;
  for (int i = 0; i < 5000; ++i) {
    // Bimodal source: half near 0.2, half near 0.8.
    const double v =
        (i % 2 == 0) ? rng.normal(0.2, 0.03) : rng.normal(0.8, 0.03);
    source.add(v);
    d.add(v, rng);
  }
  RunningStats drawn;
  for (int i = 0; i < 5000; ++i) drawn.add(d.sample(rng));
  EXPECT_NEAR(drawn.mean(), source.mean(), 0.02);
  EXPECT_NEAR(drawn.stddev(), source.stddev(), 0.03);
}

TEST(EmpiricalDistribution, ReservoirFractionBounds) {
  EmpiricalDistribution d(0.0, 1.0);
  EXPECT_THROW(d.set_reservoir_fraction(-0.1), ConfigError);
  EXPECT_THROW(d.set_reservoir_fraction(1.1), ConfigError);
  d.set_reservoir_fraction(1.0);  // pure reservoir
  Rng rng(8);
  d.add(0.3, rng);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 0.3);
}

TEST(EmpiricalDistribution, HistogramOnlySamplingStaysInOccupiedCells) {
  EmpiricalDistribution d(0.0, 1.0, 10, 4);
  d.set_reservoir_fraction(0.0);  // pure histogram
  Rng rng(9);
  for (int i = 0; i < 100; ++i) d.add(0.95, rng);
  for (int i = 0; i < 100; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 0.9);
    EXPECT_LE(v, 1.0);
  }
}

}  // namespace
}  // namespace rlblh
