#include "privacy/correlation.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

TEST(PearsonCorrelation, PerfectPositive) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
}

TEST(CorrelationAccumulator, MatchesHandComputedSeries) {
  // Day 1: x = (1, 2, 3, 4), y = (2, 4, 5, 9). Means 2.5 and 5; deviations
  // (-1.5, -0.5, 0.5, 1.5) and (-3, -1, 0, 4); sum dx*dy = 11,
  // sum dx^2 = 5, sum dy^2 = 26, so CC = 11 / sqrt(130) = 0.9647638...
  // Day 2: x = (0, 1, 0, 1), y = (1, 0, 0, 1): sum dx*dy = 0, CC = 0.
  // Mean CC over the two days: 5.5 / sqrt(130) = 0.4823819...
  const std::vector<double> x1{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y1{2.0, 4.0, 5.0, 9.0};
  const std::vector<double> x2{0.0, 1.0, 0.0, 1.0};
  const std::vector<double> y2{1.0, 0.0, 0.0, 1.0};
  EXPECT_NEAR(pearson_correlation(x1, y1), 0.9647638, 1e-7);
  EXPECT_DOUBLE_EQ(pearson_correlation(x2, y2), 0.0);
  CorrelationAccumulator cc;
  cc.observe_day(x1, y1);
  cc.observe_day(x2, y2);
  EXPECT_EQ(cc.days(), 2u);
  EXPECT_NEAR(cc.mean_cc(), 0.4823819, 1e-7);
}

TEST(PearsonCorrelation, PerfectNegative) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(x, y), -1.0, 1e-12);
}

TEST(PearsonCorrelation, InvariantToAffineTransform) {
  Rng rng(1);
  std::vector<double> x, y;
  for (int i = 0; i < 200; ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.uniform());
  }
  const double base = pearson_correlation(x, y);
  std::vector<double> y2;
  for (const double v : y) y2.push_back(3.0 * v + 7.0);
  EXPECT_NEAR(pearson_correlation(x, y2), base, 1e-12);
}

TEST(PearsonCorrelation, ConstantSeriesYieldsZero) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> flat{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, flat), 0.0);
  EXPECT_DOUBLE_EQ(pearson_correlation(flat, x), 0.0);
}

TEST(PearsonCorrelation, IndependentSeriesNearZero) {
  Rng rng(2);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.uniform());
  }
  EXPECT_NEAR(pearson_correlation(x, y), 0.0, 0.03);
}

TEST(PearsonCorrelation, AlwaysInUnitInterval) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x, y;
    for (int i = 0; i < 30; ++i) {
      x.push_back(rng.normal(0.0, 1.0));
      y.push_back(0.5 * x.back() + rng.normal(0.0, 0.5));
    }
    const double cc = pearson_correlation(x, y);
    EXPECT_GE(cc, -1.0 - 1e-12);
    EXPECT_LE(cc, 1.0 + 1e-12);
  }
}

TEST(PearsonCorrelation, RejectsBadInput) {
  const std::vector<double> empty;
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW(pearson_correlation(empty, empty), ConfigError);
  EXPECT_THROW(pearson_correlation(one, two), ConfigError);
}

TEST(PearsonCorrelation, DayTraceOverload) {
  DayTrace x(std::vector<double>{0.0, 0.1, 0.2});
  DayTrace y(std::vector<double>{0.0, 0.2, 0.4});
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
}

TEST(CorrelationAccumulator, AveragesAcrossDays) {
  CorrelationAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.mean_cc(), 0.0);
  acc.observe_day(DayTrace(std::vector<double>{1.0, 2.0, 3.0}),
                  DayTrace(std::vector<double>{1.0, 2.0, 3.0}));
  acc.observe_day(DayTrace(std::vector<double>{1.0, 2.0, 3.0}),
                  DayTrace(std::vector<double>{3.0, 2.0, 1.0}));
  EXPECT_EQ(acc.days(), 2u);
  EXPECT_NEAR(acc.mean_cc(), 0.0, 1e-12);  // +1 and -1 average to 0
  EXPECT_NEAR(acc.stddev_cc(), std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace rlblh
