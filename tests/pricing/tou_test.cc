#include "pricing/tou.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

TEST(TouSchedule, RejectsBadConstruction) {
  EXPECT_THROW(TouSchedule(std::vector<double>{}), ConfigError);
  EXPECT_THROW(TouSchedule(std::vector<double>{1.0, -0.5}), ConfigError);
}

TEST(TouSchedule, SrpPlanMatchesPaperNumbers) {
  // Section VII-A: 7.04 c/kWh for n <= 1020 (1-based), 21.09 afterwards.
  const TouSchedule srp = TouSchedule::srp_plan();
  EXPECT_EQ(srp.intervals(), 1440u);
  EXPECT_DOUBLE_EQ(srp.rate(0), 7.04);
  EXPECT_DOUBLE_EQ(srp.rate(1019), 7.04);   // n = 1020 in 1-based indexing
  EXPECT_DOUBLE_EQ(srp.rate(1020), 21.09);  // n = 1021
  EXPECT_DOUBLE_EQ(srp.rate(1439), 21.09);
  EXPECT_DOUBLE_EQ(srp.min_rate(), 7.04);
  EXPECT_DOUBLE_EQ(srp.max_rate(), 21.09);
}

TEST(TouSchedule, SrpPlanNeedsRoomForBothZones) {
  EXPECT_THROW(TouSchedule::srp_plan(1020), ConfigError);
  EXPECT_NO_THROW(TouSchedule::srp_plan(1021));
}

TEST(TouSchedule, FlatPlan) {
  const TouSchedule flat = TouSchedule::flat(100, 5.0);
  EXPECT_DOUBLE_EQ(flat.min_rate(), 5.0);
  EXPECT_DOUBLE_EQ(flat.max_rate(), 5.0);
  EXPECT_DOUBLE_EQ(flat.mean_rate(), 5.0);
}

TEST(TouSchedule, ZonesMustTileTheDay) {
  EXPECT_THROW(TouSchedule::from_zones(10, {{0, 5, 1.0}, {6, 10, 2.0}}),
               ConfigError);  // gap
  EXPECT_THROW(TouSchedule::from_zones(10, {{0, 5, 1.0}, {4, 10, 2.0}}),
               ConfigError);  // overlap
  EXPECT_THROW(TouSchedule::from_zones(10, {{0, 5, 1.0}}),
               ConfigError);  // short
  EXPECT_NO_THROW(TouSchedule::from_zones(10, {{0, 5, 1.0}, {5, 10, 2.0}}));
}

TEST(TouSchedule, TwoZoneBoundaries) {
  const TouSchedule t = TouSchedule::two_zone(10, 4, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(t.rate(3), 1.0);
  EXPECT_DOUBLE_EQ(t.rate(4), 2.0);
  EXPECT_THROW(TouSchedule::two_zone(10, 0, 1.0, 2.0), ConfigError);
  EXPECT_THROW(TouSchedule::two_zone(10, 10, 1.0, 2.0), ConfigError);
}

TEST(TouSchedule, ThreeZoneBoundaries) {
  const TouSchedule t = TouSchedule::three_zone(30, 10, 20, 1.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(t.rate(9), 1.0);
  EXPECT_DOUBLE_EQ(t.rate(10), 2.0);
  EXPECT_DOUBLE_EQ(t.rate(19), 2.0);
  EXPECT_DOUBLE_EQ(t.rate(20), 3.0);
  EXPECT_THROW(TouSchedule::three_zone(30, 20, 10, 1.0, 2.0, 3.0),
               ConfigError);
}

TEST(TouSchedule, HourlyRtpStaysInRangeAndIsBlockwiseConstant) {
  Rng rng(4);
  const TouSchedule t = TouSchedule::hourly_rtp(1440, 60, 5.0, 25.0, rng);
  for (std::size_t n = 0; n < t.intervals(); ++n) {
    ASSERT_GE(t.rate(n), 5.0);
    ASSERT_LE(t.rate(n), 25.0);
    if (n % 60 != 0) {
      ASSERT_DOUBLE_EQ(t.rate(n), t.rate(n - 1));
    }
  }
}

TEST(TouSchedule, HourlyRtpVariesAcrossBlocks) {
  Rng rng(4);
  const TouSchedule t = TouSchedule::hourly_rtp(1440, 60, 5.0, 25.0, rng);
  int distinct = 0;
  for (std::size_t b = 1; b < 24; ++b) {
    if (t.rate(b * 60) != t.rate((b - 1) * 60)) ++distinct;
  }
  EXPECT_GE(distinct, 10);
}

TEST(TouSchedule, CostComputesPricedSum) {
  const TouSchedule t = TouSchedule::two_zone(4, 2, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(t.cost({1.0, 1.0, 1.0, 1.0}), 8.0);
  EXPECT_DOUBLE_EQ(t.cost({0.0, 2.0, 0.0, 0.5}), 3.5);
  EXPECT_THROW(t.cost({1.0}), ConfigError);
}

TEST(TouSchedule, RateIndexBounds) {
  const TouSchedule t = TouSchedule::flat(5, 1.0);
  EXPECT_THROW(t.rate(5), ConfigError);
}

TEST(MaxSavings, MatchesSectionIIFormula) {
  // (r_H - r_L) * b_M: paper quotes 0.7 dollars for b_M = 5 kWh.
  EXPECT_NEAR(two_zone_max_daily_savings(7.04, 21.09, 5.0), 70.25, 1e-9);
  EXPECT_THROW(two_zone_max_daily_savings(2.0, 1.0, 5.0), ConfigError);
  EXPECT_THROW(two_zone_max_daily_savings(1.0, 2.0, -1.0), ConfigError);
}

}  // namespace
}  // namespace rlblh
