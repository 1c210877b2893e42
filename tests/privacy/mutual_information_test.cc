#include "privacy/mutual_information.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

DayTrace random_day(std::size_t n, double cap, Rng& rng) {
  DayTrace t(n);
  for (std::size_t i = 0; i < n; ++i) t.set(i, rng.uniform(0.0, cap));
  return t;
}

TEST(PairwiseMi, RejectsBadConstruction) {
  EXPECT_THROW(PairwiseMiEstimator(1, 8, 1.0, 1.0), ConfigError);
  EXPECT_THROW(PairwiseMiEstimator(10, 1, 1.0, 1.0), ConfigError);
  // Joint cells are uint32 ids over levels^4: 256 is the largest count
  // that fits, and 2^32 would wrap the table sizes to zero.
  EXPECT_THROW(PairwiseMiEstimator(10, 257, 1.0, 1.0), ConfigError);
  EXPECT_THROW(PairwiseMiEstimator(10, std::size_t{1} << 32, 1.0, 1.0),
               ConfigError);
}

TEST(PairwiseMi, EmptyEstimatorReportsZero) {
  PairwiseMiEstimator mi(10, 4, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(mi.normalized_mi(), 0.0);
}

TEST(PairwiseMi, RejectsMismatchedDays) {
  PairwiseMiEstimator mi(10, 4, 1.0, 1.0);
  EXPECT_THROW(mi.observe_day(DayTrace(5), DayTrace(10)), ConfigError);
}

TEST(PairwiseMi, IdenticalStreamsLeakEverything) {
  // Y = X: observing Y fully determines X, so normalized MI ~ 1.
  PairwiseMiEstimator mi(50, 4, 1.0, 1.0);
  Rng rng(1);
  for (int d = 0; d < 400; ++d) {
    const DayTrace x = random_day(50, 1.0, rng);
    mi.observe_day(x, x);
  }
  EXPECT_GT(mi.normalized_mi(), 0.95);
  EXPECT_LE(mi.normalized_mi(), 1.0 + 1e-12);
}

TEST(PairwiseMi, ConstantReadingsLeakNothing) {
  // Y constant: H(X|Y) = H(X), MI = 0.
  PairwiseMiEstimator mi(50, 4, 1.0, 1.0);
  Rng rng(2);
  const DayTrace flat(std::vector<double>(50, 0.5));
  for (int d = 0; d < 400; ++d) {
    mi.observe_day(random_day(50, 1.0, rng), flat);
  }
  EXPECT_DOUBLE_EQ(mi.normalized_mi(), 0.0);
}

TEST(PairwiseMi, IndependentReadingsLeakLittle) {
  PairwiseMiEstimator mi(50, 4, 1.0, 1.0);
  Rng rng(3);
  for (int d = 0; d < 2000; ++d) {
    mi.observe_day(random_day(50, 1.0, rng), random_day(50, 1.0, rng));
  }
  // Finite-sample bias keeps this slightly above zero; it must be far below
  // the identical-streams case.
  EXPECT_LT(mi.normalized_mi(), 0.15);
}

TEST(PairwiseMi, DeterministicUsageContributesZero) {
  // X constant: H(X_n) = 0, the interval is defined to contribute 0.
  PairwiseMiEstimator mi(10, 4, 1.0, 1.0);
  Rng rng(4);
  const DayTrace const_x(std::vector<double>(10, 0.25));
  for (int d = 0; d < 50; ++d) {
    mi.observe_day(const_x, random_day(10, 1.0, rng));
  }
  EXPECT_DOUBLE_EQ(mi.normalized_mi(), 0.0);
  EXPECT_DOUBLE_EQ(mi.usage_entropy_at(0), 0.0);
}

TEST(PairwiseMi, PartialDependenceIsBetweenExtremes) {
  // Y reveals the coarse half (low/high) of X but not more.
  PairwiseMiEstimator mi(50, 4, 1.0, 1.0);
  Rng rng(5);
  for (int d = 0; d < 1000; ++d) {
    DayTrace x = random_day(50, 1.0, rng);
    DayTrace y(50);
    for (std::size_t n = 0; n < 50; ++n) {
      y.set(n, x.at(n) < 0.5 ? 0.2 : 0.8);
    }
    mi.observe_day(x, y);
  }
  const double v = mi.normalized_mi();
  EXPECT_GT(v, 0.3);
  EXPECT_LT(v, 0.9);
}

TEST(PairwiseMi, MonotoneInDependenceStrength) {
  Rng rng(6);
  double leak[2];
  for (int variant = 0; variant < 2; ++variant) {
    PairwiseMiEstimator mi(40, 4, 1.0, 1.0);
    const double noise = variant == 0 ? 0.45 : 0.05;
    for (int d = 0; d < 800; ++d) {
      DayTrace x = random_day(40, 1.0, rng);
      DayTrace y(40);
      for (std::size_t n = 0; n < 40; ++n) {
        const double v = x.at(n) + rng.uniform(-noise, noise);
        y.set(n, std::min(1.0, std::max(0.0, v)));
      }
      mi.observe_day(x, y);
    }
    leak[variant] = mi.normalized_mi();
  }
  EXPECT_GT(leak[1], leak[0]);  // less noise leaks more
}

TEST(PairwiseMi, PerIntervalAccessorBounds) {
  PairwiseMiEstimator mi(10, 4, 1.0, 1.0);
  EXPECT_THROW(mi.normalized_mi_at(9), ConfigError);  // last pair index is 8
  EXPECT_NO_THROW(mi.normalized_mi_at(8));
  EXPECT_THROW(mi.usage_entropy_at(9), ConfigError);
}


TEST(PairwiseMi, BiasCorrectionReducesIndependentStreamLeakage) {
  // With few samples, the plug-in estimate of MI between independent
  // streams is biased upward; Miller-Madow must bring it down while
  // leaving the identical-streams case at ~1.
  Rng rng(8);
  PairwiseMiEstimator corrected(30, 4, 1.0, 1.0);
  PairwiseMiEstimator plugin(30, 4, 1.0, 1.0);
  plugin.set_bias_correction(false);
  for (int d = 0; d < 60; ++d) {
    const DayTrace x = random_day(30, 1.0, rng);
    const DayTrace y = random_day(30, 1.0, rng);
    corrected.observe_day(x, y);
    plugin.observe_day(x, y);
  }
  EXPECT_LT(corrected.normalized_mi(), plugin.normalized_mi());

  PairwiseMiEstimator identical(30, 4, 1.0, 1.0);
  for (int d = 0; d < 200; ++d) {
    const DayTrace x = random_day(30, 1.0, rng);
    identical.observe_day(x, x);
  }
  EXPECT_GT(identical.normalized_mi(), 0.9);
}

TEST(PairwiseMiEstimator, ResetMatchesFreshConstruction) {
  // The sparse reset (zero only touched joint cells) must be semantically
  // complete: after reset, re-observing a stream yields bitwise the same
  // estimate a freshly constructed estimator produces — the property the
  // fleet's arena-recycled accumulators stand on.
  PairwiseMiEstimator recycled(30, 8, 1.0, 1.0);
  Rng warmup(21);
  for (int d = 0; d < 25; ++d) {
    recycled.observe_day(random_day(30, 1.0, warmup),
                         random_day(30, 1.0, warmup));
  }
  recycled.reset();
  EXPECT_EQ(recycled.days(), 0u);
  EXPECT_EQ(recycled.normalized_mi(), 0.0);

  PairwiseMiEstimator fresh(30, 8, 1.0, 1.0);
  Rng a(22);
  Rng b(22);
  for (int d = 0; d < 25; ++d) {
    const DayTrace xa = random_day(30, 1.0, a);
    const DayTrace ya = random_day(30, 1.0, a);
    recycled.observe_day(xa, ya);
    const DayTrace xb = random_day(30, 1.0, b);
    const DayTrace yb = random_day(30, 1.0, b);
    fresh.observe_day(xb, yb);
  }
  EXPECT_EQ(recycled.days(), fresh.days());
  EXPECT_EQ(recycled.normalized_mi(), fresh.normalized_mi());
  for (std::size_t n = 0; n + 1 < 30; ++n) {
    EXPECT_EQ(recycled.normalized_mi_at(n), fresh.normalized_mi_at(n)) << n;
    EXPECT_EQ(recycled.usage_entropy_at(n), fresh.usage_entropy_at(n)) << n;
  }
}

class MiLevelsParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MiLevelsParam, NormalizedMiStaysInUnitInterval) {
  PairwiseMiEstimator mi(20, GetParam(), 1.0, 1.0);
  Rng rng(7);
  for (int d = 0; d < 100; ++d) {
    DayTrace x = random_day(20, 1.0, rng);
    DayTrace y(20);
    for (std::size_t n = 0; n < 20; ++n) y.set(n, 1.0 - x.at(n));
    mi.observe_day(x, y);
  }
  EXPECT_GE(mi.normalized_mi(), 0.0);
  EXPECT_LE(mi.normalized_mi(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MiLevelsParam, ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace rlblh
