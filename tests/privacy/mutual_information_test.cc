#include "privacy/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/quantizer.h"
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
  // A pair code holds the X-pair and the Y-pair in 8 bits each, so 16 is
  // the largest level count; 2^32 once wrapped the dense table sizes.
  EXPECT_NO_THROW(PairwiseMiEstimator(10, 16, 1.0, 1.0));
  EXPECT_THROW(PairwiseMiEstimator(10, 17, 1.0, 1.0), ConfigError);
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
  // reset() clears the stored pair codes but keeps their capacity (and the
  // query scratch and memo). It must be semantically complete: after
  // reset, re-observing a stream yields bitwise the same estimate a
  // freshly constructed estimator produces.
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

/// Normalized pair MI of the exact channel: x i.i.d. uniform over L
/// levels, y = x with probability p and an independent uniform level
/// otherwise, independently per interval. The pair channel is two uses of
/// the symbol channel, so the normalized pair MI is the symbol one,
/// I(x; y) / log2 L = 1 - H(a, b, ..., b) / log2 L with a = p + (1-p)/L
/// and L - 1 entries b = (1-p)/L (Li, Khisti & Mahajan's i.i.d.-load
/// setting; arXiv 1510.07170).
double exact_channel_mi(std::size_t levels, double p) {
  const auto l = static_cast<double>(levels);
  const double a = p + (1.0 - p) / l;
  const double b = (1.0 - p) / l;
  double h = a > 0.0 ? -a * std::log2(a) : 0.0;
  if (b > 0.0) h -= (l - 1.0) * b * std::log2(b);
  return 1.0 - h / std::log2(l);
}

TEST(PairwiseMi, ExactChannelMatchesTheAnalyticValue) {
  // Values sit on the quantizer's level centres, so quantization is exact
  // and the estimator sees the channel itself. 9 intervals (8 pairs) and
  // 6000 days, Miller-Madow on. Tolerances: 0.015 at p = 0.5 and 0.002 at
  // p = 0 (over 40 seeds the worst errors were 0.008 and 0.0006), 0.01 on
  // H(X_n) (worst 0.004); p = 1 is exact.
  EXPECT_NEAR(exact_channel_mi(2, 0.5), 0.1887, 1e-4);
  constexpr std::size_t kIntervals = 9;
  constexpr int kDays = 6000;
  for (const std::size_t levels : {std::size_t{2}, std::size_t{4}}) {
    const Quantizer levels_of(levels, 0.0, 1.0);
    for (const double p : {0.0, 0.5, 1.0}) {
      SCOPED_TRACE("L = " + std::to_string(levels) +
                   ", p = " + std::to_string(p));
      PairwiseMiEstimator mi(kIntervals, levels, 1.0, 1.0);
      Rng rng(100 + levels);
      const int top = static_cast<int>(levels) - 1;
      DayTrace x(kIntervals);
      DayTrace y(kIntervals);
      for (int d = 0; d < kDays; ++d) {
        for (std::size_t n = 0; n < kIntervals; ++n) {
          const auto xi = static_cast<std::size_t>(rng.uniform_int(0, top));
          const std::size_t yi =
              rng.bernoulli(p) ? xi
                               : static_cast<std::size_t>(
                                     rng.uniform_int(0, top));
          x.set(n, levels_of.value(xi));
          y.set(n, levels_of.value(yi));
        }
        mi.observe_day(x, y);
      }
      const double expected = exact_channel_mi(levels, p);
      if (p == 1.0) {
        EXPECT_EQ(mi.normalized_mi(), 1.0);  // H(X|Y) cancels exactly
      } else {
        EXPECT_NEAR(mi.normalized_mi(), expected, p == 0.0 ? 0.002 : 0.015);
      }
      // H(X_n) of a uniform pair is 2 log2 L bits.
      EXPECT_NEAR(mi.usage_entropy_at(3),
                  2.0 * std::log2(static_cast<double>(levels)), 0.01);
    }
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
