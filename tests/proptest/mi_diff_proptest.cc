// Differential property suite for PairwiseMiEstimator's pair-code store.
//
// The estimator keeps one uint16 pair code per interval per day and, per
// query, counts each interval's codes into reused scratch and walks the
// occupied cells through bitmaps, reading every p * log2(p) from a memo.
// The contract is bitwise equality with the dense estimator it replaced:
// one (n_M - 1) x levels^4 joint table and a scan of every cell that skips
// the empty ones. This suite keeps that estimator as a test-local oracle
// and compares normalized_mi(), every normalized_mi_at(n) and every
// usage_entropy_at(n) with std::bit_cast, over random geometries (2..61
// intervals, 2..16 levels, 1..300 days), six stream shapes (values outside
// the caps included), bias correction on and off, queries interleaved with
// further days, and estimators recycled through reset(). Fixed cases add
// 1 440-interval household days at 10 and 120 days.
//
// The premise holds where a*b + c is not fused into an FMA; CI runs this
// suite in the -march=x86-64-v3 -ffp-contract=off build as well.
//
// Labeled `proptest`; scale with RLBLH_PROPTEST_ITERS, replay with
// RLBLH_PROPTEST_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "meter/household.h"
#include "meter/household_registry.h"
#include "meter/trace.h"
#include "privacy/mutual_information.h"
#include "util/proptest.h"
#include "util/quantizer.h"
#include "util/rng.h"

namespace rlblh {
namespace {

using proptest::for_all;
using proptest::PropertyOptions;

/// The dense estimator as it stood before the pair codes: interval-major
/// X-pair and joint count tables, entropies by a full ascending scan.
class DenseMiOracle {
 public:
  DenseMiOracle(std::size_t intervals, std::size_t levels, double x_cap,
                double y_cap)
      : intervals_(intervals), pair_cells_(levels * levels),
        joint_cells_(pair_cells_ * pair_cells_), qx_(levels, 0.0, x_cap),
        qy_(levels, 0.0, y_cap),
        x_counts_((intervals - 1) * pair_cells_, 0),
        joint_counts_((intervals - 1) * joint_cells_, 0) {}

  void set_bias_correction(bool enabled) { bias_correction_ = enabled; }

  void observe_day(std::span<const double> usage,
                   std::span<const double> readings) {
    const std::size_t levels = qx_.levels();
    for (std::size_t n = 0; n + 1 < intervals_; ++n) {
      const std::size_t xi =
          qx_.index(usage[n]) * levels + qx_.index(usage[n + 1]);
      const std::size_t yi =
          qy_.index(readings[n]) * levels + qy_.index(readings[n + 1]);
      ++x_counts_[n * pair_cells_ + xi];
      ++joint_counts_[n * joint_cells_ + xi * pair_cells_ + yi];
    }
    ++days_;
  }

  void reset() {
    std::fill(x_counts_.begin(), x_counts_.end(), 0);
    std::fill(joint_counts_.begin(), joint_counts_.end(), 0);
    days_ = 0;
  }

  double normalized_mi_at(std::size_t n) const {
    if (days_ == 0) return 0.0;
    const auto total = static_cast<double>(days_);
    const Entropy ex =
        entropy(x_counts_.data() + n * pair_cells_, pair_cells_, total);
    if (ex.bits <= 0.0) return 0.0;
    const std::uint32_t* const joint = joint_counts_.data() + n * joint_cells_;
    std::vector<std::uint32_t> y_counts(pair_cells_, 0);
    for (std::size_t cell = 0; cell < joint_cells_; ++cell) {
      y_counts[cell % pair_cells_] += joint[cell];
    }
    const Entropy ey = entropy(y_counts.data(), pair_cells_, total);
    const Entropy exy = entropy(joint, joint_cells_, total);
    double hx = ex.bits;
    double h_x_given_y = exy.bits - ey.bits;
    if (bias_correction_) {
      hx = miller_madow(ex, total);
      h_x_given_y = miller_madow(exy, total) - miller_madow(ey, total);
    }
    const double mi = (hx - h_x_given_y) / hx;
    return std::clamp(mi, 0.0, 1.0);
  }

  double normalized_mi() const {
    if (days_ == 0) return 0.0;
    double sum = 0.0;
    for (std::size_t n = 0; n + 1 < intervals_; ++n) {
      sum += normalized_mi_at(n);
    }
    return sum / static_cast<double>(intervals_ - 1);
  }

  double usage_entropy_at(std::size_t n) const {
    return entropy(x_counts_.data() + n * pair_cells_, pair_cells_,
                   static_cast<double>(days_))
        .bits;
  }

 private:
  struct Entropy {
    double bits = 0.0;
    std::size_t occupied = 0;
  };

  static Entropy entropy(const std::uint32_t* counts, std::size_t cells,
                         double total) {
    Entropy out;
    if (total <= 0.0) return out;
    for (std::size_t i = 0; i < cells; ++i) {
      const std::uint32_t c = counts[i];
      if (c == 0) continue;
      ++out.occupied;
      const double p = static_cast<double>(c) / total;
      out.bits -= p * std::log2(p);
    }
    return out;
  }

  static double miller_madow(const Entropy& e, double samples) {
    if (samples <= 0.0 || e.occupied == 0) return e.bits;
    return e.bits + static_cast<double>(e.occupied - 1) /
                        (2.0 * samples * std::numbers::ln2);
  }

  std::size_t intervals_;
  std::size_t pair_cells_;
  std::size_t joint_cells_;
  Quantizer qx_;
  Quantizer qy_;
  std::size_t days_ = 0;
  bool bias_correction_ = true;
  std::vector<std::uint32_t> x_counts_;
  std::vector<std::uint32_t> joint_counts_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares every query of the two estimators bit for bit.
void check_same(const PairwiseMiEstimator& codes, const DenseMiOracle& dense,
                std::size_t intervals, const std::string& where) {
  PROPTEST_CHECK(same_bits(codes.normalized_mi(), dense.normalized_mi()),
                 where + ": normalized_mi " +
                     std::to_string(codes.normalized_mi()) + " vs " +
                     std::to_string(dense.normalized_mi()));
  for (std::size_t n = 0; n + 1 < intervals; ++n) {
    PROPTEST_CHECK(
        same_bits(codes.normalized_mi_at(n), dense.normalized_mi_at(n)),
        where + ": normalized_mi_at(" + std::to_string(n) + ")");
    PROPTEST_CHECK(
        same_bits(codes.usage_entropy_at(n), dense.usage_entropy_at(n)),
        where + ": usage_entropy_at(" + std::to_string(n) + ")");
  }
}

/// How a case's (usage, readings) days are drawn.
enum class Shape {
  kIndependent,     ///< x and y uniform and independent
  kIdentical,       ///< y = x
  kConstantY,       ///< y one value all day
  kNoisyCopy,       ///< y = x plus noise, clamped to the cap
  kConstantX,       ///< x one value all day: H(X_n) = 0
  kOutsideTheCaps,  ///< both drawn from [-cap/2, 3 cap/2]
};
constexpr int kShapes = 6;

struct MiCase {
  std::size_t intervals = 2;
  std::size_t levels = 2;
  std::size_t days = 1;          ///< days of the first round
  std::size_t more_days = 0;     ///< days of the second round
  std::size_t reuse_days = 0;    ///< days after a reset (0: no reset)
  Shape shape = Shape::kIndependent;
  bool bias_correction = true;
  double x_cap = 1.0;
  double y_cap = 1.0;
};

std::string describe_case(const MiCase& c) {
  return std::to_string(c.intervals) + " intervals, " +
         std::to_string(c.levels) + " levels, days " +
         std::to_string(c.days) + "+" + std::to_string(c.more_days) +
         ", reuse " + std::to_string(c.reuse_days) + ", shape " +
         std::to_string(static_cast<int>(c.shape)) + ", bias " +
         (c.bias_correction ? "on" : "off") + ", caps " +
         std::to_string(c.x_cap) + "/" + std::to_string(c.y_cap);
}

proptest::Domain<MiCase> mi_case_domain() {
  proptest::Domain<MiCase> domain;
  domain.generate = [](Rng& rng) {
    MiCase c;
    c.intervals = static_cast<std::size_t>(rng.uniform_int(2, 61));
    c.levels = static_cast<std::size_t>(rng.uniform_int(2, 16));
    c.days = static_cast<std::size_t>(rng.uniform_int(1, 300));
    c.more_days = static_cast<std::size_t>(rng.uniform_int(0, 150));
    c.reuse_days =
        rng.bernoulli(0.5) ? static_cast<std::size_t>(rng.uniform_int(1, 60))
                           : 0;
    c.shape = static_cast<Shape>(rng.uniform_int(0, kShapes - 1));
    c.bias_correction = rng.bernoulli(0.7);
    c.x_cap = rng.uniform(0.5, 4.0);
    c.y_cap = rng.bernoulli(0.5) ? c.x_cap : rng.uniform(0.5, 4.0);
    return c;
  };
  domain.shrink = [](const MiCase& c) {
    std::vector<MiCase> smaller;
    if (c.reuse_days > 0) {
      MiCase s = c;
      s.reuse_days = 0;
      smaller.push_back(s);
    }
    if (c.more_days > 0) {
      MiCase s = c;
      s.more_days = 0;
      smaller.push_back(s);
    }
    if (c.days > 1) {
      MiCase s = c;
      s.days = c.days / 2;
      smaller.push_back(s);
    }
    if (c.intervals > 2) {
      MiCase s = c;
      s.intervals = 2 + (c.intervals - 2) / 2;
      smaller.push_back(s);
    }
    return smaller;
  };
  domain.describe = describe_case;
  return domain;
}

/// Draws one day of the case's shape into x and y.
void draw_day(const MiCase& c, Rng& rng, std::vector<double>& x,
              std::vector<double>& y) {
  x.resize(c.intervals);
  y.resize(c.intervals);
  const double level_x = 0.3 * c.x_cap;
  const double level_y = 0.6 * c.y_cap;
  for (std::size_t n = 0; n < c.intervals; ++n) {
    switch (c.shape) {
      case Shape::kIndependent:
        x[n] = rng.uniform(0.0, c.x_cap);
        y[n] = rng.uniform(0.0, c.y_cap);
        break;
      case Shape::kIdentical:
        x[n] = rng.uniform(0.0, c.x_cap);
        y[n] = x[n];
        break;
      case Shape::kConstantY:
        x[n] = rng.uniform(0.0, c.x_cap);
        y[n] = level_y;
        break;
      case Shape::kNoisyCopy:
        x[n] = rng.uniform(0.0, c.x_cap);
        y[n] = std::clamp(x[n] + rng.uniform(-0.2, 0.2) * c.y_cap, 0.0,
                          c.y_cap);
        break;
      case Shape::kConstantX:
        x[n] = level_x;
        y[n] = rng.uniform(0.0, c.y_cap);
        break;
      case Shape::kOutsideTheCaps:
        x[n] = rng.uniform(-0.5 * c.x_cap, 1.5 * c.x_cap);
        y[n] = rng.uniform(-0.5 * c.y_cap, 1.5 * c.y_cap);
        break;
    }
  }
}

TEST(MiDiffProptest, PairCodesMatchTheDenseEstimatorBitwise) {
  PropertyOptions options;
  options.iterations = 100;
  options.base_seed = 0x3d1ff0c0deull;
  const auto result = for_all(
      "pair-code MI == dense-table MI", mi_case_domain(),
      [](const MiCase& c, Rng& rng) {
        PairwiseMiEstimator codes(c.intervals, c.levels, c.x_cap, c.y_cap);
        DenseMiOracle dense(c.intervals, c.levels, c.x_cap, c.y_cap);
        codes.set_bias_correction(c.bias_correction);
        dense.set_bias_correction(c.bias_correction);
        std::vector<double> x;
        std::vector<double> y;
        const auto observe = [&](std::size_t days) {
          for (std::size_t d = 0; d < days; ++d) {
            draw_day(c, rng, x, y);
            codes.observe_day(x, y);
            dense.observe_day(x, y);
          }
        };
        check_same(codes, dense, c.intervals, "before any day");
        observe(c.days);
        check_same(codes, dense, c.intervals, "after the first round");
        if (c.more_days > 0) {
          observe(c.more_days);
          check_same(codes, dense, c.intervals, "after the second round");
        }
        if (c.reuse_days > 0) {
          codes.reset();
          dense.reset();
          PROPTEST_CHECK(codes.days() == 0, "reset kept days");
          check_same(codes, dense, c.intervals, "after reset");
          observe(c.reuse_days);
          check_same(codes, dense, c.intervals, "after reuse");
        }
      },
      options);
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_GE(result.iterations_run, 1u);
}

/// Full 1 440-interval household days at 8 levels, the fleet's geometry:
/// usage from the `default` household, readings identical, independent
/// (another household day) or flattened to the day's mean, with queries
/// at 10 days and again after the window grows to 120.
TEST(MiDiffProptest, HouseholdDaysMatchAtTenAndOneTwentyDays) {
  HouseholdModel usage_model(make_household_config("default", {}), 31);
  HouseholdModel other_model(make_household_config("default", {}), 32);
  std::vector<DayTrace> usage;
  std::vector<DayTrace> other;
  for (int d = 0; d < 120; ++d) {
    usage.push_back(usage_model.generate_day());
    other.push_back(other_model.generate_day());
  }
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    PairwiseMiEstimator codes(kIntervalsPerDay, 8, kDefaultUsageCap,
                              kDefaultUsageCap);
    DenseMiOracle dense(kIntervalsPerDay, 8, kDefaultUsageCap,
                        kDefaultUsageCap);
    for (std::size_t d = 0; d < usage.size(); ++d) {
      const DayTrace& x = usage[d];
      DayTrace y = variant == 0 ? x : other[d];
      if (variant == 2) {
        const double mean = x.total() / static_cast<double>(x.intervals());
        for (std::size_t n = 0; n < y.intervals(); ++n) y.set(n, mean);
      }
      codes.observe_day(x, y);
      dense.observe_day(x, y);
      if (d + 1 == 10 || d + 1 == 120) {
        const std::string where = std::to_string(d + 1) + " days";
        try {
          check_same(codes, dense, kIntervalsPerDay, where);
        } catch (const proptest::PropertyFailure& failure) {
          FAIL() << failure.what();
        }
      }
    }
  }
}

}  // namespace
}  // namespace rlblh
