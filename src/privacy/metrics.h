// Cost-savings metrics (paper Eq. 3, 7, 22).
#pragma once

#include <cstddef>

#include "meter/trace.h"
#include "pricing/tou.h"
#include "util/running_stats.h"

namespace rlblh {

// All series parameters are read-only lane views: a DayTrace converts
// implicitly. The loops run interval-ascending regardless of stride, so the
// accumulated sums are bitwise independent of the layout.

/// Daily cost savings S = sum_n r_n (x_n - y_n) in cents (paper Eq. 3).
double daily_savings_cents(ConstTraceLane usage, ConstTraceLane readings,
                           const TouSchedule& prices);

/// Daily bill sum_n r_n y_n in cents.
double daily_bill_cents(ConstTraceLane readings, const TouSchedule& prices);

/// Daily cost of actual consumption sum_n r_n x_n in cents.
double daily_usage_cost_cents(ConstTraceLane usage, const TouSchedule& prices);

/// Accumulates the saving ratio SR = E[ S / (sum_n r_n x_n) ] over days
/// (paper Eq. 22, the statistic of Figures 5c, 7c, 8a and 9a).
class SavingRatioAccumulator {
 public:
  /// Folds in one evaluation day. Days with zero usage cost are skipped
  /// (the ratio is undefined for them).
  void observe_day(ConstTraceLane usage, ConstTraceLane readings,
                   const TouSchedule& prices);

  /// Mean per-day saving ratio (dimensionless; multiply by 100 for %).
  double saving_ratio() const;

  /// Mean absolute daily savings in cents.
  double mean_daily_savings_cents() const;

  /// Number of days folded in.
  std::size_t days() const { return ratio_stats_.count(); }

  /// Forgets all observed days (fresh-accumulator state, no reallocation).
  void reset() {
    ratio_stats_.reset();
    savings_stats_.reset();
  }

 private:
  RunningStats ratio_stats_;
  RunningStats savings_stats_;
};

}  // namespace rlblh
