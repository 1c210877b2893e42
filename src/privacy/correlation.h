// Pearson correlation between usage and meter readings (paper Eq. 21).
//
// The paper's CC metric quantifies low-frequency leakage: a high correlation
// between x_n and y_n over a day means the meter readings track the
// behavioural envelope. (Eq. 21 as printed contains a typesetting slip —
// the numerator shows a product of sums; the text defines CC as "the Pearson
// correlation coefficient between x_n and y_n", which is what we compute.)
#pragma once

#include <cstddef>
#include <vector>

#include "meter/trace.h"
#include "util/running_stats.h"

namespace rlblh {

/// Pearson correlation coefficient of two equal-length series (read-only
/// lane views; a DayTrace converts implicitly). Returns 0 when either series
/// is constant (zero variance), matching the convention that a flat series
/// carries no linear relationship.
double pearson_correlation(ConstTraceLane x, ConstTraceLane y);

/// Convenience overload on plain vectors (throws on empty input).
double pearson_correlation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Accumulates the per-day CC over an evaluation run and reports its mean,
/// the statistic plotted in the paper's Figures 5a, 8b and 9b.
class CorrelationAccumulator {
 public:
  /// Folds in one evaluation day.
  void observe_day(ConstTraceLane usage, ConstTraceLane readings);

  /// Mean per-day CC; 0 when no days observed.
  double mean_cc() const;

  /// Standard deviation of the per-day CC.
  double stddev_cc() const { return stats_.stddev(); }

  /// Number of days folded in.
  std::size_t days() const { return stats_.count(); }

  /// Forgets all observed days (fresh-accumulator state, no reallocation).
  void reset() { stats_.reset(); }

 private:
  RunningStats stats_;
};

}  // namespace rlblh
