// The paper's evaluation metrics over a window of simulated days.
//
// Every evaluation in the paper follows the same shape: let the policy run
// (and learn) for a training phase, then measure SR / CC / MI over an
// evaluation window. The schedule lives in sim/scenario (run_scenario and
// run_blueprint); the metric side lives here in EvaluationAccumulator, so
// every driver folds days into identical statistics.
#pragma once

#include <cstddef>

#include "pricing/tou.h"
#include "privacy/correlation.h"
#include "privacy/metrics.h"
#include "privacy/mutual_information.h"
#include "sim/day_result.h"

namespace rlblh {

/// Aggregated metrics over the evaluation window.
struct EvaluationResult {
  double saving_ratio = 0.0;        ///< paper Eq. 22 (fraction, not %)
  double mean_cc = 0.0;             ///< paper Eq. 21
  double normalized_mi = 0.0;       ///< paper Eq. 20
  double mean_daily_savings_cents = 0.0;
  double mean_daily_bill_cents = 0.0;
  double mean_daily_usage_cost_cents = 0.0;
  std::size_t battery_violations = 0;  ///< clipping events during evaluation
};

/// Folds evaluation days into the paper's metric set (SR, CC, MI, daily
/// cost figures, violation count). One accumulator observes the evaluation
/// window of one run; result() reports the same EvaluationResult whichever
/// driver fed it, so the single-household path and the fleet path cannot
/// drift apart metric-wise.
class EvaluationAccumulator {
 public:
  /// `intervals` slots per day and `usage_cap` bound the MI quantizer (both
  /// streams share the usage cap); `mi_levels` quantization levels (2..16,
  /// else ConfigError). Building one draws no randomness, so run paths
  /// build it before training to fail fast on a bad `mi_levels`.
  EvaluationAccumulator(std::size_t intervals, std::size_t mi_levels,
                        double usage_cap);

  /// Folds in one evaluation day priced by `prices`. While observability
  /// records, counts `eval.days` and adds the call's time to
  /// `eval.observe_ns`.
  void observe_day(const DayResult& day, const TouSchedule& prices);

  /// Number of days folded in.
  std::size_t days() const { return days_; }

  /// Metrics over the observed days. Requires days() >= 1. While
  /// observability records, adds the call's time to `eval.result_ns`.
  EvaluationResult result() const;

 private:
  SavingRatioAccumulator sr_;
  CorrelationAccumulator cc_;
  PairwiseMiEstimator mi_;
  double bill_cents_total_ = 0.0;
  double usage_cost_cents_total_ = 0.0;
  std::size_t battery_violations_ = 0;
  std::size_t days_ = 0;
};

}  // namespace rlblh
