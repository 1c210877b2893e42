// Train/evaluate experiment harness used by the figure benchmarks.
//
// Every evaluation in the paper follows the same shape: let the policy run
// (and learn) for a training phase, then measure SR / CC / MI over an
// evaluation window. evaluate_policy packages that loop; the metric side
// lives in EvaluationAccumulator so that any day-loop driver — the single
// household path here, FleetSimulator's per-household cells, or a bench's
// custom loop — folds days into identical statistics.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/registry.h"
#include "meter/household.h"
#include "privacy/correlation.h"
#include "privacy/metrics.h"
#include "privacy/mutual_information.h"
#include "sim/day_result.h"
#include "sim/simulator.h"

namespace rlblh {

/// Phase lengths and metric settings for one evaluation.
struct EvaluationConfig {
  std::size_t train_days = 60;  ///< days run before measurement starts
  std::size_t eval_days = 120;  ///< days over which metrics are averaged
  std::size_t mi_levels = 8;    ///< MI quantization levels (2..16)
};

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

  /// Returns the accumulator to a freshly constructed state for the given
  /// geometry. The MI estimator holds only its per-day pair codes and a few
  /// KB of query scratch, so the accumulator is simply rebuilt.
  void reset(std::size_t intervals, std::size_t mi_levels, double usage_cap);

 private:
  SavingRatioAccumulator sr_;
  CorrelationAccumulator cc_;
  PairwiseMiEstimator mi_;
  double bill_cents_total_ = 0.0;
  double usage_cost_cents_total_ = 0.0;
  std::size_t battery_violations_ = 0;
  std::size_t days_ = 0;
};

/// Runs `config.train_days` days with the policy (learning as it goes), then
/// `config.eval_days` days during which SR, CC and MI are accumulated.
EvaluationResult evaluate_policy(Simulator& simulator, BlhPolicy& policy,
                                 const EvaluationConfig& config);

/// Convenience factory: a Simulator over a synthetic household with the
/// given price schedule and battery capacity. The battery starts at half
/// charge.
Simulator make_household_simulator(const HouseholdConfig& household,
                                   TouSchedule prices,
                                   double battery_capacity_kwh,
                                   std::uint64_t seed);

/// Same, but resolving the household through the household registry (name
/// plus its dotted parameter slice) instead of an explicit config.
Simulator make_household_simulator(const std::string& household,
                                   const SpecParams& params,
                                   TouSchedule prices,
                                   double battery_capacity_kwh,
                                   std::uint64_t seed);

}  // namespace rlblh
