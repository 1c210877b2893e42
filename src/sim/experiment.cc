#include "sim/experiment.h"

#include "obs/obs.h"
#include "util/error.h"

namespace rlblh {

EvaluationAccumulator::EvaluationAccumulator(std::size_t intervals,
                                             std::size_t mi_levels,
                                             double usage_cap)
    : mi_(intervals, mi_levels, usage_cap, usage_cap) {}

void EvaluationAccumulator::observe_day(const DayResult& day,
                                        const TouSchedule& prices) {
  RLBLH_OBS_NOW(observe_start);
  sr_.observe_day(day.usage, day.readings, prices);
  cc_.observe_day(day.usage, day.readings);
  mi_.observe_day(day.usage, day.readings);
  battery_violations_ += day.battery_violations;
  bill_cents_total_ += day.bill_cents;
  usage_cost_cents_total_ += day.usage_cost_cents;
  ++days_;
  RLBLH_OBS_COUNT("eval.days", 1);
  RLBLH_OBS_COUNT_NS_SINCE("eval.observe_ns", observe_start);
}

EvaluationResult EvaluationAccumulator::result() const {
  RLBLH_REQUIRE(days_ >= 1,
                "EvaluationAccumulator: need at least one observed day");
  RLBLH_OBS_NOW(result_start);
  const auto days = static_cast<double>(days_);
  EvaluationResult result;
  result.saving_ratio = sr_.saving_ratio();
  result.mean_cc = cc_.mean_cc();
  result.normalized_mi = mi_.normalized_mi();
  result.mean_daily_savings_cents = sr_.mean_daily_savings_cents();
  result.mean_daily_bill_cents = bill_cents_total_ / days;
  result.mean_daily_usage_cost_cents = usage_cost_cents_total_ / days;
  result.battery_violations = battery_violations_;
  RLBLH_OBS_COUNT_NS_SINCE("eval.result_ns", result_start);
  return result;
}

}  // namespace rlblh
