#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <vector>

#include "baselines/lowpass.h"
#include "core/rlblh_policy.h"
#include "util/error.h"

namespace rlblh {
namespace {

HouseholdConfig small_household() {
  HouseholdConfig home;
  // Full-size day but defaults otherwise; experiments here are short.
  return home;
}

TEST(Experiment, FactoryBuildsConsistentSimulator) {
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 1);
  EXPECT_EQ(sim.prices().intervals(), kIntervalsPerDay);
  EXPECT_DOUBLE_EQ(sim.battery().capacity(), 5.0);
  EXPECT_DOUBLE_EQ(sim.battery().level(), 2.5);  // starts half-charged
  EXPECT_EQ(sim.source().intervals(), kIntervalsPerDay);
}

TEST(Experiment, RejectsZeroEvalDays) {
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 2);
  PassthroughPolicy policy;
  EvaluationConfig config;
  config.eval_days = 0;
  EXPECT_THROW(evaluate_policy(sim, policy, config), ConfigError);
}

TEST(Experiment, PassthroughBaselineMetrics) {
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 3);
  PassthroughPolicy policy;
  EvaluationConfig config;
  config.train_days = 0;
  config.eval_days = 12;
  const EvaluationResult r = evaluate_policy(sim, policy, config);
  // y == x: no savings, perfect correlation, full information leakage.
  EXPECT_NEAR(r.saving_ratio, 0.0, 1e-12);
  EXPECT_NEAR(r.mean_cc, 1.0, 1e-9);
  EXPECT_GT(r.normalized_mi, 0.9);
  EXPECT_EQ(r.battery_violations, 0u);
  EXPECT_NEAR(r.mean_daily_bill_cents, r.mean_daily_usage_cost_cents, 1e-9);
}

TEST(Experiment, RlBlhBeatsPassthroughOnPrivacyAndCost) {
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 4);
  RlBlhConfig config;
  config.battery_capacity = 5.0;
  config.decision_interval = 15;
  config.seed = 5;
  // Keep the test fast: light heuristics.
  config.reuse_repeats = 20;
  config.synthetic_repeats = 50;
  RlBlhPolicy policy(config);
  EvaluationConfig eval;
  eval.train_days = 15;
  eval.eval_days = 15;
  const EvaluationResult r = evaluate_policy(sim, policy, eval);
  EXPECT_GT(r.saving_ratio, 0.0);
  EXPECT_LT(r.mean_cc, 0.5);
  EXPECT_LT(r.normalized_mi, 0.6);
  EXPECT_EQ(r.battery_violations, 0u);
}

TEST(Experiment, TrainPhaseRunsThePolicy) {
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 6);
  RlBlhConfig config;
  config.battery_capacity = 5.0;
  config.decision_interval = 15;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  EvaluationConfig eval;
  eval.train_days = 3;
  eval.eval_days = 2;
  evaluate_policy(sim, policy, eval);
  EXPECT_EQ(policy.days_completed(), 5u);
}

TEST(Experiment, BadMiLevelsFailBeforeTheFirstTrainingDay) {
  // evaluate_policy builds its accumulator before training, so a level
  // count the MI estimator rejects fails before any day runs.
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 9);
  RlBlhConfig config;
  config.decision_interval = 15;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  EvaluationConfig eval;
  eval.train_days = 3;
  eval.eval_days = 2;
  eval.mi_levels = 17;
  EXPECT_THROW(evaluate_policy(sim, policy, eval), ConfigError);
  EXPECT_EQ(policy.days_completed(), 0u);
}

TEST(Experiment, AccumulatorResetMatchesFreshConstruction) {
  // reset() must reproduce fresh-constructed results bitwise, both when
  // the geometry repeats and when it changes between runs.
  Simulator sim = make_household_simulator(small_household(),
                                           TouSchedule::srp_plan(), 5.0, 9);
  LowPassConfig lp;
  lp.battery_capacity = 5.0;
  LowPassPolicy policy(lp);

  std::vector<DayResult> days;
  for (int d = 0; d < 4; ++d) days.push_back(sim.run_day(policy));

  const auto observe_all = [&](EvaluationAccumulator& accumulator) {
    for (const DayResult& day : days) {
      accumulator.observe_day(day, sim.prices());
    }
    return accumulator.result();
  };

  EvaluationAccumulator fresh(kIntervalsPerDay, 8, sim.source().usage_cap());
  const EvaluationResult expected = observe_all(fresh);

  EvaluationAccumulator recycled(kIntervalsPerDay, 8,
                                 sim.source().usage_cap());
  observe_all(recycled);
  // Same geometry.
  recycled.reset(kIntervalsPerDay, 8, sim.source().usage_cap());
  EXPECT_EQ(recycled.days(), 0u);
  const EvaluationResult same_geometry = observe_all(recycled);
  // Different geometry, then back to the first.
  recycled.reset(kIntervalsPerDay, 4, sim.source().usage_cap());
  observe_all(recycled);
  recycled.reset(kIntervalsPerDay, 8, sim.source().usage_cap());
  const EvaluationResult regeometried = observe_all(recycled);

  for (const EvaluationResult& actual : {same_geometry, regeometried}) {
    EXPECT_EQ(actual.saving_ratio, expected.saving_ratio);
    EXPECT_EQ(actual.mean_cc, expected.mean_cc);
    EXPECT_EQ(actual.normalized_mi, expected.normalized_mi);
    EXPECT_EQ(actual.mean_daily_savings_cents,
              expected.mean_daily_savings_cents);
    EXPECT_EQ(actual.mean_daily_bill_cents, expected.mean_daily_bill_cents);
    EXPECT_EQ(actual.mean_daily_usage_cost_cents,
              expected.mean_daily_usage_cost_cents);
    EXPECT_EQ(actual.battery_violations, expected.battery_violations);
  }
}

}  // namespace
}  // namespace rlblh
