// The train/evaluate schedule (run_scenario) end to end on small
// households: phase lengths, the passthrough baseline's metrics, RL-BLH's
// advantage over it and the fail-fast checks that run before any day.
#include "sim/experiment.h"

#include <gtest/gtest.h>

#include "core/rlblh_policy.h"
#include "sim/scenario.h"
#include "util/error.h"

namespace rlblh {
namespace {

TEST(Experiment, RejectsZeroEvalDays) {
  Scenario scenario =
      build_scenario(ScenarioSpec::parse("policy=none;hseed=2;eval=0"));
  EXPECT_THROW(run_scenario(scenario), ConfigError);
}

TEST(Experiment, PassthroughBaselineMetrics) {
  Scenario scenario = build_scenario(
      ScenarioSpec::parse("policy=none;hseed=3;train=0;eval=12"));
  const EvaluationResult r = run_scenario(scenario);
  // y == x: no savings, perfect correlation, full information leakage.
  EXPECT_NEAR(r.saving_ratio, 0.0, 1e-12);
  EXPECT_NEAR(r.mean_cc, 1.0, 1e-9);
  EXPECT_GT(r.normalized_mi, 0.9);
  EXPECT_EQ(r.battery_violations, 0u);
  EXPECT_NEAR(r.mean_daily_bill_cents, r.mean_daily_usage_cost_cents, 1e-9);
}

TEST(Experiment, RlBlhBeatsPassthroughOnPrivacyAndCost) {
  // Keep the test fast: light heuristics.
  Scenario scenario = build_scenario(ScenarioSpec::parse(
      "policy=rlblh;battery=5;nd=15;seed=5;hseed=4;train=15;eval=15;"
      "policy.reuse_repeats=20;policy.syn_repeats=50"));
  const EvaluationResult r = run_scenario(scenario);
  EXPECT_GT(r.saving_ratio, 0.0);
  EXPECT_LT(r.mean_cc, 0.5);
  EXPECT_LT(r.normalized_mi, 0.6);
  EXPECT_EQ(r.battery_violations, 0u);
}

TEST(Experiment, TrainPhaseRunsThePolicy) {
  Scenario scenario = build_scenario(ScenarioSpec::parse(
      "policy=rlblh;battery=5;nd=15;hseed=6;train=3;eval=2;"
      "policy.reuse=false;policy.syn=false"));
  run_scenario(scenario);
  EXPECT_EQ(scenario.policy_as<RlBlhPolicy>()->days_completed(), 5u);
}

TEST(Experiment, BadMiLevelsFailBeforeTheFirstTrainingDay) {
  // run_scenario leases its accumulator before training, so a level count
  // the MI estimator rejects fails before any day runs.
  Scenario scenario = build_scenario(ScenarioSpec::parse(
      "policy=rlblh;nd=15;hseed=9;train=3;eval=2;mi=17;"
      "policy.reuse=false;policy.syn=false"));
  EXPECT_THROW(run_scenario(scenario), ConfigError);
  EXPECT_EQ(scenario.policy_as<RlBlhPolicy>()->days_completed(), 0u);
}

}  // namespace
}  // namespace rlblh
