// Cross-module integration tests: the full RL-BLH loop against the synthetic
// household, compared with the baselines, checking the paper's qualitative
// claims end to end (small but real workloads; a few seconds in total).
#include <gtest/gtest.h>

#include "baselines/lowpass.h"
#include "baselines/mdp.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "privacy/metrics.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace rlblh {
namespace {

RlBlhConfig fast_rl_config(unsigned seed) {
  RlBlhConfig config;
  config.battery_capacity = 5.0;
  config.decision_interval = 15;
  config.seed = seed;
  // Lighter heuristics than the paper defaults keep the tests quick while
  // preserving the mechanism.
  config.reuse_repeats = 25;
  config.synthetic_repeats = 100;
  return config;
}

/// Greedy saving ratio of the next `days` days of the household wired
/// into `engine`, with learning and exploration frozen for them.
double greedy_sr(SimEngine& engine, TraceSource& source,
                 const TouSchedule& prices, Battery& battery,
                 RlBlhPolicy& policy, int days) {
  policy.set_learning_enabled(false);
  policy.set_exploration_enabled(false);
  SavingRatioAccumulator sr;
  for (int d = 0; d < days; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, policy);
    sr.observe_day(day.usage, day.readings, prices);
  }
  policy.set_learning_enabled(true);
  policy.set_exploration_enabled(true);
  return sr.saving_ratio();
}

/// A fresh default household with seed `hseed` and a half-charged battery
/// of `capacity`, run for `train_days` and then measured over `eval_days`.
EvaluationResult train_and_evaluate(BlhPolicy& policy,
                                    const TouSchedule& prices,
                                    double capacity, std::uint64_t hseed,
                                    std::size_t train_days,
                                    std::size_t eval_days) {
  HouseholdTraceSource source(HouseholdConfig{}, hseed);
  Battery battery(capacity, capacity / 2.0);
  SimEngine engine;
  engine.run_days(source, prices, battery, policy, train_days);
  EvaluationAccumulator accumulator(source.intervals(), 8,
                                    source.usage_cap());
  engine.run_days(source, prices, battery, policy, eval_days,
                  [&](std::size_t, const DayResult& day) {
                    accumulator.observe_day(day, prices);
                  });
  return accumulator.result();
}

TEST(EndToEnd, LearningImprovesSavings) {
  HouseholdTraceSource source(HouseholdConfig{}, 11);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(5.0, 2.5);
  SimEngine engine;
  RlBlhPolicy policy(fast_rl_config(1));
  const double before =
      greedy_sr(engine, source, prices, battery, policy, 5);
  engine.run_days(source, prices, battery, policy, 35);
  const double after = greedy_sr(engine, source, prices, battery, policy, 15);
  EXPECT_GT(after, before + 0.03);  // at least 3 SR points of improvement
  EXPECT_GT(after, 0.04);           // and meaningful in absolute terms
}

TEST(EndToEnd, RlBlhHidesLowFrequencyBetterThanLowPass) {
  // The paper's Figure 5a claim, at the capacity where the contrast is
  // largest (b_M = 3): the usage/reading correlation of RL-BLH must sit
  // clearly below the low-pass scheme's. (On our synthetic household the
  // margin is a factor ~1.4, not the paper's order of magnitude; see
  // EXPERIMENTS.md for the discussion.)
  const TouSchedule prices = TouSchedule::srp_plan();
  RlBlhConfig rl_config;
  rl_config.battery_capacity = 3.0;
  rl_config.decision_interval = 10;
  rl_config.seed = 2;
  rl_config.reuse_repeats = 25;
  rl_config.synthetic_repeats = 150;
  RlBlhPolicy rl(rl_config);
  const EvaluationResult rl_result =
      train_and_evaluate(rl, prices, 3.0, 21, 40, 40);

  LowPassConfig lp_config;
  lp_config.battery_capacity = 3.0;
  LowPassPolicy lp(lp_config);
  const EvaluationResult lp_result =
      train_and_evaluate(lp, prices, 3.0, 21, 40, 40);

  EXPECT_LT(rl_result.mean_cc, 0.85 * lp_result.mean_cc);
  // And the cost claim (Figure 5c): RL-BLH's savings are by design.
  EXPECT_GT(rl_result.saving_ratio, 0.02);
}

TEST(EndToEnd, BothSchemesLeakFarLessThanRawMeter) {
  const TouSchedule prices = TouSchedule::srp_plan();

  PassthroughPolicy raw;
  const EvaluationResult raw_result =
      train_and_evaluate(raw, prices, 5.0, 31, 10, 20);

  RlBlhPolicy rl(fast_rl_config(3));
  const EvaluationResult rl_result =
      train_and_evaluate(rl, prices, 5.0, 31, 10, 20);

  EXPECT_GT(raw_result.normalized_mi, 3.0 * rl_result.normalized_mi);
  EXPECT_GT(raw_result.mean_cc, 5.0 * std::abs(rl_result.mean_cc));
}

TEST(EndToEnd, HeuristicsAccelerateConvergence) {
  // Figure 6's claim, scaled down: after a handful of days the heuristic
  // learner must be strictly better than the plain one.
  const TouSchedule prices = TouSchedule::srp_plan();
  RlBlhConfig with = fast_rl_config(4);
  RlBlhConfig without = fast_rl_config(4);
  without.enable_reuse = false;
  without.enable_synthetic = false;

  const auto trained_sr = [&](const RlBlhConfig& config) {
    HouseholdTraceSource source(HouseholdConfig{}, 41);
    Battery battery(5.0, 2.5);
    SimEngine engine;
    RlBlhPolicy policy(config);
    engine.run_days(source, prices, battery, policy, 15);
    return greedy_sr(engine, source, prices, battery, policy, 15);
  };
  const double sr_with = trained_sr(with);
  const double sr_without = trained_sr(without);
  EXPECT_GT(sr_with, sr_without + 0.02);
}

TEST(EndToEnd, MdpWithKnownDistributionIsUpperReference) {
  // Section VIII frames the DP scheme as the all-knowing (but impractical)
  // alternative: given the true distribution it should reach at least the
  // savings RL-BLH learns online.
  const TouSchedule prices = TouSchedule::srp_plan();
  MdpConfig mdp_config;
  mdp_config.battery_capacity = 5.0;
  mdp_config.decision_interval = 15;
  mdp_config.battery_levels = 64;
  MdpBlhPolicy mdp(mdp_config);
  HouseholdModel trainer(HouseholdConfig{}, 51);
  for (int d = 0; d < 100; ++d) {
    mdp.observe_training_day(trainer.generate_day(), prices);
  }
  mdp.solve();
  HouseholdTraceSource source(HouseholdConfig{}, 52);
  Battery battery(5.0, 2.5);
  SimEngine engine;
  SavingRatioAccumulator mdp_sr;
  for (int d = 0; d < 20; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, mdp);
    mdp_sr.observe_day(day.usage, day.readings, prices);
  }
  EXPECT_GT(mdp_sr.saving_ratio(), 0.12);
}

TEST(EndToEnd, AdaptsAfterBehaviourShift) {
  // Section VIII: the weights keep updating, so savings recover after the
  // household pattern changes.
  const TouSchedule prices = TouSchedule::srp_plan();
  HouseholdTraceSource source(HouseholdConfig{}, 61);
  Battery battery(5.0, 2.5);
  SimEngine engine;
  RlBlhPolicy policy(fast_rl_config(5));
  engine.run_days(source, prices, battery, policy, 20);

  HouseholdConfig shifted;
  shifted.wake_mean = 700.0;
  shifted.leave_mean = 800.0;
  shifted.back_mean = 1200.0;
  shifted.sleep_mean = 1430.0;
  source.model().set_config(shifted);

  engine.run_days(source, prices, battery, policy, 25);  // re-adaptation
  const double recovered =
      greedy_sr(engine, source, prices, battery, policy, 15);
  EXPECT_GT(recovered, 0.03);
}

}  // namespace
}  // namespace rlblh
