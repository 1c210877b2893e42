// ScenarioSpec parsing/round-tripping and the registry construction path's
// equivalence to hand-wired component assembly.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "pricing/tou.h"
#include "sim/experiment.h"
#include "util/error.h"

namespace rlblh {
namespace {

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  static_assert(sizeof(out) == sizeof(value));
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

void expect_bitwise_equal(const EvaluationResult& a,
                          const EvaluationResult& b) {
  EXPECT_EQ(bits(a.saving_ratio), bits(b.saving_ratio));
  EXPECT_EQ(bits(a.mean_cc), bits(b.mean_cc));
  EXPECT_EQ(bits(a.normalized_mi), bits(b.normalized_mi));
  EXPECT_EQ(bits(a.mean_daily_savings_cents), bits(b.mean_daily_savings_cents));
  EXPECT_EQ(bits(a.mean_daily_bill_cents), bits(b.mean_daily_bill_cents));
  EXPECT_EQ(bits(a.mean_daily_usage_cost_cents),
            bits(b.mean_daily_usage_cost_cents));
  EXPECT_EQ(a.battery_violations, b.battery_violations);
}

TEST(ScenarioSpecTest, ParseRoutesFieldsAndDottedParams) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "policy=lowpass;household=night_owl;pricing=tou3;battery=13.5;nd=10;"
      "seed=11;hseed=12;train=5;eval=6;mi=4;"
      "policy.smoothing=0.5;household.scale=1.2;pricing.peak_rate=30");
  EXPECT_EQ(spec.policy, "lowpass");
  EXPECT_EQ(spec.household, "night_owl");
  EXPECT_EQ(spec.pricing, "tou3");
  EXPECT_EQ(spec.battery_kwh, 13.5);
  EXPECT_EQ(spec.nd, 10u);
  EXPECT_EQ(spec.seed, 11u);
  ASSERT_TRUE(spec.hseed.has_value());
  EXPECT_EQ(*spec.hseed, 12u);
  EXPECT_EQ(spec.train_days, 5u);
  EXPECT_EQ(spec.eval_days, 6u);
  EXPECT_EQ(spec.mi_levels, 4u);
  EXPECT_EQ(spec.policy_params.get_double("smoothing", 0.0), 0.5);
  EXPECT_EQ(spec.household_params.get_double("scale", 0.0), 1.2);
  EXPECT_EQ(spec.pricing_params.get_double("peak_rate", 0.0), 30.0);
}

TEST(ScenarioSpecTest, ParseRejectsUnknownKeys) {
  EXPECT_THROW(ScenarioSpec::parse("polcy=rlblh"), ConfigError);
  EXPECT_THROW(ScenarioSpec::parse("meter.scale=2"), ConfigError);
  EXPECT_THROW(ScenarioSpec::parse("policy.=1"), ConfigError);
}

TEST(ScenarioSpecTest, CanonicalRoundTrips) {
  const char* given =
      "eval=6;policy=lowpass;battery=3;policy.smoothing=0.25;train=5";
  const ScenarioSpec spec = ScenarioSpec::parse(given);
  const std::string canonical = spec.canonical();
  EXPECT_EQ(ScenarioSpec::parse(canonical).canonical(), canonical);
  // hseed is printed only when it was set explicitly, so the default
  // seed + 1000 coupling survives later seed edits.
  EXPECT_EQ(canonical.find("hseed"), std::string::npos);
  ScenarioSpec pinned = spec;
  pinned.hseed = 99;
  EXPECT_NE(pinned.canonical().find("hseed=99"), std::string::npos);
  EXPECT_EQ(ScenarioSpec::parse(pinned.canonical()).canonical(),
            pinned.canonical());
}

TEST(ScenarioSpecTest, HouseholdSeedDefaultsToSeedPlus1000) {
  ScenarioSpec spec;
  spec.seed = 41;
  EXPECT_EQ(spec.household_seed(), 1041u);
  spec.hseed = 5;
  EXPECT_EQ(spec.household_seed(), 5u);
}

TEST(ScenarioBuildTest, RegistryPathMatchesManualWiringBitwise) {
  ScenarioSpec spec;
  spec.nd = 15;
  spec.battery_kwh = 4.0;
  spec.seed = 21;
  spec.train_days = 3;
  spec.eval_days = 2;

  Scenario scenario = build_scenario(spec);
  const EvaluationResult registry_result = run_scenario(scenario);

  // The same run assembled by hand, the way call sites did before the
  // registry existed.
  RlBlhConfig config;
  config.decision_interval = spec.nd;
  config.battery_capacity = spec.battery_kwh;
  config.seed = spec.seed;
  RlBlhPolicy policy(config);
  Simulator simulator =
      make_household_simulator(HouseholdConfig{}, TouSchedule::srp_plan(),
                               spec.battery_kwh, spec.household_seed());
  EvaluationConfig eval;
  eval.train_days = spec.train_days;
  eval.eval_days = spec.eval_days;
  eval.mi_levels = spec.mi_levels;
  const EvaluationResult manual_result =
      evaluate_policy(simulator, policy, eval);

  expect_bitwise_equal(registry_result, manual_result);
}

TEST(ScenarioBuildTest, RunSpecMatchesRunScenarioBitwise) {
  ScenarioSpec spec = ScenarioSpec::parse(
      "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3;"
      "seed=13;train=2;eval=3");
  Scenario scenario = build_scenario(spec);
  const EvaluationResult via_scenario = run_scenario(scenario);
  const TouSchedule prices = make_scenario_pricing(spec);
  const EvaluationResult via_engine = run_spec(spec, prices);
  expect_bitwise_equal(via_scenario, via_engine);
}

TEST(ScenarioBuildTest, RunSpecRejectsMiLevelsBeyondTheEstimatorsCells) {
  const ScenarioSpec spec =
      ScenarioSpec::parse("mi=4294967296;train=1;eval=2");
  EXPECT_THROW(run_spec(spec, make_scenario_pricing(spec)), ConfigError);
}

TEST(ScenarioBuildTest, RunSpecRejectsMiLevelsBeforeAnyDayRuns) {
  // 17 levels do not fit the estimator's 8 + 8 code bits. The accumulator
  // is built before pre-training and training, so the run fails before a
  // single day is simulated: sim.days stays 0 while observability records.
  const ScenarioSpec spec = ScenarioSpec::parse("mi=17;train=3;eval=2");
  obs::registry().reset();
  obs::set_enabled(true);
  EXPECT_THROW(run_spec(spec, make_scenario_pricing(spec)), ConfigError);
  obs::set_enabled(false);
#if RLBLH_OBS_ENABLED
  EXPECT_EQ(obs::registry().counter("sim.days").value(), 0);
#endif
  obs::registry().reset();
}

TEST(ScenarioBuildTest, MdpPretrainIsDeterministic) {
  ScenarioSpec spec = ScenarioSpec::parse(
      "policy=mdp;battery=3;seed=19;train=2;eval=2;"
      "policy.levels=16;policy.usage_levels=8");
  Scenario first = build_scenario(spec);
  Scenario second = build_scenario(spec);
  expect_bitwise_equal(run_scenario(first), run_scenario(second));
}

}  // namespace
}  // namespace rlblh
