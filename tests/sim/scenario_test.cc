// ScenarioSpec parsing/round-tripping and the registry construction path's
// equivalence to hand-wired component assembly.
#include "sim/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "baselines/mdp.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "pricing/tou.h"
#include "sim/engine.h"
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

  // The same run wired by hand into the engine, without the registries or
  // the scenario schedule.
  RlBlhConfig config;
  config.decision_interval = spec.nd;
  config.battery_capacity = spec.battery_kwh;
  config.seed = spec.seed;
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, spec.household_seed());
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(spec.battery_kwh, spec.battery_kwh / 2.0);
  SimEngine engine;
  engine.run_days(source, prices, battery, policy, spec.train_days);
  EvaluationAccumulator accumulator(source.intervals(), spec.mi_levels,
                                    source.usage_cap());
  engine.run_days(source, prices, battery, policy, spec.eval_days,
                  [&](std::size_t, const DayResult& day) {
                    accumulator.observe_day(day, prices);
                  });

  expect_bitwise_equal(registry_result, accumulator.result());
}

TEST(ScenarioBuildTest, BuildsConsistentHousehold) {
  const Scenario scenario =
      build_scenario(ScenarioSpec::parse("policy=none;battery=5"));
  EXPECT_EQ(scenario.prices.intervals(), kIntervalsPerDay);
  EXPECT_EQ(scenario.source->intervals(), kIntervalsPerDay);
  EXPECT_DOUBLE_EQ(scenario.battery.capacity(), 5.0);
  EXPECT_DOUBLE_EQ(scenario.battery.level(), 2.5);  // starts half-charged
  // A plan whose day does not match the household's fails at build time.
  EXPECT_THROW(build_scenario(ScenarioSpec::parse(
                   "policy=none;pricing=flat;pricing.intervals=48")),
               ConfigError);
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

  // The mdp baseline's offline pre-training bypasses the engine, so
  // sim.days cannot see it: the policy must still be unsolved after the
  // throw, on the run_spec path and on the scenario path alike.
  const ScenarioSpec mdp = ScenarioSpec::parse("policy=mdp;mi=17;train=20");
  EXPECT_THROW(run_spec(mdp, make_scenario_pricing(mdp)), ConfigError);
  Scenario scenario = build_scenario(mdp);
  EXPECT_THROW(run_scenario(scenario), ConfigError);
  ASSERT_NE(scenario.policy_as<MdpBlhPolicy>(), nullptr);
  EXPECT_FALSE(scenario.policy_as<MdpBlhPolicy>()->solved());
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
