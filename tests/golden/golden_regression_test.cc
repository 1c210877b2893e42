// Golden-file regression tests for the fig4-fig9 benchmark scenarios.
//
// Each test runs a down-scaled but seeded version of one figure scenario
// and compares a handful of summary numbers against a committed golden
// file, so silent behaviour drift (a changed RNG stream, a reordered
// update, an accounting slip) fails CI with a diff instead of quietly
// bending the paper's curves. The scenarios are deliberately small: the
// point is pinning the seeded trajectory, not reproducing the figures.
//
// To refresh after an intentional behaviour change:
//   RLBLH_GOLDEN_REGEN=1 ctest -R Golden
// then review the diff of tests/golden/data/ like any other code change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/lowpass.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "pricing/tou.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/fleet.h"

namespace rlblh {
namespace {

using Series = std::vector<std::pair<std::string, double>>;

std::string golden_path(const std::string& scenario) {
  return std::string(RLBLH_GOLDEN_DIR) + "/" + scenario + ".golden";
}

void write_golden(const std::string& scenario, const Series& series) {
  const std::string path = golden_path(scenario);
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write " << path;
  out.precision(17);
  for (const auto& [key, value] : series) out << key << ' ' << value << '\n';
}

Series read_golden(const std::string& scenario) {
  const std::string path = golden_path(scenario);
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with RLBLH_GOLDEN_REGEN=1";
  Series series;
  std::string key;
  double value = 0.0;
  while (in >> key >> value) series.emplace_back(key, value);
  return series;
}

/// Compares the freshly computed series against the committed golden file,
/// or rewrites the file when RLBLH_GOLDEN_REGEN is set.
void expect_matches_golden(const std::string& scenario, const Series& fresh) {
  if (std::getenv("RLBLH_GOLDEN_REGEN") != nullptr) {
    write_golden(scenario, fresh);
    GTEST_SKIP() << "regenerated " << golden_path(scenario);
  }
  const Series pinned = read_golden(scenario);
  ASSERT_EQ(pinned.size(), fresh.size()) << "key set changed for " << scenario;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(pinned[i].first, fresh[i].first) << "key order changed";
    // Tight relative tolerance: same-toolchain reruns are bit-identical;
    // the slack only absorbs printing round-trips.
    EXPECT_NEAR(pinned[i].second, fresh[i].second,
                1e-9 * (1.0 + std::abs(pinned[i].second)))
        << scenario << ": " << fresh[i].first << " drifted";
  }
}

/// The figure scenarios' shared setup, scaled down for test time.
RlBlhConfig scenario_config(std::size_t decision_interval, double battery,
                            std::uint64_t seed) {
  RlBlhConfig config;
  config.decision_interval = decision_interval;
  config.battery_capacity = battery;
  config.seed = seed;
  config.reuse_days = 3;
  config.reuse_repeats = 5;
  config.synthetic_period = 5;
  config.synthetic_repeats = 10;
  return config;
}

/// Folds the next `days` days of the household wired into `engine` into
/// the paper's metrics (8 MI levels).
EvaluationResult measure(SimEngine& engine, TraceSource& source,
                         const TouSchedule& prices, Battery& battery,
                         BlhPolicy& policy, std::size_t days) {
  EvaluationAccumulator accumulator(source.intervals(), 8,
                                    source.usage_cap());
  engine.run_days(source, prices, battery, policy, days,
                  [&](std::size_t, const DayResult& day) {
                    accumulator.observe_day(day, prices);
                  });
  return accumulator.result();
}

TEST(GoldenRegression, Fig4DayTraces) {
  // Figure 4: one day of meter readings per scheme after a short burn-in.
  const TouSchedule prices = TouSchedule::srp_plan();
  Series series;
  // Sized up front here and in Fig5: at -O2, GCC 12 reports a false
  // -Warray-bounds on the first insert into the empty vector otherwise.
  series.reserve(8);
  {
    RlBlhConfig config = scenario_config(15, 5.0, 41);
    RlBlhPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 141);
    Battery battery(5.0, 2.5);
    SimEngine engine;
    const DayResult& day =
        engine.run_days(source, prices, battery, policy, 6);
    series.emplace_back("rlblh_readings_total", day.readings.total());
    series.emplace_back("rlblh_readings_peak", day.readings.peak());
    series.emplace_back("rlblh_savings_cents", day.savings_cents);
  }
  {
    LowPassConfig config;
    config.battery_capacity = 3.0;
    LowPassPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 142);
    Battery battery(3.0, 1.5);
    SimEngine engine;
    const DayResult& day =
        engine.run_days(source, prices, battery, policy, 6);
    series.emplace_back("lowpass_readings_total", day.readings.total());
    series.emplace_back("lowpass_readings_peak", day.readings.peak());
    series.emplace_back("lowpass_savings_cents", day.savings_cents);
  }
  {
    PassthroughPolicy policy;
    HouseholdTraceSource source(HouseholdConfig{}, 143);
    Battery battery(5.0, 2.5);
    SimEngine engine;
    const DayResult& day = engine.run_day(source, prices, battery, policy);
    series.emplace_back("none_readings_total", day.readings.total());
    series.emplace_back("none_savings_cents", day.savings_cents);
  }
  expect_matches_golden("fig4_traces", series);
}

TEST(GoldenRegression, Fig5CompareLowpass) {
  // Figure 5: cost metrics, RL-BLH against the low-pass baseline, each
  // measured over 4 days after 8 days of training.
  const TouSchedule prices = TouSchedule::srp_plan();
  Series series;
  series.reserve(6);
  {
    RlBlhConfig config = scenario_config(15, 5.0, 51);
    RlBlhPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 151);
    Battery battery(5.0, 2.5);
    SimEngine engine;
    engine.run_days(source, prices, battery, policy, 8);
    const EvaluationResult r =
        measure(engine, source, prices, battery, policy, 4);
    series.emplace_back("rlblh_sr", r.saving_ratio);
    series.emplace_back("rlblh_savings_cents", r.mean_daily_savings_cents);
    series.emplace_back("rlblh_cc", r.mean_cc);
  }
  {
    LowPassConfig config;
    config.battery_capacity = 5.0;
    LowPassPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 152);
    Battery battery(5.0, 2.5);
    SimEngine engine;
    engine.run_days(source, prices, battery, policy, 8);
    const EvaluationResult r =
        measure(engine, source, prices, battery, policy, 4);
    series.emplace_back("lowpass_sr", r.saving_ratio);
    series.emplace_back("lowpass_savings_cents", r.mean_daily_savings_cents);
    series.emplace_back("lowpass_cc", r.mean_cc);
  }
  expect_matches_golden("fig5_compare_lowpass", series);
}

TEST(GoldenRegression, Fig6Convergence) {
  // Figure 6: the TD-error trajectory over the first training days.
  RlBlhConfig config = scenario_config(15, 5.0, 61);
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 161);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(5.0, 2.5);
  SimEngine engine;
  engine.run_days(source, prices, battery, policy, 15);
  const auto& stats = policy.day_stats();
  Series series;
  for (const std::size_t d : {0u, 4u, 9u, 14u}) {
    series.emplace_back("td_error_day" + std::to_string(d + 1),
                        stats[d].mean_abs_td_error);
  }
  series.emplace_back("savings_day15", stats[14].realized_savings);
  expect_matches_golden("fig6_convergence", series);
}

TEST(GoldenRegression, Fig7Heuristics) {
  // Figure 7: learning speed with and without the REUSE/SYN heuristics.
  Series series;
  for (const bool heuristics : {true, false}) {
    RlBlhConfig config = scenario_config(15, 5.0, 71);
    config.enable_reuse = heuristics;
    config.enable_synthetic = heuristics;
    RlBlhPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 171);
    const TouSchedule prices = TouSchedule::srp_plan();
    Battery battery(5.0, 2.5);
    SimEngine engine;
    engine.run_days(source, prices, battery, policy, 6);
    policy.set_learning_enabled(false);
    policy.set_exploration_enabled(false);
    const EvaluationResult r =
        measure(engine, source, prices, battery, policy, 3);
    series.emplace_back(heuristics ? "sr_with_heuristics" : "sr_without",
                        r.saving_ratio);
  }
  expect_matches_golden("fig7_heuristics", series);
}

TEST(GoldenRegression, Fig8DecisionInterval) {
  // Figure 8: the saving ratio across pulse widths.
  Series series;
  for (const std::size_t n_d : {10u, 15u, 30u}) {
    RlBlhConfig config = scenario_config(n_d, 5.0, 81);
    RlBlhPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 181);
    const TouSchedule prices = TouSchedule::srp_plan();
    Battery battery(5.0, 2.5);
    SimEngine engine;
    engine.run_days(source, prices, battery, policy, 6);
    const EvaluationResult r =
        measure(engine, source, prices, battery, policy, 3);
    series.emplace_back("sr_nd" + std::to_string(n_d), r.saving_ratio);
  }
  expect_matches_golden("fig8_decision_interval", series);
}

TEST(GoldenRegression, Fig9BatteryCapacity) {
  // Figure 9: the saving ratio across battery capacities.
  Series series;
  for (const double b_m : {3.0, 5.0, 8.0}) {
    RlBlhConfig config = scenario_config(15, b_m, 91);
    RlBlhPolicy policy(config);
    HouseholdTraceSource source(HouseholdConfig{}, 191);
    const TouSchedule prices = TouSchedule::srp_plan();
    Battery battery(b_m, b_m / 2.0);
    SimEngine engine;
    engine.run_days(source, prices, battery, policy, 6);
    const EvaluationResult r =
        measure(engine, source, prices, battery, policy, 3);
    std::ostringstream key;
    key << "sr_bm" << b_m;
    series.emplace_back(key.str(), r.saving_ratio);
  }
  expect_matches_golden("fig9_battery_capacity", series);
}

TEST(GoldenRegression, FleetAggregates) {
  // A small heterogeneous fleet: pins the per-household stream derivation
  // and the mean/p50/p95 aggregation, on top of the per-policy scenarios
  // the figure goldens above already cover.
  const char* const specs[] = {
      "policy=rlblh;household=default;pricing=srp;battery=4;train=2;eval=2",
      "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3;"
      "train=1;eval=2",
      "policy=stepping;household=night_owl;pricing=tou3;battery=5;"
      "train=1;eval=2",
      "policy=none;household=apartment;pricing=flat;train=0;eval=2",
      "policy=rlblh;household=ev_owner;pricing=srp;battery=5;train=2;eval=2",
  };
  std::vector<ScenarioSpec> fleet;
  for (const char* spec : specs) fleet.push_back(ScenarioSpec::parse(spec));
  FleetSimulator simulator(std::move(fleet), FleetOptions{/*threads=*/2});
  const FleetResult result = simulator.run(/*fleet_seed=*/2026);

  Series series;
  series.emplace_back("sr_mean", result.saving_ratio.mean);
  series.emplace_back("sr_p50", result.saving_ratio.p50);
  series.emplace_back("sr_p95", result.saving_ratio.p95);
  series.emplace_back("cc_mean", result.mean_cc.mean);
  series.emplace_back("cc_p95", result.mean_cc.p95);
  series.emplace_back("mi_mean", result.normalized_mi.mean);
  series.emplace_back("mi_p95", result.normalized_mi.p95);
  for (std::size_t i = 0; i < result.households.size(); ++i) {
    series.emplace_back("household" + std::to_string(i) + "_sr",
                        result.households[i].saving_ratio);
  }
  series.emplace_back("violations",
                      static_cast<double>(result.battery_violations));
  expect_matches_golden("fleet_aggregates", series);
}

}  // namespace
}  // namespace rlblh
