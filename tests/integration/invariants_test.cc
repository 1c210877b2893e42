// System-level invariants checked over the full policy/battery/engine
// stack. The per-interval assertions live in sim/invariants.h's
// InvariantChecker (shared with the property suites and the CLI); these
// tests wire it into real simulations, including the decision-interval
// sweep over divisor and non-divisor pulse widths.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/lowpass.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "pricing/tou.h"
#include "sim/engine.h"
#include "sim/invariants.h"

namespace rlblh {
namespace {

InvariantCheckConfig pulse_check(const RlBlhConfig& config) {
  InvariantCheckConfig check;
  check.battery_capacity = config.battery_capacity;
  check.usage_cap = config.usage_cap;
  check.decision_interval = config.decision_interval;
  check.expect_feasible = true;
  return check;
}

class DecisionIntervalSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DecisionIntervalSweep, PulsesHaveExactWidthAndBatteryStaysLegal) {
  const std::size_t n_d = GetParam();
  RlBlhConfig config;
  config.decision_interval = n_d;
  config.battery_capacity = 5.0;
  config.seed = 3;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 71);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(5.0, 2.5);
  SimEngine engine;
  // The checker enforces, per interval: battery in [0, b_M], readings in
  // [0, x_M], rectangular pulses of width n_D (last one truncated when n_D
  // does not divide n_M), the Section III-B feasibility rule, energy
  // conservation and the savings accounting — run_day throws on any miss.
  engine.enable_invariant_checks(pulse_check(config));
  for (int d = 0; d < 10; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, policy);
    ASSERT_EQ(day.battery_violations, 0u);
  }
}

// 1 and the divisors exercise every pulse boundary; 7, 13 and 31 leave
// truncated last pulses of widths 5, 10 and 14 (b_M = 5 admits n_D <= 31).
INSTANTIATE_TEST_SUITE_P(Sweep, DecisionIntervalSweep,
                         ::testing::Values(1, 5, 7, 13, 15, 20, 30, 31));

TEST(Invariants, CheckerAcceptsEnergyConservationAcrossDay) {
  RlBlhConfig config;
  config.battery_capacity = 5.0;
  config.decision_interval = 15;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 72);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(5.0, 2.5);
  SimEngine engine;
  const InvariantChecker checker(pulse_check(config));
  for (int d = 0; d < 10; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, policy);
    ASSERT_EQ(day.battery_violations, 0u);
    const auto violations = checker.check_day(day, prices, battery.level());
    ASSERT_TRUE(violations.empty())
        << violations.size() << " violation(s), first: "
        << violations.front().detail;
    // The checker's energy invariant is the identity the old hand-rolled
    // loop asserted: sum(y) - sum(x) == level(end) - level(start).
    const double start = day.battery_levels.front();
    const double end = battery.level();
    ASSERT_NEAR(day.readings.total() - day.usage.total(), end - start, 1e-9);
  }
}

TEST(Invariants, SavingsIdentityUnderEveryPolicy) {
  const TouSchedule prices = TouSchedule::srp_plan();
  HouseholdTraceSource source(HouseholdConfig{}, 73);
  Battery battery(5.0, 2.5);
  SimEngine engine;
  // Low-pass is not pulse-shaped and may clip: bounds + accounting profile.
  InvariantCheckConfig check;
  check.battery_capacity = 5.0;
  check.expect_feasible = false;
  engine.enable_invariant_checks(check);
  LowPassConfig lp_config;
  lp_config.battery_capacity = 5.0;
  LowPassPolicy lp(lp_config);
  for (int d = 0; d < 10; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, lp);
    ASSERT_NEAR(day.savings_cents + day.bill_cents, day.usage_cost_cents,
                1e-9);
  }
}

TEST(Invariants, LossyBatteryStillLegalUnderRlBlh) {
  // Footnote 2: with charge/discharge losses the feasibility rule is no
  // longer airtight, but the physical battery must still clip into
  // [0, b_M] and the engine must report what the grid actually served.
  RlBlhConfig config;
  config.battery_capacity = 5.0;
  config.decision_interval = 15;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 74);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery lossy(5.0, 2.5, /*charge_efficiency=*/0.92,
                /*discharge_efficiency=*/0.92);
  SimEngine engine;
  InvariantCheckConfig check;
  check.battery_capacity = 5.0;
  check.usage_cap = config.usage_cap;
  check.decision_interval = config.decision_interval;
  check.expect_feasible = false;  // losses void the lossless guarantees
  engine.enable_invariant_checks(check);
  for (int d = 0; d < 20; ++d) {
    // The checker throws on a bound/accounting miss.
    (void)engine.run_day(source, prices, lossy, policy);
  }
}

TEST(Invariants, LowPassBatteryStaysLegal) {
  LowPassConfig config;
  config.battery_capacity = 3.0;
  LowPassPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 75);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(3.0, 1.5);
  SimEngine engine;
  InvariantCheckConfig check;
  check.battery_capacity = 3.0;
  check.expect_feasible = false;
  engine.enable_invariant_checks(check);
  for (int d = 0; d < 20; ++d) {
    (void)engine.run_day(source, prices, battery, policy);
  }
}

TEST(Invariants, LongRunStabilityWithFullHeuristics) {
  // 60 days with the paper's full heuristic schedule: no violations, no
  // NaNs in the weights, day stats recorded for every day.
  RlBlhConfig config;
  config.battery_capacity = 5.0;
  config.decision_interval = 15;
  config.seed = 9;
  config.reuse_repeats = 30;      // lighter than the paper, same schedule
  config.synthetic_repeats = 100;
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 76);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(5.0, 2.5);
  SimEngine engine;
  engine.enable_invariant_checks(pulse_check(config));
  for (int d = 0; d < 60; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, policy);
    ASSERT_EQ(day.battery_violations, 0u);
  }
  ASSERT_EQ(policy.day_stats().size(), 60u);
  for (std::size_t a = 0; a < config.num_actions; ++a) {
    for (const double w : policy.q().function(a).weights()) {
      ASSERT_TRUE(std::isfinite(w));
    }
  }
  // TD error must have come down from its early level (convergence).
  const auto& stats = policy.day_stats();
  double early = 0.0, late = 0.0;
  for (int d = 0; d < 5; ++d) {
    early += stats[static_cast<std::size_t>(d)].mean_abs_td_error;
  }
  for (int d = 55; d < 60; ++d) {
    late += stats[static_cast<std::size_t>(d)].mean_abs_td_error;
  }
  EXPECT_LT(late, early);
}

TEST(Invariants, TruncatedLastPulseIsRectangular) {
  // n_D = 13 leaves a 10-interval tail (1440 = 110 * 13 + 10): the day's
  // last pulse must still be constant and the decision count must match.
  RlBlhConfig config;
  config.decision_interval = 13;
  config.battery_capacity = 5.0;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  ASSERT_EQ(config.decisions_per_day(), 111u);
  ASSERT_EQ(config.decision_width(110), 10u);
  RlBlhPolicy policy(config);
  HouseholdTraceSource source(HouseholdConfig{}, 77);
  const TouSchedule prices = TouSchedule::srp_plan();
  Battery battery(5.0, 2.5);
  SimEngine engine;
  engine.enable_invariant_checks(pulse_check(config));
  const DayResult& day = engine.run_day(source, prices, battery, policy);
  const std::size_t tail_begin = 110 * 13;
  for (std::size_t n = tail_begin; n < day.readings.intervals(); ++n) {
    ASSERT_DOUBLE_EQ(day.readings.at(n), day.readings.at(tail_begin));
  }
}

}  // namespace
}  // namespace rlblh
