// Property suites: every implemented policy, driven over randomized
// configurations, must satisfy the paper's system-model invariants on every
// simulated day. The InvariantChecker is armed in the SimEngine, so a
// violating day throws and the harness reports a shrunk config plus the
// RLBLH_PROPTEST_SEED needed to replay it.
//
// Labeled `proptest` in CTest; filter with `ctest -LE proptest` to skip, or
// scale the case count with RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "baselines/lowpass.h"
#include "baselines/mdp.h"
#include "baselines/random_pulse.h"
#include "baselines/stepping.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "pricing/tou.h"
#include "sim/engine.h"
#include "sim/invariants.h"
#include "sim/proptest_domains.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

using proptest::Domain;
using proptest::for_all;
using proptest::PropertyOptions;

/// Distinct seed stream per suite so the five suites explore different
/// configs instead of replaying one another.
PropertyOptions suite_options(std::uint64_t stream) {
  PropertyOptions options;
  options.iterations = 100;
  options.base_seed = 0xb1e55ed0u + stream;
  return options;
}

/// A random household + tariff matched to the config's geometry, with the
/// battery at a random starting level.
struct RandomHousehold {
  TouSchedule prices;
  HouseholdTraceSource source;
  Battery battery;
};

RandomHousehold random_household(const RlBlhConfig& config, Rng& rng) {
  TouSchedule prices =
      proptest::gen_tou_schedule(config.intervals_per_day, rng);
  HouseholdConfig household =
      proptest::household_config_domain(config.intervals_per_day,
                                        config.usage_cap)
          .generate(rng);
  const std::uint64_t seed = rng.engine()();
  const double level = rng.uniform(0.0, config.battery_capacity);
  return {std::move(prices), HouseholdTraceSource(std::move(household), seed),
          Battery(config.battery_capacity, level)};
}

/// An engine with the invariant checker armed for the config: run_day then
/// throws on any violating day.
SimEngine checked_engine(const RlBlhConfig& config, bool pulse_shaped,
                         bool expect_feasible) {
  InvariantCheckConfig check;
  check.battery_capacity = config.battery_capacity;
  check.usage_cap = pulse_shaped ? config.usage_cap : 0.0;
  check.decision_interval = pulse_shaped ? config.decision_interval : 0;
  check.expect_feasible = expect_feasible;
  SimEngine engine;
  engine.enable_invariant_checks(check);
  return engine;
}

constexpr int kDaysPerCase = 3;

TEST(PolicyInvariantsProptest, RlBlhSatisfiesAllInvariants) {
  const auto result = for_all(
      "rl-blh invariants", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        RandomHousehold home = random_household(config, rng);
        SimEngine engine = checked_engine(config, /*pulse_shaped=*/true,
                                          /*expect_feasible=*/true);
        RlBlhPolicy policy(config);
        for (int d = 0; d < kDaysPerCase; ++d) {
          (void)engine.run_day(home.source, home.prices, home.battery, policy);
        }
      },
      suite_options(1));
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_GE(result.iterations_run, 1u);
}

TEST(PolicyInvariantsProptest, RlBlhWithHeuristicsSatisfiesAllInvariants) {
  // REUSE/SYN replays must not corrupt the real-day feasibility; kept to a
  // light schedule so 100 cases stay fast.
  const auto result = for_all(
      "rl-blh+heuristics invariants", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& sampled, Rng& rng) {
        RlBlhConfig config = sampled;
        config.enable_reuse = true;
        config.reuse_days = 2;
        config.reuse_repeats = 2;
        config.enable_synthetic = true;
        config.synthetic_period = 2;
        config.synthetic_repeats = 2;
        RandomHousehold home = random_household(config, rng);
        SimEngine engine = checked_engine(config, /*pulse_shaped=*/true,
                                          /*expect_feasible=*/true);
        RlBlhPolicy policy(config);
        for (int d = 0; d < kDaysPerCase; ++d) {
          (void)engine.run_day(home.source, home.prices, home.battery, policy);
        }
      },
      suite_options(2));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(PolicyInvariantsProptest, RandomPulseSatisfiesAllInvariants) {
  const auto result = for_all(
      "random-pulse invariants", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        RandomHousehold home = random_household(config, rng);
        SimEngine engine = checked_engine(config, /*pulse_shaped=*/true,
                                          /*expect_feasible=*/true);
        RandomPulsePolicy policy(config);
        for (int d = 0; d < kDaysPerCase; ++d) {
          (void)engine.run_day(home.source, home.prices, home.battery, policy);
        }
      },
      suite_options(3));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(PolicyInvariantsProptest, LowPassKeepsBatteryLegalAndAccountingExact) {
  // Not pulse-shaped and allowed to clip at the bounds: the bound,
  // reading-sign and accounting invariants still have to hold.
  const auto result = for_all(
      "low-pass invariants", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        RandomHousehold home = random_household(config, rng);
        SimEngine engine = checked_engine(config, /*pulse_shaped=*/false,
                                          /*expect_feasible=*/false);
        LowPassConfig lp;
        lp.intervals_per_day = config.intervals_per_day;
        lp.usage_cap = config.usage_cap;
        lp.battery_capacity = config.battery_capacity;
        lp.initial_target = rng.uniform(0.0, config.usage_cap);
        LowPassPolicy policy(lp);
        for (int d = 0; d < kDaysPerCase; ++d) {
          (void)engine.run_day(home.source, home.prices, home.battery, policy);
        }
      },
      suite_options(4));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(PolicyInvariantsProptest, SteppingKeepsBatteryLegalAndAccountingExact) {
  const auto result = for_all(
      "stepping invariants", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        RandomHousehold home = random_household(config, rng);
        SimEngine engine = checked_engine(config, /*pulse_shaped=*/false,
                                          /*expect_feasible=*/false);
        SteppingConfig st;
        st.intervals_per_day = config.intervals_per_day;
        st.usage_cap = config.usage_cap;
        st.battery_capacity = config.battery_capacity;
        st.step = config.usage_cap * rng.uniform(0.05, 1.0);
        st.margin_fraction = rng.uniform(0.05, 0.45);
        SteppingPolicy policy(st);
        for (int d = 0; d < kDaysPerCase; ++d) {
          (void)engine.run_day(home.source, home.prices, home.battery, policy);
        }
      },
      suite_options(5));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(PolicyInvariantsProptest, MdpBaselineSatisfiesAllInvariants) {
  // The DP baseline shares RL-BLH's pulse space and guard rule but needs a
  // divisor n_D and a training phase before it can act.
  const auto result = for_all(
      "mdp-dp invariants", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& sampled, Rng& rng) {
        RlBlhConfig config = sampled;
        // Snap n_D down to the nearest divisor of n_M (shrinks the guard
        // band, so the sampled battery still fits).
        while (config.intervals_per_day % config.decision_interval != 0) {
          --config.decision_interval;
        }
        MdpConfig mdp;
        mdp.intervals_per_day = config.intervals_per_day;
        mdp.decision_interval = config.decision_interval;
        mdp.usage_cap = config.usage_cap;
        mdp.battery_capacity = config.battery_capacity;
        mdp.num_actions = config.num_actions;
        mdp.battery_levels = 24;
        mdp.usage_levels = 12;
        MdpBlhPolicy policy(mdp);

        RandomHousehold home = random_household(config, rng);
        SimEngine engine = checked_engine(config, /*pulse_shaped=*/true,
                                          /*expect_feasible=*/true);
        for (int d = 0; d < 2; ++d) {
          policy.observe_training_day(
              proptest::gen_usage_trace(config.intervals_per_day,
                                        config.usage_cap, rng),
              home.prices);
        }
        policy.solve();
        for (int d = 0; d < 2; ++d) {
          (void)engine.run_day(home.source, home.prices, home.battery, policy);
        }
      },
      suite_options(6));
  ASSERT_TRUE(result.success) << result.message;
}

}  // namespace
}  // namespace rlblh
