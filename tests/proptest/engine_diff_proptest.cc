// Differential property suite for the pulse-blocked engine hot path.
//
// SimEngine drives every policy through one blocked loop (one
// fill_block/observe_block pair per pulse, per-segment price rates,
// resize-once writes). Its contract is bitwise equality with the
// per-interval protocol: same readings, same battery levels, same
// accumulated cents, down to the last ULP. This suite checks that contract
// directly: each case runs the engine and a reference per-interval loop
// (compiled into this test — the oracle is the only place that loop still
// exists) over identical random scenarios — tariff shape, day length,
// truncated last pulse, battery start level, usage structure — and
// compares every output bit for bit. The low-pass case covers width-1
// blocks through the base-class fill_block/observe_block defaults.
//
// Labeled `proptest` in CTest; filter with `ctest -LE proptest` to skip, or
// scale the case count with RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "baselines/lowpass.h"
#include "baselines/mdp.h"
#include "baselines/random_pulse.h"
#include "baselines/stepping.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/engine.h"
#include "sim/proptest_domains.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

using proptest::for_all;
using proptest::PropertyOptions;

/// Distinct seed stream per suite, disjoint from the invariants suites.
PropertyOptions suite_options(std::uint64_t stream) {
  PropertyOptions options;
  options.iterations = 100;
  options.base_seed = 0xd1ffe7e57ull + stream;
  return options;
}

constexpr int kDaysPerCase = 3;

/// Replays a fixed list of pre-generated days, so the blocked and reference
/// runs consume identical usage.
class ReplaySource final : public TraceSource {
 public:
  ReplaySource(std::vector<DayTrace> days, double cap)
      : days_(std::move(days)), cap_(cap) {}

  DayTrace next_day() override { return days_[next_++ % days_.size()]; }
  std::size_t intervals() const override { return days_.front().intervals(); }
  double usage_cap() const override { return cap_; }

 private:
  std::vector<DayTrace> days_;
  double cap_ = 0.0;
  std::size_t next_ = 0;
};

/// One reference day's outputs.
struct RefDay {
  std::vector<double> readings;
  std::vector<double> levels;
  double savings_cents = 0.0;
  double bill_cents = 0.0;
  double usage_cost_cents = 0.0;
};

/// The per-interval protocol: reading(), one battery step and
/// observe_usage() per interval, with the price looked up per interval.
/// This is the behaviour the blocked loop must reproduce.
RefDay run_reference_day(const DayTrace& usage, const TouSchedule& prices,
                         Battery& battery, BlhPolicy& policy) {
  const std::size_t n_m = usage.intervals();
  RefDay day;
  day.readings.reserve(n_m);
  day.levels.reserve(n_m);
  policy.begin_day(prices);
  for (std::size_t n = 0; n < n_m; ++n) {
    day.levels.push_back(battery.level());
    const double x_n = usage.at(n);
    double effective_reading;
    if (policy.passthrough()) {
      (void)policy.reading(n, battery.level());
      effective_reading = x_n;
    } else {
      const double y = policy.reading(n, battery.level());
      const BatteryStep step = battery.step(y, x_n);
      effective_reading = y + step.grid_extra;
    }
    day.readings.push_back(effective_reading);
    policy.observe_usage(n, x_n);
    const double rate = prices.rate(n);
    day.savings_cents += rate * (x_n - effective_reading);
    day.bill_cents += rate * effective_reading;
    day.usage_cost_cents += rate * x_n;
  }
  policy.end_day();
  return day;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string diff_message(const char* what, std::size_t day, std::size_t n,
                         double blocked, double reference) {
  return std::string(what) + " diverged on day " + std::to_string(day) +
         " interval " + std::to_string(n) + ": blocked " +
         std::to_string(blocked) + " vs reference " +
         std::to_string(reference);
}

/// Runs `engine_policy` through the blocked SimEngine and `ref_policy`
/// (an identically constructed twin) through the reference loop over the
/// same days, and requires bitwise-identical outputs.
void check_blocked_matches_reference(BlhPolicy& engine_policy,
                                     BlhPolicy& ref_policy,
                                     const std::vector<DayTrace>& days,
                                     const TouSchedule& prices,
                                     double capacity, double initial_level,
                                     double cap) {
  ReplaySource source(days, cap);
  Battery blocked_battery(capacity, initial_level);
  Battery reference_battery(capacity, initial_level);
  SimEngine engine;
  for (std::size_t d = 0; d < days.size(); ++d) {
    const DayResult& blocked =
        engine.run_day(source, prices, blocked_battery, engine_policy);
    const RefDay reference =
        run_reference_day(days[d], prices, reference_battery, ref_policy);
    const std::size_t n_m = days[d].intervals();
    PROPTEST_CHECK(blocked.readings.intervals() == n_m &&
                       blocked.battery_levels.size() == n_m,
                   "blocked engine produced wrong-length outputs");
    for (std::size_t n = 0; n < n_m; ++n) {
      PROPTEST_CHECK(
          same_bits(blocked.readings.at(n), reference.readings[n]),
          diff_message("reading", d, n, blocked.readings.at(n),
                       reference.readings[n]));
      PROPTEST_CHECK(
          same_bits(blocked.battery_levels[n], reference.levels[n]),
          diff_message("battery level", d, n, blocked.battery_levels[n],
                       reference.levels[n]));
    }
    PROPTEST_CHECK(same_bits(blocked.savings_cents, reference.savings_cents),
                   diff_message("savings_cents", d, 0, blocked.savings_cents,
                                reference.savings_cents));
    PROPTEST_CHECK(same_bits(blocked.bill_cents, reference.bill_cents),
                   diff_message("bill_cents", d, 0, blocked.bill_cents,
                                reference.bill_cents));
    PROPTEST_CHECK(
        same_bits(blocked.usage_cost_cents, reference.usage_cost_cents),
        diff_message("usage_cost_cents", d, 0, blocked.usage_cost_cents,
                     reference.usage_cost_cents));
    PROPTEST_CHECK(
        same_bits(blocked_battery.level(), reference_battery.level()),
        "end-of-day battery level diverged on day " + std::to_string(d));
  }
}

/// Random scenario pieces shared by every suite: tariff, days, start level.
struct ScenarioParts {
  TouSchedule prices;
  std::vector<DayTrace> days;
  double initial_level = 0.0;
};

ScenarioParts gen_scenario(std::size_t intervals, double cap,
                           double capacity, int day_count, Rng& rng) {
  ScenarioParts parts{proptest::gen_tou_schedule(intervals, rng), {}, 0.0};
  parts.days.reserve(static_cast<std::size_t>(day_count));
  for (int d = 0; d < day_count; ++d) {
    parts.days.push_back(proptest::gen_usage_trace(intervals, cap, rng));
  }
  parts.initial_level = rng.uniform(0.0, capacity);
  return parts;
}

TEST(EngineDiffProptest, RlBlhBlockedMatchesPerIntervalReference) {
  const auto result = for_all(
      "rl-blh blocked == per-interval", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        const ScenarioParts parts =
            gen_scenario(config.intervals_per_day, config.usage_cap,
                         config.battery_capacity, kDaysPerCase, rng);
        // Identically constructed twins: same config, same seed, so the
        // only possible divergence is the engine protocol under test.
        RlBlhPolicy blocked(config);
        RlBlhPolicy reference(config);
        check_blocked_matches_reference(
            blocked, reference, parts.days, parts.prices,
            config.battery_capacity, parts.initial_level, config.usage_cap);
      },
      suite_options(1));
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_GE(result.iterations_run, 1u);
}

TEST(EngineDiffProptest, RandomPulseBlockedMatchesPerIntervalReference) {
  const auto result = for_all(
      "random-pulse blocked == per-interval",
      proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        const ScenarioParts parts =
            gen_scenario(config.intervals_per_day, config.usage_cap,
                         config.battery_capacity, kDaysPerCase, rng);
        RandomPulsePolicy blocked(config);
        RandomPulsePolicy reference(config);
        check_blocked_matches_reference(
            blocked, reference, parts.days, parts.prices,
            config.battery_capacity, parts.initial_level, config.usage_cap);
      },
      suite_options(2));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(EngineDiffProptest, SteppingBlockedMatchesPerIntervalReference) {
  const auto result = for_all(
      "stepping blocked == per-interval", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        SteppingConfig st;
        st.intervals_per_day = config.intervals_per_day;
        st.usage_cap = config.usage_cap;
        st.battery_capacity = config.battery_capacity;
        st.step = config.usage_cap * rng.uniform(0.05, 1.0);
        st.margin_fraction = rng.uniform(0.05, 0.45);
        const ScenarioParts parts =
            gen_scenario(config.intervals_per_day, config.usage_cap,
                         config.battery_capacity, kDaysPerCase, rng);
        SteppingPolicy blocked(st);
        SteppingPolicy reference(st);
        check_blocked_matches_reference(
            blocked, reference, parts.days, parts.prices,
            config.battery_capacity, parts.initial_level, config.usage_cap);
      },
      suite_options(3));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(EngineDiffProptest, LowPassBlockedMatchesPerIntervalReference) {
  const auto result = for_all(
      "low-pass blocked == per-interval", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        LowPassConfig lp;
        lp.intervals_per_day = config.intervals_per_day;
        lp.usage_cap = config.usage_cap;
        lp.battery_capacity = config.battery_capacity;
        lp.target_smoothing = rng.uniform(0.0005, 0.05);
        lp.initial_target = config.usage_cap * rng.uniform(0.0, 1.0);
        const ScenarioParts parts =
            gen_scenario(config.intervals_per_day, config.usage_cap,
                         config.battery_capacity, kDaysPerCase, rng);
        LowPassPolicy blocked(lp);
        LowPassPolicy reference(lp);
        check_blocked_matches_reference(
            blocked, reference, parts.days, parts.prices,
            config.battery_capacity, parts.initial_level, config.usage_cap);
      },
      suite_options(6));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(EngineDiffProptest, MdpBlockedMatchesPerIntervalReference) {
  const auto result = for_all(
      "mdp-dp blocked == per-interval", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& sampled, Rng& rng) {
        RlBlhConfig config = sampled;
        // The DP baseline needs a divisor n_D; snapping down shrinks the
        // guard band, so the sampled battery still fits.
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
        MdpBlhPolicy blocked(mdp);
        MdpBlhPolicy reference(mdp);

        const ScenarioParts parts =
            gen_scenario(config.intervals_per_day, config.usage_cap,
                         config.battery_capacity, 2, rng);
        // Train both twins on the same days; training is deterministic.
        for (int d = 0; d < 2; ++d) {
          const DayTrace training = proptest::gen_usage_trace(
              config.intervals_per_day, config.usage_cap, rng);
          blocked.observe_training_day(training, parts.prices);
          reference.observe_training_day(training, parts.prices);
        }
        blocked.solve();
        reference.solve();
        check_blocked_matches_reference(
            blocked, reference, parts.days, parts.prices,
            config.battery_capacity, parts.initial_level, config.usage_cap);
      },
      suite_options(4));
  ASSERT_TRUE(result.success) << result.message;
}

TEST(EngineDiffProptest, PassthroughBlockedMatchesPerIntervalReference) {
  const auto result = for_all(
      "passthrough blocked == per-interval", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        const ScenarioParts parts =
            gen_scenario(config.intervals_per_day, config.usage_cap,
                         config.battery_capacity, kDaysPerCase, rng);
        PassthroughPolicy blocked;
        PassthroughPolicy reference;
        check_blocked_matches_reference(
            blocked, reference, parts.days, parts.prices,
            config.battery_capacity, parts.initial_level, config.usage_cap);
      },
      suite_options(5));
  ASSERT_TRUE(result.success) << result.message;
}

}  // namespace
}  // namespace rlblh
