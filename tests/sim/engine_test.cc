// Unit tests for SimEngine. The pull entry (run_day / run_days): the
// passthrough policy, battery levels and their persistence across days,
// the savings identity, the shortfall, run_days' result and the price
// length check. The push entry (begin_day / push_block / finish_day):
// protocol errors, a bad value mid-span, the pulse-width contract,
// one-interval streaming against the pulled run, the passthrough policy
// and invariant checks. The exhaustive pushed == pulled bitwise sweep
// lives in tests/proptest/stream_diff_proptest.cc.
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lowpass.h"
#include "baselines/random_pulse.h"
#include "battery/battery.h"
#include "core/config.h"
#include "core/rlblh_policy.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/engine.h"
#include "util/error.h"
#include "util/rng.h"

namespace rlblh {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

RlBlhConfig small_config() {
  RlBlhConfig config;
  config.intervals_per_day = 96;
  config.decision_interval = 8;
  config.seed = 42;
  return config;
}

DayTrace random_day(std::size_t intervals, double cap, Rng& rng) {
  DayTrace day(intervals);
  for (std::size_t n = 0; n < intervals; ++n) {
    day.set(n, rng.uniform(0.0, cap));
  }
  return day;
}

class SingleDaySource final : public TraceSource {
 public:
  explicit SingleDaySource(DayTrace day) : day_(std::move(day)) {}
  DayTrace next_day() override { return day_; }
  std::size_t intervals() const override { return day_.intervals(); }
  double usage_cap() const override { return 1.0; }

 private:
  DayTrace day_;
};

/// Every day the same flat usage, with the paper's usage cap.
class FixedTraceSource final : public TraceSource {
 public:
  FixedTraceSource(std::size_t intervals, double value)
      : intervals_(intervals), value_(value) {}
  DayTrace next_day() override {
    return DayTrace(std::vector<double>(intervals_, value_));
  }
  std::size_t intervals() const override { return intervals_; }
  double usage_cap() const override { return 0.08; }

 private:
  std::size_t intervals_;
  double value_;
};

/// A 48-interval learner without replay, for the pull-entry cases.
RlBlhConfig small_rl_config() {
  RlBlhConfig config;
  config.intervals_per_day = 48;
  config.decision_interval = 4;
  config.battery_capacity = 1.0;
  config.num_actions = 4;
  config.enable_reuse = false;
  config.enable_synthetic = false;
  return config;
}

/// A policy that breaks the pulse-width contract.
class ZeroWidthPolicy final : public BlhPolicy {
 public:
  void begin_day(const TouSchedule&) override {}
  double reading(std::size_t, double) override { return 0.0; }
  void observe_usage(std::size_t, double) override {}
  std::string_view name() const override { return "zero-width"; }
  std::size_t pulse_width() const override { return 0; }
};

TEST(SimEngineTest, PushLifecycleErrors) {
  const RlBlhConfig config = small_config();
  const std::size_t n_m = config.intervals_per_day;
  const TouSchedule prices = TouSchedule::flat(n_m, 8.0);
  RlBlhPolicy policy(config);
  Battery battery(config.battery_capacity, config.battery_capacity / 2.0);
  SimEngine engine;
  const std::vector<double> day(n_m, 0.25);
  const std::span<const double> one = std::span(day).first(1);

  EXPECT_THROW(engine.push_block(one), ConfigError);
  EXPECT_THROW(engine.finish_day(), ConfigError);

  engine.begin_day(prices, battery, policy);
  EXPECT_TRUE(engine.day_open());
  EXPECT_THROW(engine.begin_day(prices, battery, policy), ConfigError);
  EXPECT_THROW(engine.finish_day(), ConfigError);  // no interval pushed yet
  SingleDaySource source{DayTrace(n_m)};
  EXPECT_THROW(engine.run_day(source, prices, battery, policy), ConfigError);
  // Past the end of the day: rejected before anything is stepped.
  EXPECT_THROW(engine.push_block(std::vector<double>(n_m + 1, 0.25)),
               ConfigError);
  EXPECT_EQ(engine.next_interval(), 0u);

  engine.push_block(day);
  EXPECT_EQ(engine.next_interval(), n_m);
  EXPECT_THROW(engine.push_block(one), ConfigError);  // day is full
  const DayResult& result = engine.finish_day();
  EXPECT_EQ(result.usage.intervals(), n_m);
  EXPECT_FALSE(engine.day_open());
}

TEST(SimEngineTest, BadValueMidSpanLeavesThePrefixStepped) {
  const RlBlhConfig config = small_config();
  const std::size_t n_m = config.intervals_per_day;
  const TouSchedule prices = TouSchedule::two_zone(n_m, 60, 7.04, 21.09);
  Rng rng(5);
  // Within x_M, so the battery buffers and the pulse shows in the readings.
  const DayTrace day = random_day(n_m, config.usage_cap, rng);
  const std::vector<double>& x = day.values();
  // Mid-block (n_D = 8): the policy has committed a random pulse for
  // [8, 16) that the rest of the block must keep.
  const std::size_t bad = 13;

  RandomPulsePolicy policy(config);
  Battery battery(config.battery_capacity, config.battery_capacity / 2.0);
  SimEngine engine;
  std::vector<double> span(x.begin(), x.begin() + bad + 5);
  span[bad] = std::numeric_limits<double>::quiet_NaN();
  engine.begin_day(prices, battery, policy);
  EXPECT_THROW(engine.push_block(span), ConfigError);
  EXPECT_TRUE(engine.day_open());
  EXPECT_EQ(engine.next_interval(), bad);

  // The prefix was stepped exactly as a push of the prefix alone steps it.
  RandomPulsePolicy prefix_policy(config);
  Battery prefix_battery(config.battery_capacity,
                         config.battery_capacity / 2.0);
  SimEngine prefix;
  prefix.begin_day(prices, prefix_battery, prefix_policy);
  prefix.push_block(std::span(x).first(bad));
  EXPECT_TRUE(same_bits(battery.level(), prefix_battery.level()));

  // The day resumes at the cursor and ends as the whole day pulled does.
  engine.push_block(std::span(x).subspan(bad));
  const DayResult& pushed = engine.finish_day();
  RandomPulsePolicy pulled_policy(config);
  Battery pulled_battery(config.battery_capacity,
                         config.battery_capacity / 2.0);
  SimEngine pulled;
  SingleDaySource source(day);
  const DayResult& expected =
      pulled.run_day(source, prices, pulled_battery, pulled_policy);
  for (std::size_t n = 0; n < n_m; ++n) {
    ASSERT_TRUE(same_bits(pushed.readings.at(n), expected.readings.at(n)))
        << "reading " << n;
  }
  EXPECT_TRUE(same_bits(pushed.savings_cents, expected.savings_cents));
  EXPECT_TRUE(same_bits(battery.level(), pulled_battery.level()));
}

TEST(SimEngineTest, DefaultPulseWidthIsOneAndZeroIsRejected) {
  EXPECT_EQ(LowPassPolicy(LowPassConfig{}).pulse_width(), 1u);

  const TouSchedule prices = TouSchedule::flat(48, 10.0);
  ZeroWidthPolicy policy;
  Battery battery(5.0, 2.5);
  SimEngine engine;
  EXPECT_THROW(engine.begin_day(prices, battery, policy), ConfigError);
  EXPECT_FALSE(engine.day_open());
  SingleDaySource source{DayTrace(48)};
  EXPECT_THROW(engine.run_day(source, prices, battery, policy), ConfigError);
  EXPECT_FALSE(engine.day_open());
}

// Streaming one interval per push, as a meter feed does, against the
// same days pulled: equal to the bit across day boundaries.
TEST(StreamEngineTest, MatchesSimEngineBitwiseOnBlockedPolicy) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices =
      TouSchedule::two_zone(config.intervals_per_day, 60, 7.04, 21.09);
  Rng rng(17);

  RlBlhPolicy pulled_policy(config);
  RlBlhPolicy pushed_policy(config);
  Battery pulled_battery(config.battery_capacity,
                         config.battery_capacity / 2.0);
  Battery pushed_battery(config.battery_capacity,
                         config.battery_capacity / 2.0);
  SimEngine pulled;
  SimEngine pushed;

  for (int d = 0; d < 4; ++d) {
    const DayTrace day = random_day(config.intervals_per_day, 1.0, rng);
    SingleDaySource source(day);
    const DayResult& expected =
        pulled.run_day(source, prices, pulled_battery, pulled_policy);

    const std::span<const double> x(day.values());
    pushed.begin_day(prices, pushed_battery, pushed_policy);
    for (std::size_t n = 0; n < x.size(); ++n) {
      pushed.push_block(x.subspan(n, 1));
    }
    const DayResult& actual = pushed.finish_day();

    for (std::size_t n = 0; n < day.intervals(); ++n) {
      ASSERT_TRUE(same_bits(expected.readings.at(n), actual.readings.at(n)))
          << "reading " << n << " day " << d;
      ASSERT_TRUE(
          same_bits(expected.battery_levels[n], actual.battery_levels[n]))
          << "level " << n << " day " << d;
    }
    EXPECT_TRUE(same_bits(expected.savings_cents, actual.savings_cents));
    EXPECT_TRUE(same_bits(expected.bill_cents, actual.bill_cents));
    EXPECT_TRUE(
        same_bits(expected.usage_cost_cents, actual.usage_cost_cents));
    EXPECT_EQ(expected.battery_violations, actual.battery_violations);
    EXPECT_TRUE(same_bits(pulled_battery.level(), pushed_battery.level()));
  }
}

TEST(SimEngineTest, PushedPassthroughMetersUsageDirectly) {
  const std::size_t n_m = 48;
  const TouSchedule prices = TouSchedule::flat(n_m, 10.0);
  PassthroughPolicy policy;
  Battery battery(5.0, 2.5);
  SimEngine engine;
  Rng rng(3);
  const DayTrace day = random_day(n_m, 1.0, rng);
  const std::span<const double> x(day.values());

  // The whole day is one block; uneven pushes split it.
  engine.begin_day(prices, battery, policy);
  engine.push_block(x.first(1));
  engine.push_block(x.subspan(1, 30));
  engine.push_block(x.subspan(31));
  const DayResult& result = engine.finish_day();

  for (std::size_t n = 0; n < n_m; ++n) {
    EXPECT_TRUE(same_bits(result.readings.at(n), day.at(n)));
  }
  EXPECT_TRUE(same_bits(result.savings_cents, 0.0));
  EXPECT_TRUE(same_bits(battery.level(), 2.5));  // untouched
}

TEST(SimEngineTest, InvariantChecksRunOnFinish) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices = TouSchedule::flat(config.intervals_per_day, 8.0);
  RlBlhPolicy policy(config);
  Battery battery(config.battery_capacity, config.battery_capacity / 2.0);
  SimEngine engine;
  InvariantCheckConfig check;
  check.battery_capacity = config.battery_capacity;
  check.usage_cap = config.usage_cap;
  check.expect_feasible = false;  // an untrained policy clips freely
  engine.enable_invariant_checks(check);
  EXPECT_TRUE(engine.invariant_checks_enabled());

  Rng rng(9);
  const DayTrace day = random_day(config.intervals_per_day, 1.0, rng);
  engine.begin_day(prices, battery, policy);
  engine.push_block(day.values());
  EXPECT_NO_THROW(engine.finish_day());
}

TEST(SimEngineTest, RejectsPriceLengthMismatch) {
  FixedTraceSource source(48, 0.02);
  const TouSchedule prices = TouSchedule::flat(10, 1.0);
  Battery battery(1.0, 0.5);
  PassthroughPolicy policy;
  SimEngine engine;
  EXPECT_THROW(engine.run_day(source, prices, battery, policy), ConfigError);
}

TEST(SimEngineTest, PassthroughReportsUsageExactly) {
  FixedTraceSource source(48, 0.02);
  const TouSchedule prices = TouSchedule::flat(48, 1.0);
  Battery battery(1.0, 0.5);
  PassthroughPolicy policy;
  SimEngine engine;
  const DayResult day = engine.run_day(source, prices, battery, policy);
  for (std::size_t n = 0; n < 48; ++n) {
    ASSERT_DOUBLE_EQ(day.readings.at(n), day.usage.at(n));
  }
  EXPECT_DOUBLE_EQ(day.savings_cents, 0.0);
  EXPECT_DOUBLE_EQ(day.bill_cents, day.usage_cost_cents);
  // The battery is untouched in passthrough mode.
  EXPECT_DOUBLE_EQ(battery.level(), 0.5);
}

TEST(SimEngineTest, RecordsBatteryLevelsAtIntervalStarts) {
  FixedTraceSource source(48, 0.02);
  const TouSchedule prices = TouSchedule::flat(48, 1.0);
  Battery battery(1.0, 0.5);
  RlBlhPolicy policy(small_rl_config());
  SimEngine engine;
  const DayResult day = engine.run_day(source, prices, battery, policy);
  ASSERT_EQ(day.battery_levels.size(), 48u);
  EXPECT_DOUBLE_EQ(day.battery_levels[0], 0.5);
  // Recorded level must evolve per b_{n+1} = b_n + y_n - x_n.
  for (std::size_t n = 1; n < 48; ++n) {
    const double expected = day.battery_levels[n - 1] +
                            day.readings.at(n - 1) - day.usage.at(n - 1);
    ASSERT_NEAR(day.battery_levels[n], expected, 1e-12);
  }
}

TEST(SimEngineTest, BatteryPersistsAcrossDays) {
  FixedTraceSource source(48, 0.02);
  const TouSchedule prices = TouSchedule::flat(48, 1.0);
  Battery battery(1.0, 0.5);
  RlBlhPolicy policy(small_rl_config());
  SimEngine engine;
  const DayResult d1 = engine.run_day(source, prices, battery, policy);
  const double end_of_day1 = d1.battery_levels.back() +
                             d1.readings.at(47) - d1.usage.at(47);
  const DayResult d2 = engine.run_day(source, prices, battery, policy);
  EXPECT_NEAR(d2.battery_levels.front(), end_of_day1, 1e-12);
}

TEST(SimEngineTest, SavingsIdentityHolds) {
  // savings + bill == usage cost, by construction of the three sums.
  FixedTraceSource source(48, 0.03);
  const TouSchedule prices = TouSchedule::two_zone(48, 34, 7.0, 21.0);
  Battery battery(1.0, 0.5);
  RlBlhPolicy policy(small_rl_config());
  SimEngine engine;
  for (int d = 0; d < 5; ++d) {
    const DayResult& day = engine.run_day(source, prices, battery, policy);
    EXPECT_NEAR(day.savings_cents + day.bill_cents, day.usage_cost_cents,
                1e-9);
  }
}

TEST(SimEngineTest, ShortfallShowsUpInMeterReadings) {
  // A policy that always requests zero drains the battery; once empty, the
  // meter must report the grid draw that actually served the load.
  class ZeroPolicy final : public BlhPolicy {
   public:
    void begin_day(const TouSchedule&) override {}
    double reading(std::size_t, double) override { return 0.0; }
    void observe_usage(std::size_t, double) override {}
    std::string_view name() const override { return "zero"; }
  };
  FixedTraceSource source(48, 0.05);
  const TouSchedule prices = TouSchedule::flat(48, 1.0);
  Battery battery(1.0, 0.1);
  ZeroPolicy policy;
  SimEngine engine;
  const DayResult& day = engine.run_day(source, prices, battery, policy);
  EXPECT_GT(day.battery_violations, 0u);
  // Total grid energy must equal total usage minus the 0.1 kWh that the
  // battery supplied.
  EXPECT_NEAR(day.readings.total(), day.usage.total() - 0.1, 1e-9);
}

TEST(SimEngineTest, RunDaysReturnsLastResult) {
  FixedTraceSource source(48, 0.02);
  const TouSchedule prices = TouSchedule::flat(48, 1.0);
  Battery battery(1.0, 0.5);
  RlBlhPolicy policy(small_rl_config());
  SimEngine engine;
  const DayResult& last =
      engine.run_days(source, prices, battery, policy, 5);
  EXPECT_EQ(policy.days_completed(), 5u);
  EXPECT_EQ(last.usage.intervals(), 48u);
  EXPECT_THROW(engine.run_days(source, prices, battery, policy, 0),
               ConfigError);
}

}  // namespace
}  // namespace rlblh
