// Round-trip tests for the state the daemon stacks into a household
// checkpoint: the RNG engine state and the policy's full binary
// save_state/load_state image (the battery and the whole household image
// are tested in tests/serve/checkpoint_test.cc). The property that matters
// everywhere is bitwise: a restored object's future behavior must be
// indistinguishable from the original's.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

TEST(RngCheckpointTest, RoundTripContinuesBitwise) {
  Rng original(0xfeedface);
  // Age the stream so the state is mid-sequence, not fresh-seeded.
  for (int i = 0; i < 1000; ++i) original.uniform();

  Rng restored(0);
  restored.engine().set_state(original.engine().state(),
                              original.engine().position());

  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(same_bits(original.uniform(), restored.uniform()))
        << "draw " << i << " diverged";
  }
}

RlBlhConfig small_config() {
  RlBlhConfig config;
  config.intervals_per_day = 96;
  config.decision_interval = 8;
  config.seed = 99;
  return config;
}

/// Runs `days` simulated days, returning the last day's savings.
double run_days(RlBlhPolicy& policy, Battery& battery,
                const TouSchedule& prices, std::size_t days,
                std::uint64_t trace_seed) {
  Rng rng(trace_seed);
  const std::size_t n_m = prices.intervals();
  double last_savings = 0.0;
  for (std::size_t d = 0; d < days; ++d) {
    policy.begin_day(prices);
    double savings = 0.0;
    for (std::size_t n0 = 0; n0 < n_m;) {
      const std::size_t width = std::min(policy.pulse_width(), n_m - n0);
      const double y = policy.fill_block(n0, width, battery.level());
      std::vector<double> usage(width);
      for (double& u : usage) u = rng.uniform(0.0, 1.0);
      for (std::size_t i = 0; i < width; ++i) {
        const BatteryStep step = battery.step(y, usage[i]);
        savings += prices.rate(n0 + i) *
                   (usage[i] - (y + step.grid_extra));
      }
      policy.observe_block(n0, usage);
      n0 += width;
    }
    policy.end_day();
    last_savings = savings;
  }
  return last_savings;
}

TEST(PolicyCheckpointTest, RestoredPolicyContinuesBitwise) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices =
      TouSchedule::two_zone(config.intervals_per_day, 64, 7.04, 21.09);

  RlBlhPolicy original(config);
  Battery original_battery(config.battery_capacity,
                           config.battery_capacity / 2.0);
  run_days(original, original_battery, prices, 5, 1234);

  std::stringstream buffer;
  original.save_state(buffer);
  RlBlhPolicy restored(config);
  restored.load_state(buffer);
  Battery restored_battery(config.battery_capacity, 0.0);
  restored_battery.restore(
      original_battery.level(), original_battery.violation_count(),
      original_battery.total_wasted_charge(),
      original_battery.total_grid_extra());

  EXPECT_EQ(original.days_completed(), restored.days_completed());
  EXPECT_EQ(original.episodes_completed(), restored.episodes_completed());

  // Same future inputs must produce bitwise-identical futures.
  const double original_future =
      run_days(original, original_battery, prices, 3, 5678);
  const double restored_future =
      run_days(restored, restored_battery, prices, 3, 5678);
  EXPECT_TRUE(same_bits(original_future, restored_future));

  // And the two end states serialize identically.
  std::stringstream a, b;
  original.save_state(a);
  restored.save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(PolicyCheckpointTest, SaveMidDayThrows) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices = TouSchedule::flat(config.intervals_per_day, 10.0);
  RlBlhPolicy policy(config);
  policy.begin_day(prices);
  std::stringstream buffer;
  EXPECT_THROW(policy.save_state(buffer), ConfigError);
}

TEST(PolicyCheckpointTest, LoadRejectsWrongDimensions) {
  const RlBlhConfig config = small_config();
  RlBlhPolicy policy(config);
  std::stringstream buffer;
  policy.save_state(buffer);

  RlBlhConfig other = config;
  other.num_actions = config.num_actions + 1;
  RlBlhPolicy victim(other);
  EXPECT_THROW(victim.load_state(buffer), DataError);
}

/// Byte offset of the RNG position in a small_config() policy image:
/// counters and flags, two weight tables, then the 312 engine words.
std::size_t rng_position_offset(const RlBlhPolicy& policy) {
  const std::size_t table = 16 + 8 * policy.q().parameter_count();
  return 8 + 8 + 1 + 1 + 2 * table + 8 * Mt19937_64::state_size;
}

TEST(RngCheckpointTest, RejectsMalformedInput) {
  const RlBlhConfig config = small_config();
  RlBlhPolicy policy(config);
  std::stringstream buffer;
  policy.save_state(buffer);
  std::string image = buffer.str();
  const std::size_t at = rng_position_offset(policy);
  std::uint64_t position = 0;
  std::memcpy(&position, image.data() + at, sizeof position);
  ASSERT_EQ(position, policy.rng().engine().position());

  // A position past the end of the state is rejected, and the victim keeps
  // its own state.
  position = Mt19937_64::state_size + 1;
  std::memcpy(image.data() + at, &position, sizeof position);
  RlBlhPolicy victim(config);
  std::stringstream bad(image);
  EXPECT_THROW(victim.load_state(bad), DataError);
  EXPECT_EQ(victim.rng().engine(), policy.rng().engine());
}

TEST(PolicyCheckpointTest, LoadRejectsTruncatedAndTrailingBytes) {
  const RlBlhConfig config = small_config();
  RlBlhPolicy policy(config);
  std::stringstream buffer;
  policy.save_state(buffer);
  const std::string image = buffer.str();
  RlBlhPolicy victim(config);
  for (const std::size_t length :
       {std::size_t{0}, std::size_t{17}, image.size() / 2, image.size() - 1}) {
    std::stringstream truncated(image.substr(0, length));
    EXPECT_THROW(victim.load_state(truncated), DataError) << length;
  }
  std::stringstream trailing(image + '\0');
  EXPECT_THROW(victim.load_state(trailing), DataError);
  std::stringstream exact(image);
  EXPECT_NO_THROW(victim.load_state(exact));
}

/// `image` with the `T` at byte `at` replaced by `value`.
template <typename T>
std::string with_field(std::string image, std::size_t at, T value) {
  std::memcpy(image.data() + at, &value, sizeof value);
  return image;
}

TEST(PolicyCheckpointTest, LoadRejectsEveryInconsistentField) {
  const RlBlhConfig config = small_config();
  const TouSchedule prices =
      TouSchedule::two_zone(config.intervals_per_day, 64, 7.04, 21.09);
  RlBlhPolicy policy(config);
  Battery battery(config.battery_capacity, config.battery_capacity / 2.0);
  run_days(policy, battery, prices, 1, 77);
  std::stringstream buffer;
  policy.save_state(buffer);
  const std::string image = buffer.str();
  const std::size_t table = 16 + 8 * policy.q().parameter_count();
  const std::size_t tracker = rng_position_offset(policy) + 8;
  const std::size_t interval = tracker + 16;  // the first interval's record
  const std::size_t reservoir =
      policy.usage_stats().distribution(0).reservoir().size();
  const std::size_t histogram = interval + 32 + 8 * reservoir;
  ASSERT_EQ(reservoir, 1u);

  const std::vector<std::pair<const char*, std::string>> bad = {
      {"learning flag", with_field<std::uint8_t>(image, 16, 2)},
      {"exploration flag", with_field<std::uint8_t>(image, 17, 7)},
      {"q actions", with_field<std::uint64_t>(image, 18, 1u << 20)},
      {"q2 dimension", with_field<std::uint64_t>(image, 18 + table + 8, 5)},
      {"interval count",
       with_field<std::uint64_t>(image, tracker, config.intervals_per_day + 1)},
      {"reservoir over capacity",
       with_field<std::uint64_t>(image, interval + 24, ~std::uint64_t{0})},
      {"reservoir over count", with_field<std::uint64_t>(image, interval, 0)},
      {"fraction", with_field<double>(image, interval + 16, 1.5)},
      {"fraction NaN", with_field<double>(image, interval + 16, std::nan(""))},
      {"bins", with_field<std::uint64_t>(image, histogram, 1u << 30)},
      {"histogram range", with_field<double>(image, histogram + 8, 0.25)},
      {"histogram total", with_field<double>(image, histogram + 24, -1.0)},
      {"histogram count", with_field<double>(image, histogram + 32, -0.5)},
  };
  for (const auto& [what, bytes] : bad) {
    RlBlhPolicy victim(config);
    std::stringstream before;
    victim.save_state(before);
    std::stringstream in(bytes);
    EXPECT_THROW(victim.load_state(in), DataError) << what;
    std::stringstream after;
    victim.save_state(after);
    EXPECT_TRUE(before.str() == after.str()) << what << " half-restored";
  }
  std::stringstream good(image);
  RlBlhPolicy twin(config);
  twin.load_state(good);
  std::stringstream again;
  twin.save_state(again);
  EXPECT_TRUE(again.str() == image);
}

TEST(PolicyCheckpointTest, BaselinePoliciesReportNotCheckpointable) {
  const RlBlhConfig config = small_config();
  RlBlhPolicy policy(config);
  EXPECT_TRUE(policy.checkpointable());
}

}  // namespace
}  // namespace rlblh
