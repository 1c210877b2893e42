// Differential property suite for SimEngine's push entry and the
// checkpoint/restore path underneath rlblh_serve.
//
// Property 1 (pushed == pulled): a day pushed through begin_day /
// push_block / finish_day in random chunks — single intervals, the whole
// day, and runs that split pulse blocks and price segments — produces
// bitwise-identical DayResults, and leaves policy/battery in
// bitwise-identical states, to run_day over the same days. This pins the
// block loop's resume state.
//
// Property 2 (restore == uninterrupted): interrupting the pushed run at
// every day boundary, serializing policy + battery + RNG through the text
// checkpoint, and continuing in FRESH objects still matches the
// uninterrupted pulled run bit for bit. This is the daemon's restart
// guarantee (DESIGN.md §15) reduced to its core.
//
// Labeled `proptest`; scale with RLBLH_PROPTEST_ITERS, replay with
// RLBLH_PROPTEST_SEED.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

PropertyOptions suite_options(std::uint64_t stream) {
  PropertyOptions options;
  options.iterations = 60;
  options.base_seed = 0x57e4d1ffull + stream;
  return options;
}

constexpr int kDaysPerCase = 3;

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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string diff_message(const char* what, std::size_t day, std::size_t n,
                         double pushed, double pulled) {
  return std::string(what) + " diverged on day " + std::to_string(day) +
         " interval " + std::to_string(n) + ": pushed " +
         std::to_string(pushed) + " vs pulled " + std::to_string(pulled);
}

void check_day_equal(const DayResult& pushed, const DayResult& pulled,
                     std::size_t d) {
  const std::size_t n_m = pulled.usage.intervals();
  PROPTEST_CHECK(pushed.usage.intervals() == n_m &&
                     pushed.readings.intervals() == n_m &&
                     pushed.battery_levels.size() == n_m,
                 "pushed day has wrong-length outputs");
  for (std::size_t n = 0; n < n_m; ++n) {
    PROPTEST_CHECK(same_bits(pushed.readings.at(n), pulled.readings.at(n)),
                   diff_message("reading", d, n, pushed.readings.at(n),
                                pulled.readings.at(n)));
    PROPTEST_CHECK(
        same_bits(pushed.battery_levels[n], pulled.battery_levels[n]),
        diff_message("battery level", d, n, pushed.battery_levels[n],
                     pulled.battery_levels[n]));
  }
  PROPTEST_CHECK(same_bits(pushed.savings_cents, pulled.savings_cents),
                 diff_message("savings_cents", d, 0, pushed.savings_cents,
                              pulled.savings_cents));
  PROPTEST_CHECK(same_bits(pushed.bill_cents, pulled.bill_cents),
                 diff_message("bill_cents", d, 0, pushed.bill_cents,
                              pulled.bill_cents));
  PROPTEST_CHECK(
      same_bits(pushed.usage_cost_cents, pulled.usage_cost_cents),
      diff_message("usage_cost_cents", d, 0, pushed.usage_cost_cents,
                   pulled.usage_cost_cents));
  PROPTEST_CHECK(pushed.battery_violations == pulled.battery_violations,
                 "battery_violations diverged on day " + std::to_string(d));
}

/// Random push sizes tiling [0, n_m): sometimes the whole day at once,
/// otherwise a mix of single intervals, runs up to two pulses long (which
/// split blocks), pushes that end exactly on a block boundary, and long
/// runs (which cross price segments).
std::vector<std::size_t> gen_chunks(std::size_t n_m, std::size_t pulse,
                                    Rng& rng) {
  if (rng.uniform_int(0, 4) == 0) return {n_m};
  std::vector<std::size_t> chunks;
  for (std::size_t n = 0; n < n_m;) {
    const std::size_t left = n_m - n;
    std::size_t size = 1;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        break;
      case 1:
        size = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<int>(2 * pulse)));
        break;
      case 2:
        size = pulse - n % pulse;
        break;
      default:
        size = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<int>(left)));
    }
    size = std::min(size, left);
    chunks.push_back(size);
    n += size;
  }
  return chunks;
}

/// Pushes one whole day through `engine` in the given chunk sizes.
const DayResult& push_day(SimEngine& engine, const TouSchedule& prices,
                          Battery& battery, BlhPolicy& policy,
                          const DayTrace& day,
                          const std::vector<std::size_t>& chunks) {
  engine.begin_day(prices, battery, policy);
  const std::span<const double> x(day.values());
  std::size_t n = 0;
  for (const std::size_t size : chunks) {
    engine.push_block(x.subspan(n, size));
    n += size;
  }
  return engine.finish_day();
}

struct ScenarioParts {
  TouSchedule prices;
  std::vector<DayTrace> days;
};

ScenarioParts gen_scenario(std::size_t intervals, double cap, int day_count,
                           Rng& rng) {
  ScenarioParts parts{proptest::gen_tou_schedule(intervals, rng), {}};
  parts.days.reserve(static_cast<std::size_t>(day_count));
  for (int d = 0; d < day_count; ++d) {
    parts.days.push_back(proptest::gen_usage_trace(intervals, cap, rng));
  }
  return parts;
}

TEST(StreamDiffProptest, StreamedMatchesBatchBitwise) {
  const auto result = for_all(
      "pushed day == pulled day", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        const ScenarioParts parts = gen_scenario(
            config.intervals_per_day, config.usage_cap, kDaysPerCase, rng);
        const double initial = rng.uniform(0.0, config.battery_capacity);

        RlBlhPolicy pulled_policy(config);
        RlBlhPolicy pushed_policy(config);
        Battery pulled_battery(config.battery_capacity, initial);
        Battery pushed_battery(config.battery_capacity, initial);
        ReplaySource source(parts.days, config.usage_cap);
        SimEngine puller;
        SimEngine pusher;

        for (std::size_t d = 0; d < parts.days.size(); ++d) {
          const DayResult& expected = puller.run_day(
              source, parts.prices, pulled_battery, pulled_policy);
          const std::vector<std::size_t> chunks = gen_chunks(
              config.intervals_per_day, config.decision_interval, rng);
          check_day_equal(push_day(pusher, parts.prices, pushed_battery,
                                   pushed_policy, parts.days[d], chunks),
                          expected, d);
          PROPTEST_CHECK(
              same_bits(pulled_battery.level(), pushed_battery.level()),
              "end-of-day battery level diverged on day " + std::to_string(d));
        }
        // Terminal states (weights, RNG, usage stats) must also agree.
        std::stringstream pulled_state, pushed_state;
        pulled_policy.save_state(pulled_state);
        pushed_policy.save_state(pushed_state);
        PROPTEST_CHECK(pulled_state.str() == pushed_state.str(),
                       "terminal policy state diverged");
      },
      suite_options(1));
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_GE(result.iterations_run, 1u);
}

TEST(StreamDiffProptest, CheckpointEveryDayBoundaryMatchesBatchBitwise) {
  const auto result = for_all(
      "restore at every day boundary == uninterrupted",
      proptest::rlblh_config_domain(),
      [](const RlBlhConfig& config, Rng& rng) {
        const ScenarioParts parts = gen_scenario(
            config.intervals_per_day, config.usage_cap, kDaysPerCase, rng);
        const double initial = rng.uniform(0.0, config.battery_capacity);

        RlBlhPolicy pulled_policy(config);
        Battery pulled_battery(config.battery_capacity, initial);
        ReplaySource source(parts.days, config.usage_cap);
        SimEngine puller;

        // The interrupted run: after every day, the policy and battery are
        // serialized and reloaded into freshly constructed objects — the
        // daemon's kill-at-day-boundary + restart path.
        auto pushed_policy = std::make_unique<RlBlhPolicy>(config);
        auto pushed_battery =
            std::make_unique<Battery>(config.battery_capacity, initial);
        SimEngine pusher;

        for (std::size_t d = 0; d < parts.days.size(); ++d) {
          const DayResult& expected = puller.run_day(
              source, parts.prices, pulled_battery, pulled_policy);
          const std::vector<std::size_t> chunks = gen_chunks(
              config.intervals_per_day, config.decision_interval, rng);
          check_day_equal(push_day(pusher, parts.prices, *pushed_battery,
                                   *pushed_policy, parts.days[d], chunks),
                          expected, d);

          std::stringstream checkpoint;
          pushed_policy->save_state(checkpoint);
          const Battery saved = *pushed_battery;

          pushed_policy = std::make_unique<RlBlhPolicy>(config);
          pushed_battery = std::make_unique<Battery>(
              config.battery_capacity, config.battery_capacity);
          pushed_policy->load_state(checkpoint);
          pushed_battery->restore(saved.level(), saved.violation_count(),
                                  saved.total_wasted_charge(),
                                  saved.total_grid_extra());
          PROPTEST_CHECK(
              same_bits(pulled_battery.level(), pushed_battery->level()),
              "restored battery level diverged on day " + std::to_string(d));
        }
        std::stringstream pulled_state, pushed_state;
        pulled_policy.save_state(pulled_state);
        pushed_policy->save_state(pushed_state);
        PROPTEST_CHECK(pulled_state.str() == pushed_state.str(),
                       "restored terminal policy state diverged");
      },
      suite_options(2));
  ASSERT_TRUE(result.success) << result.message;
}

}  // namespace
}  // namespace rlblh
