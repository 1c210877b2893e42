#include "baselines/random_pulse.h"

#include "util/error.h"

namespace rlblh {

namespace {
RlBlhConfig validated(RlBlhConfig config) {
  config.validate();
  return config;
}
}  // namespace

RandomPulsePolicy::RandomPulsePolicy(RlBlhConfig config)
    : config_(validated(config)), rng_(config_.seed) {
  actions_all_.resize(config_.num_actions);
  for (std::size_t a = 0; a < actions_all_.size(); ++a) actions_all_[a] = a;
  actions_zero_only_ = {0};
  actions_max_only_ = {config_.num_actions - 1};
}

void RandomPulsePolicy::begin_day(const TouSchedule& prices) {
  RLBLH_REQUIRE(prices.intervals() == config_.intervals_per_day,
                "RandomPulsePolicy: price schedule length mismatch");
}

const std::vector<std::size_t>& RandomPulsePolicy::feasible(
    double battery_level) const {
  if (battery_level > config_.high_guard()) return actions_zero_only_;
  if (battery_level < config_.low_guard()) return actions_max_only_;
  return actions_all_;
}

std::vector<std::size_t> RandomPulsePolicy::allowed_actions(
    double battery_level) const {
  return feasible(battery_level);
}

double RandomPulsePolicy::reading(std::size_t n, double battery_level) {
  RLBLH_REQUIRE(n < config_.intervals_per_day,
                "RandomPulsePolicy: interval out of range");
  if (n % config_.decision_interval == 0) {
    const auto& allowed = feasible(battery_level);
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(allowed.size() - 1)));
    current_action_ = allowed[i];
  }
  return config_.action_magnitude(current_action_);
}

double RandomPulsePolicy::fill_block(std::size_t n0, std::size_t width,
                                     double battery_level) {
  RLBLH_REQUIRE(n0 < config_.intervals_per_day &&
                    n0 + width <= config_.intervals_per_day,
                "RandomPulsePolicy: block out of range");
  RLBLH_REQUIRE(n0 % config_.decision_interval == 0,
                "RandomPulsePolicy: block must start on a decision boundary");
  // One uniform draw per block — the same single draw the per-interval
  // path makes when n crosses a decision boundary, over a feasible set of
  // the same size, so the RNG stream is bitwise unchanged.
  const auto& allowed = feasible(battery_level);
  const auto i = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(allowed.size() - 1)));
  current_action_ = allowed[i];
  return config_.action_magnitude(current_action_);
}

void RandomPulsePolicy::observe_usage(std::size_t n, double usage) {
  RLBLH_REQUIRE(n < config_.intervals_per_day && usage >= 0.0,
                "RandomPulsePolicy: bad observation");
}

void RandomPulsePolicy::observe_block(std::size_t n0,
                                      std::span<const double> usage) {
  RLBLH_REQUIRE(n0 + usage.size() <= config_.intervals_per_day,
                "RandomPulsePolicy: block out of range");
  for (std::size_t i = 0; i < usage.size(); ++i) {
    RLBLH_REQUIRE(usage[i] >= 0.0, "RandomPulsePolicy: bad observation");
  }
}

}  // namespace rlblh
