#include "baselines/mdp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace rlblh {

void MdpConfig::validate() const {
  RLBLH_REQUIRE(intervals_per_day >= 2, "MdpConfig: need >= 2 intervals");
  RLBLH_REQUIRE(decision_interval >= 1,
                "MdpConfig: decision interval must be >= 1");
  RLBLH_REQUIRE(intervals_per_day % decision_interval == 0,
                "MdpConfig: n_M must be a multiple of n_D");
  RLBLH_REQUIRE(usage_cap > 0.0, "MdpConfig: usage cap must be > 0");
  RLBLH_REQUIRE(battery_capacity > 0.0,
                "MdpConfig: battery capacity must be > 0");
  RLBLH_REQUIRE(num_actions >= 2, "MdpConfig: need >= 2 actions");
  RLBLH_REQUIRE(battery_levels >= 2, "MdpConfig: need >= 2 battery levels");
  RLBLH_REQUIRE(usage_levels >= 2, "MdpConfig: need >= 2 usage levels");
  const double guard =
      usage_cap * static_cast<double>(decision_interval);
  RLBLH_REQUIRE(battery_capacity >= 2.0 * guard,
                "MdpConfig: battery too small: b_M must be >= 2 * x_M * n_D");
}

namespace {
MdpConfig validated(MdpConfig config) {
  config.validate();
  return config;
}
}  // namespace

MdpBlhPolicy::MdpBlhPolicy(MdpConfig config)
    : config_(validated(config)),
      battery_q_(config_.battery_levels, 0.0, config_.battery_capacity),
      usage_sum_q_(config_.usage_levels, 0.0,
                   config_.usage_cap *
                       static_cast<double>(config_.decision_interval)),
      priced_usage_sum_(config_.decisions_per_day(), 0.0),
      rate_sum_(config_.decisions_per_day(), 0.0) {
  const double z_max =
      config_.usage_cap * static_cast<double>(config_.decision_interval);
  usage_sum_hist_.reserve(config_.decisions_per_day());
  for (std::size_t k = 0; k < config_.decisions_per_day(); ++k) {
    usage_sum_hist_.emplace_back(config_.usage_levels, 0.0, z_max);
  }
  actions_all_.resize(config_.num_actions);
  for (std::size_t a = 0; a < actions_all_.size(); ++a) actions_all_[a] = a;
  actions_zero_only_ = {0};
  actions_max_only_ = {config_.num_actions - 1};
}

void MdpBlhPolicy::observe_training_day(const DayTrace& usage,
                                        const TouSchedule& prices) {
  RLBLH_REQUIRE(usage.intervals() == config_.intervals_per_day,
                "MdpBlhPolicy: usage day length mismatch");
  RLBLH_REQUIRE(prices.intervals() == config_.intervals_per_day,
                "MdpBlhPolicy: price schedule length mismatch");
  const std::size_t n_d = config_.decision_interval;
  for (std::size_t k = 0; k < config_.decisions_per_day(); ++k) {
    double z = 0.0;
    double priced = 0.0;
    double rates = 0.0;
    for (std::size_t i = 0; i < n_d; ++i) {
      const std::size_t n = k * n_d + i;
      z += usage.at(n);
      priced += prices.rate(n) * usage.at(n);
      rates += prices.rate(n);
    }
    usage_sum_hist_[k].add(z);
    // Running mean of the priced usage sum across training days.
    const auto d = static_cast<double>(training_days_ + 1);
    priced_usage_sum_[k] += (priced - priced_usage_sum_[k]) / d;
    rate_sum_[k] = rates;
  }
  ++training_days_;
}

const std::vector<std::size_t>& MdpBlhPolicy::feasible(
    double battery_level) const {
  const double guard =
      config_.usage_cap * static_cast<double>(config_.decision_interval);
  if (battery_level > config_.battery_capacity - guard) {
    return actions_zero_only_;
  }
  if (battery_level < guard) return actions_max_only_;
  return actions_all_;
}

std::vector<std::size_t> MdpBlhPolicy::allowed_actions(
    double battery_level) const {
  return feasible(battery_level);
}

void MdpBlhPolicy::solve() {
  RLBLH_REQUIRE(training_days_ >= 1,
                "MdpBlhPolicy: observe at least one training day first");
  const std::size_t k_max = config_.decisions_per_day();
  const std::size_t levels = config_.battery_levels;
  const std::size_t actions = config_.num_actions;
  const double n_d = static_cast<double>(config_.decision_interval);

  value_.assign((k_max + 1) * levels, 0.0);
  policy_.assign(k_max * levels, 0);

  // Backward induction: V(k_M, .) = 0 (paper Eq. 10).
  for (std::size_t k = k_max; k-- > 0;) {
    const Histogram& dist = usage_sum_hist_[k];
    for (std::size_t li = 0; li < levels; ++li) {
      const double level = battery_q_.value(li);
      const auto& allowed = feasible(level);
      double best = -std::numeric_limits<double>::infinity();
      std::size_t best_action = allowed.front();
      for (const std::size_t a : allowed) {
        const double magnitude =
            static_cast<double>(a) * config_.usage_cap /
            static_cast<double>(actions - 1);
        // Expected reward: E[sum r_n x_n] - magnitude * sum r_n (Eq. 7).
        double q = priced_usage_sum_[k] - magnitude * rate_sum_[k];
        // Expected continuation over the quantized usage-sum distribution.
        for (std::size_t zi = 0; zi < config_.usage_levels; ++zi) {
          const double p = dist.probability(zi);
          if (p <= 0.0) continue;
          const double z = usage_sum_q_.value(zi);
          const double next_level =
              std::clamp(level + magnitude * n_d - z, 0.0,
                         config_.battery_capacity);
          q += p * value_[(k + 1) * levels + battery_q_.index(next_level)];
        }
        if (q > best) {
          best = q;
          best_action = a;
        }
      }
      value_[k * levels + li] = best;
      policy_[state_index(k, li)] = best_action;
    }
  }
  solved_ = true;
}

std::size_t MdpBlhPolicy::state_count() const {
  return config_.decisions_per_day() * config_.battery_levels;
}

std::size_t MdpBlhPolicy::table_entries() const {
  return state_count() * config_.num_actions;
}

double MdpBlhPolicy::expected_savings(double initial_level) const {
  RLBLH_REQUIRE(solved_, "MdpBlhPolicy: solve() first");
  return value_[battery_q_.index(
      std::clamp(initial_level, 0.0, config_.battery_capacity))];
}

void MdpBlhPolicy::begin_day(const TouSchedule& prices) {
  RLBLH_REQUIRE(solved_, "MdpBlhPolicy: solve() before acting");
  RLBLH_REQUIRE(prices.intervals() == config_.intervals_per_day,
                "MdpBlhPolicy: price schedule length mismatch");
  RLBLH_REQUIRE(!day_open_, "MdpBlhPolicy: previous day not ended");
  day_open_ = true;
  current_action_ = 0;
}

double MdpBlhPolicy::reading(std::size_t n, double battery_level) {
  RLBLH_REQUIRE(day_open_, "MdpBlhPolicy: reading() before begin_day()");
  RLBLH_REQUIRE(n < config_.intervals_per_day,
                "MdpBlhPolicy: interval out of range");
  if (n % config_.decision_interval == 0) {
    const std::size_t k = n / config_.decision_interval;
    // The stored greedy action may be infeasible at the *exact* (continuous)
    // level because the table was built on quantized levels; re-check.
    const auto& allowed = feasible(battery_level);
    const std::size_t table_action =
        policy_[state_index(k, battery_q_.index(std::clamp(
                                   battery_level, 0.0,
                                   config_.battery_capacity)))];
    current_action_ = table_action;
    if (std::find(allowed.begin(), allowed.end(), table_action) ==
        allowed.end()) {
      current_action_ = allowed.front();
    }
  }
  return static_cast<double>(current_action_) * config_.usage_cap /
         static_cast<double>(config_.num_actions - 1);
}

double MdpBlhPolicy::fill_block(std::size_t n0, std::size_t width,
                                double battery_level) {
  RLBLH_REQUIRE(day_open_, "MdpBlhPolicy: fill_block() before begin_day()");
  RLBLH_REQUIRE(n0 < config_.intervals_per_day &&
                    n0 + width <= config_.intervals_per_day,
                "MdpBlhPolicy: block out of range");
  RLBLH_REQUIRE(n0 % config_.decision_interval == 0,
                "MdpBlhPolicy: block must start on a decision boundary");
  const std::size_t k = n0 / config_.decision_interval;
  // Same table lookup + feasibility re-check as the boundary branch of
  // reading(), made once per block.
  const auto& allowed = feasible(battery_level);
  const std::size_t table_action =
      policy_[state_index(k, battery_q_.index(std::clamp(
                                 battery_level, 0.0,
                                 config_.battery_capacity)))];
  current_action_ = table_action;
  if (std::find(allowed.begin(), allowed.end(), table_action) ==
      allowed.end()) {
    current_action_ = allowed.front();
  }
  return static_cast<double>(current_action_) * config_.usage_cap /
         static_cast<double>(config_.num_actions - 1);
}

void MdpBlhPolicy::observe_usage(std::size_t n, double usage) {
  RLBLH_REQUIRE(day_open_, "MdpBlhPolicy: observe before begin_day()");
  RLBLH_REQUIRE(n < config_.intervals_per_day && usage >= 0.0,
                "MdpBlhPolicy: bad observation");
  if (n + 1 == config_.intervals_per_day) day_open_ = false;
}

void MdpBlhPolicy::observe_block(std::size_t n0, ConstTraceLane usage) {
  RLBLH_REQUIRE(day_open_, "MdpBlhPolicy: observe before begin_day()");
  RLBLH_REQUIRE(n0 + usage.size() <= config_.intervals_per_day,
                "MdpBlhPolicy: block out of range");
  for (std::size_t i = 0; i < usage.size(); ++i) {
    RLBLH_REQUIRE(usage[i] >= 0.0, "MdpBlhPolicy: bad observation");
  }
  if (n0 + usage.size() == config_.intervals_per_day) day_open_ = false;
}

}  // namespace rlblh
