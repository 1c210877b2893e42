#include "sim/proptest_domains.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace rlblh::proptest {

namespace {

/// Keeps only candidates that still validate and actually differ from the
/// original (a no-op candidate would stall the greedy shrink walk).
template <typename Config, typename Mutate>
void push_shrunk(std::vector<Config>* out, const Config& from, Mutate mutate) {
  Config candidate = from;
  mutate(candidate);
  try {
    candidate.validate();
  } catch (const std::exception&) {
    return;
  }
  out->push_back(std::move(candidate));
}

}  // namespace

Domain<RlBlhConfig> rlblh_config_domain() {
  Domain<RlBlhConfig> domain;
  domain.generate = [](Rng& rng) {
    RlBlhConfig config;
    config.intervals_per_day =
        static_cast<std::size_t>(rng.uniform_int(120, 1440));
    config.decision_interval = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<int>(std::min<std::size_t>(
                               60, config.intervals_per_day / 2))));
    config.usage_cap = rng.uniform(0.02, 0.15);
    config.num_actions = static_cast<std::size_t>(rng.uniform_int(2, 12));
    // Guard bands need b_M >= 2 * x_M * n_D; sample headroom above that.
    const double min_capacity =
        2.0 * config.usage_cap * static_cast<double>(config.decision_interval);
    config.battery_capacity = min_capacity * rng.uniform(1.0, 4.0);
    config.alpha = rng.uniform(0.005, 0.3);
    config.alpha_floor = config.alpha * rng.uniform(0.0, 0.5);
    config.epsilon = rng.uniform(0.0, 0.3);
    config.epsilon_floor = config.epsilon * rng.uniform(0.0, 0.5);
    config.decay_hyperparams = rng.bernoulli(0.8);
    config.decay_by_episodes = rng.bernoulli(0.2);
    config.double_q = rng.bernoulli(0.3);
    config.replay_random_start = rng.bernoulli(0.8);
    config.enable_reuse = false;
    config.enable_synthetic = false;
    config.seed = rng.engine()();
    return config;
  };
  domain.shrink = [](const RlBlhConfig& from) {
    std::vector<RlBlhConfig> out;
    // Stay within the generator's range (>= 120 intervals) so a shrunk
    // reproduction still pairs with every consumer of the domain.
    if (from.intervals_per_day > 120) {
      push_shrunk(&out, from, [&](RlBlhConfig& c) {
        c.intervals_per_day =
            std::max<std::size_t>(120, c.intervals_per_day / 2);
        c.decision_interval =
            std::min(c.decision_interval, c.intervals_per_day / 2);
      });
    }
    if (from.decision_interval > 1) {
      push_shrunk(&out, from, [](RlBlhConfig& c) { c.decision_interval = 1; });
      push_shrunk(&out, from,
                  [](RlBlhConfig& c) { c.decision_interval /= 2; });
    }
    if (from.num_actions > 2) {
      push_shrunk(&out, from, [](RlBlhConfig& c) { c.num_actions = 2; });
    }
    const double min_capacity =
        2.0 * from.usage_cap * static_cast<double>(from.decision_interval);
    if (from.battery_capacity > min_capacity * 1.0001) {
      push_shrunk(&out, from, [&](RlBlhConfig& c) {
        c.battery_capacity = min_capacity;
      });
    }
    if (from.double_q) {
      push_shrunk(&out, from, [](RlBlhConfig& c) { c.double_q = false; });
    }
    if (from.decay_by_episodes) {
      push_shrunk(&out, from,
                  [](RlBlhConfig& c) { c.decay_by_episodes = false; });
    }
    if (from.enable_reuse || from.enable_synthetic) {
      push_shrunk(&out, from, [](RlBlhConfig& c) {
        c.enable_reuse = false;
        c.enable_synthetic = false;
      });
    }
    if (from.epsilon > 0.0) {
      push_shrunk(&out, from, [](RlBlhConfig& c) {
        c.epsilon = 0.0;
        c.epsilon_floor = 0.0;
      });
    }
    if (from.seed != 1) {
      push_shrunk(&out, from, [](RlBlhConfig& c) { c.seed = 1; });
    }
    return out;
  };
  domain.describe = [](const RlBlhConfig& c) { return describe(c); };
  return domain;
}

Domain<HouseholdConfig> household_config_domain(std::size_t intervals,
                                                double usage_cap) {
  Domain<HouseholdConfig> domain;
  domain.generate = [intervals, usage_cap](Rng& rng) {
    HouseholdConfig config;
    config.intervals = intervals;
    config.usage_cap = usage_cap;
    const double day = static_cast<double>(intervals);
    config.wake_mean = day * rng.uniform(0.15, 0.30);
    config.leave_mean = config.wake_mean + day * rng.uniform(0.03, 0.10);
    config.back_mean = config.leave_mean + day * rng.uniform(0.25, 0.45);
    config.sleep_mean =
        config.back_mean + (day - config.back_mean) * rng.uniform(0.3, 0.95);
    config.wake_sigma = day * rng.uniform(0.0, 0.03);
    config.leave_sigma = day * rng.uniform(0.0, 0.03);
    config.back_sigma = day * rng.uniform(0.0, 0.03);
    config.sleep_sigma = day * rng.uniform(0.0, 0.03);
    config.workday_probability = rng.uniform(0.0, 1.0);
    config.vacancy_probability = rng.uniform(0.0, 0.15);
    config.appliance_scale = rng.uniform(0.5, 2.0);
    config.hvac_setback = rng.uniform(0.0, 1.0);
    config.ev_probability = rng.bernoulli(0.3) ? rng.uniform(0.0, 1.0) : 0.0;
    config.ev_power = rng.uniform(0.01, 0.05);
    return config;
  };
  domain.shrink = [](const HouseholdConfig& from) {
    std::vector<HouseholdConfig> out;
    if (from.wake_sigma > 0.0 || from.leave_sigma > 0.0 ||
        from.back_sigma > 0.0 || from.sleep_sigma > 0.0) {
      push_shrunk(&out, from, [](HouseholdConfig& c) {
        c.wake_sigma = c.leave_sigma = c.back_sigma = c.sleep_sigma = 0.0;
      });
    }
    if (from.vacancy_probability > 0.0) {
      push_shrunk(&out, from,
                  [](HouseholdConfig& c) { c.vacancy_probability = 0.0; });
    }
    if (from.ev_probability > 0.0) {
      push_shrunk(&out, from,
                  [](HouseholdConfig& c) { c.ev_probability = 0.0; });
    }
    if (from.appliance_scale != 1.0) {
      push_shrunk(&out, from,
                  [](HouseholdConfig& c) { c.appliance_scale = 1.0; });
    }
    return out;
  };
  domain.describe = [](const HouseholdConfig& c) { return describe(c); };
  return domain;
}

TouSchedule gen_tou_schedule(std::size_t intervals, Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return TouSchedule::flat(intervals, rng.uniform(2.0, 30.0));
    case 1: {
      const auto low_until = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<int>(intervals) - 1));
      const double low = rng.uniform(2.0, 12.0);
      return TouSchedule::two_zone(intervals, low_until, low,
                                   low + rng.uniform(1.0, 20.0));
    }
    case 2: {
      const auto t1 = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<int>(intervals) - 2));
      const auto t2 = static_cast<std::size_t>(rng.uniform_int(
          static_cast<int>(t1) + 1, static_cast<int>(intervals) - 1));
      const double off = rng.uniform(2.0, 10.0);
      const double semi = off + rng.uniform(1.0, 10.0);
      return TouSchedule::three_zone(intervals, t1, t2, off, semi,
                                     semi + rng.uniform(1.0, 15.0));
    }
    default: {
      const auto block =
          static_cast<std::size_t>(rng.uniform_int(1, 120));
      const double lo = rng.uniform(1.0, 8.0);
      return TouSchedule::hourly_rtp(intervals, block, lo,
                                     lo + rng.uniform(2.0, 25.0), rng);
    }
  }
}

DayTrace gen_usage_trace(std::size_t intervals, double cap, Rng& rng) {
  std::vector<double> values(intervals, 0.0);
  const double base = rng.uniform(0.0, 0.3 * cap);
  std::fill(values.begin(), values.end(), base);
  // Plateaus: appliance-like sustained draws of random level and span.
  const int plateaus = rng.uniform_int(0, 8);
  for (int p = 0; p < plateaus; ++p) {
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(intervals) - 1));
    const auto span = static_cast<std::size_t>(
        rng.uniform_int(1, std::max(2, static_cast<int>(intervals / 8))));
    const double level = rng.uniform(0.0, cap);
    for (std::size_t n = start; n < std::min(intervals, start + span); ++n) {
      values[n] = level;
    }
  }
  // Spikes at the cap and dead (vacant) stretches: the two extremes the
  // feasibility rule has to survive.
  const int spikes = rng.uniform_int(0, 6);
  for (int s = 0; s < spikes; ++s) {
    values[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(intervals) - 1))] = cap;
  }
  if (rng.bernoulli(0.3)) {
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(intervals) - 1));
    const auto span = static_cast<std::size_t>(
        rng.uniform_int(1, std::max(2, static_cast<int>(intervals / 4))));
    for (std::size_t n = start; n < std::min(intervals, start + span); ++n) {
      values[n] = 0.0;
    }
  }
  for (double& v : values) v = std::clamp(v, 0.0, cap);
  return DayTrace(std::move(values));
}

std::string describe(const RlBlhConfig& c) {
  std::ostringstream out;
  out << "RlBlhConfig{n_M=" << c.intervals_per_day
      << " n_D=" << c.decision_interval << " x_M=" << c.usage_cap
      << " b_M=" << c.battery_capacity << " a_M=" << c.num_actions
      << " alpha=" << c.alpha << " eps=" << c.epsilon
      << " decay=" << (c.decay_hyperparams ? 1 : 0)
      << " by_ep=" << (c.decay_by_episodes ? 1 : 0)
      << " dq=" << (c.double_q ? 1 : 0)
      << " reuse=" << (c.enable_reuse ? 1 : 0)
      << " syn=" << (c.enable_synthetic ? 1 : 0) << " seed=" << c.seed << "}";
  return out.str();
}

std::string describe(const HouseholdConfig& c) {
  std::ostringstream out;
  out << "HouseholdConfig{n_M=" << c.intervals << " x_M=" << c.usage_cap
      << " wake=" << c.wake_mean << " leave=" << c.leave_mean
      << " back=" << c.back_mean << " sleep=" << c.sleep_mean
      << " work_p=" << c.workday_probability
      << " vac_p=" << c.vacancy_probability
      << " scale=" << c.appliance_scale << " ev_p=" << c.ev_probability
      << "}";
  return out.str();
}

}  // namespace rlblh::proptest
