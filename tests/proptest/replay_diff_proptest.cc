// Differential property suite for the RL-BLH replay kernel.
//
// RlBlhPolicy::train_virtual_day evaluates each action's Q value once per
// decision boundary: the bootstrap's successor values are reused by the
// next decision, with only the entry the SGD step changed re-evaluated.
// end_day samples SYN days into a reused buffer instead of a fresh
// DayTrace. The contract is bitwise equality with the straightforward
// per-decision loop and the histogram-walk sampler, which this suite keeps
// as test-local oracles. Each case runs real days through a policy with
// REUSE/SYN on and replays the same days through the oracle, then calls
// train_virtual_day directly; after every round both weight tables, the
// RNG engine state and every returned mean |Delta Q| must match bit for
// bit.
//
// Labeled `proptest` in CTest; filter with `ctest -LE proptest` to skip, or
// scale the case count with RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/qfunction.h"
#include "core/rlblh_policy.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "rl/decay.h"
#include "rl/egreedy.h"
#include "sim/proptest_domains.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

using proptest::for_all;
using proptest::PropertyOptions;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One interval's sampling state, copied from the policy's tracker.
struct IntervalDist {
  std::vector<double> reservoir;
  double fraction = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double total = 0.0;
  std::vector<double> counts;

  /// The histogram-walk sampler as it stood before the buffer rewrite.
  double sample(Rng& rng) const {
    if (!reservoir.empty() && rng.uniform() < fraction) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(reservoir.size() - 1)));
      return reservoir[i];
    }
    double target = rng.uniform() * total;
    std::size_t cell = counts.size() - 1;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      target -= counts[i];
      if (target <= 0.0) {
        cell = i;
        break;
      }
    }
    const double width = (hi - lo) / static_cast<double>(counts.size());
    const double left = lo + static_cast<double>(cell) * width;
    return left + rng.uniform() * width;
  }
};

/// Every interval's sampling state of `policy`'s usage statistics.
std::vector<IntervalDist> copy_stats(const RlBlhPolicy& policy) {
  const UsageStatsTracker& stats = policy.usage_stats();
  std::vector<IntervalDist> out(stats.intervals());
  for (std::size_t n = 0; n < out.size(); ++n) {
    const EmpiricalDistribution& dist = stats.distribution(n);
    const Histogram& hist = dist.histogram();
    out[n].reservoir.assign(dist.reservoir().begin(), dist.reservoir().end());
    out[n].fraction = dist.reservoir_fraction();
    out[n].lo = hist.lo();
    out[n].hi = hist.hi();
    out[n].total = hist.total();
    out[n].counts.assign(hist.counts().begin(), hist.counts().end());
  }
  return out;
}

/// A policy's binary state image (save_state).
std::string state_image(const RlBlhPolicy& policy) {
  std::ostringstream image;
  policy.save_state(image);
  return image.str();
}

/// The replay half of RlBlhPolicy as it stood before the value-cached
/// kernel: every decision evaluates its own features, argmax and bootstrap
/// from scratch through the public Q-table API.
class ReplayOracle {
 public:
  /// Snapshot of `policy` between days, replaying under `config` (the
  /// REUSE/SYN settings may differ from the policy's own).
  ReplayOracle(const RlBlhConfig& config, const RlBlhPolicy& policy,
               const TouSchedule& prices)
      : config_(config),
        basis_(config.decisions_per_day(), config.battery_capacity),
        q_(policy.q()),
        q2_(policy.q2()),
        rng_(policy.rng()),
        dists_(copy_stats(policy)),
        prices_(prices),
        day_(policy.days_completed()),
        episodes_(policy.episodes_completed()),
        learning_(policy.learning_enabled()),
        exploration_(policy.exploration_enabled()),
        actions_all_(config.num_actions),
        actions_zero_only_{0},
        actions_max_only_{config.num_actions - 1} {
    for (std::size_t a = 0; a < actions_all_.size(); ++a) actions_all_[a] = a;
  }

  /// end_day()'s REUSE and SYN rounds for real day day_ (1-based).
  void replay_after_real_day(const std::vector<double>& today,
                             double initial_level_today) {
    if (!learning_) return;
    const std::size_t d = day_;
    const auto replay_start = [&] {
      return config_.replay_random_start
                 ? rng_.uniform(0.0, config_.battery_capacity)
                 : initial_level_today;
    };
    if (config_.enable_reuse && d <= config_.reuse_days) {
      for (std::size_t v = 0; v < config_.reuse_repeats; ++v) {
        train_virtual_day(today, replay_start());
      }
    }
    if (config_.enable_synthetic && d % config_.synthetic_period == 0 &&
        d <= config_.synthetic_last_day) {
      for (std::size_t v = 0; v < config_.synthetic_repeats; ++v) {
        const std::vector<double> synthetic = sample_day(rng_);
        train_virtual_day(synthetic, replay_start());
      }
    }
  }

  /// The pre-change per-decision loop.
  double train_virtual_day(const std::vector<double>& usage,
                           double initial_level) {
    const double alpha_now = current_alpha();
    const double epsilon_now = exploration_ ? current_epsilon() : 0.0;
    const std::size_t k_max = config_.decisions_per_day();
    const std::size_t n_d = config_.decision_interval;

    double level = std::clamp(initial_level, 0.0, config_.battery_capacity);
    double abs_error = 0.0;

    for (std::size_t k = 0; k < k_max; ++k) {
      const auto features = basis_.at(k, level);
      const auto& allowed = allowed_actions(level);
      const std::size_t greedy = acting_argmax(features, allowed);
      const std::size_t action =
          epsilon_greedy(allowed, greedy, epsilon_now, rng_);
      const double magnitude = config_.action_magnitude(action);

      double savings = 0.0;
      const std::size_t width = config_.decision_width(k);
      for (std::size_t i = 0; i < width; ++i) {
        const std::size_t n = k * n_d + i;
        const double x = std::clamp(usage[n], 0.0, config_.usage_cap);
        savings += prices_.rate(n) * (x - magnitude);
        level += magnitude - x;
      }
      level = std::clamp(level, 0.0, config_.battery_capacity);

      const bool use_first = config_.double_q ? rng_.bernoulli(0.5) : true;
      PerActionLinearQ& learner = use_first ? q_ : q2_;
      double target = savings;
      if (k + 1 < k_max) {
        const auto next_features = basis_.at(k + 1, level);
        target += bootstrap_value(next_features, allowed_actions(level),
                                  use_first);
      }
      const double delta_q = target - learner.value(features, action);
      if (learning_) {
        learner.sgd_update(action, features, delta_q, alpha_now);
      }
      abs_error += std::abs(delta_q);
    }
    if (learning_) ++episodes_;
    return abs_error / static_cast<double>(k_max);
  }

  /// The pre-change sample_day: one walk-sampled value per interval.
  std::vector<double> sample_day(Rng& rng) const {
    std::vector<double> day(dists_.size());
    for (std::size_t n = 0; n < dists_.size(); ++n) {
      day[n] = dists_[n].sample(rng);
    }
    return day;
  }

  const PerActionLinearQ& q() const { return q_; }
  const PerActionLinearQ& q2() const { return q2_; }
  const Rng& rng() const { return rng_; }
  std::size_t episodes() const { return episodes_; }

 private:
  double current_alpha() const {
    if (!config_.decay_hyperparams) return config_.alpha;
    const std::size_t d = config_.decay_by_episodes ? episodes_ : day_;
    return std::max(config_.alpha_floor,
                    InverseSqrtDecay(config_.alpha).at(d + 1));
  }

  double current_epsilon() const {
    if (!config_.decay_hyperparams) return config_.epsilon;
    const std::size_t d = config_.decay_by_episodes ? episodes_ : day_;
    return std::max(config_.epsilon_floor,
                    InverseSqrtDecay(config_.epsilon).at(d + 1));
  }

  const std::vector<std::size_t>& allowed_actions(double level) const {
    if (level > config_.high_guard()) return actions_zero_only_;
    if (level < config_.low_guard()) return actions_max_only_;
    return actions_all_;
  }

  std::size_t acting_argmax(std::span<const double> features,
                            const std::vector<std::size_t>& allowed) const {
    if (!config_.double_q) return q_.argmax(features, allowed);
    std::size_t best = allowed.front();
    double best_value = q_.value(features, best) + q2_.value(features, best);
    for (std::size_t i = 1; i < allowed.size(); ++i) {
      const double v = q_.value(features, allowed[i]) +
                       q2_.value(features, allowed[i]);
      if (v > best_value) {
        best_value = v;
        best = allowed[i];
      }
    }
    return best;
  }

  double bootstrap_value(std::span<const double> features,
                         const std::vector<std::size_t>& allowed,
                         bool use_first) const {
    if (!config_.double_q) return q_.max_value(features, allowed);
    const PerActionLinearQ& selector = use_first ? q_ : q2_;
    const PerActionLinearQ& evaluator = use_first ? q2_ : q_;
    return evaluator.value(features, selector.argmax(features, allowed));
  }

  RlBlhConfig config_;
  FeatureBasis basis_;
  PerActionLinearQ q_;
  PerActionLinearQ q2_;
  Rng rng_;
  std::vector<IntervalDist> dists_;
  TouSchedule prices_;
  std::size_t day_;
  std::size_t episodes_;
  bool learning_;
  bool exploration_;
  std::vector<std::size_t> actions_all_;
  std::vector<std::size_t> actions_zero_only_;
  std::vector<std::size_t> actions_max_only_;
};

/// Weight tables and episode count bit for bit; with a checkpoint of the
/// policy, its RNG stream too.
void check_same_state(const RlBlhPolicy& policy, const ReplayOracle& oracle,
                      const std::string& where) {
  for (int t = 0; t < 2; ++t) {
    const PerActionLinearQ& ours = t == 0 ? policy.q() : policy.q2();
    const PerActionLinearQ& theirs = t == 0 ? oracle.q() : oracle.q2();
    for (std::size_t a = 0; a < ours.num_actions(); ++a) {
      const auto& w = ours.function(a).weights();
      const auto& w_ref = theirs.function(a).weights();
      for (std::size_t i = 0; i < w.size(); ++i) {
        PROPTEST_CHECK(same_bits(w[i], w_ref[i]),
                       where + ": table " + std::to_string(t) + " action " +
                           std::to_string(a) + " weight " +
                           std::to_string(i) + " diverged");
      }
    }
  }
  PROPTEST_CHECK(policy.episodes_completed() == oracle.episodes(),
                 where + ": episode count diverged");
  PROPTEST_CHECK(policy.rng().engine() == oracle.rng().engine(),
                 where + ": RNG stream diverged");
}

/// A day of usage with structure, some of it above x_M: the observe paths
/// accept any x >= 0, so replayed REUSE days can exceed the cap and the
/// kernel's clamp must act.
std::vector<double> gen_day(std::size_t intervals, double cap, Rng& rng) {
  std::vector<double> day =
      proptest::gen_usage_trace(intervals, cap, rng).values();
  const double spike_share = rng.uniform(0.0, 0.2);
  for (double& x : day) {
    if (rng.uniform() < spike_share) x = cap * rng.uniform(1.0, 3.0);
  }
  return day;
}

/// Drives one real day through the block protocol with a lossless
/// battery starting at `level`.
void run_real_day(RlBlhPolicy& policy, const TouSchedule& prices,
                  const std::vector<double>& usage, double level) {
  const RlBlhConfig& config = policy.config();
  policy.begin_day(prices);
  for (std::size_t n0 = 0; n0 < usage.size();
       n0 += config.decision_interval) {
    const std::size_t width =
        std::min(config.decision_interval, usage.size() - n0);
    const double y = policy.fill_block(n0, width, level);
    policy.observe_block(n0, std::span<const double>(usage).subspan(n0, width));
    for (std::size_t i = 0; i < width; ++i) {
      level = std::clamp(level + y - usage[n0 + i], 0.0,
                         config.battery_capacity);
    }
  }
  policy.end_day();
}

TEST(ReplayDiffProptest, ReplayMatchesPerDecisionOracleBitwise) {
  PropertyOptions options;
  options.iterations = 100;
  options.base_seed = 0x5e91a7d1ffull;
  const auto result = for_all(
      "replay kernel == per-decision oracle", proptest::rlblh_config_domain(),
      [](const RlBlhConfig& sampled, Rng& rng) {
        RlBlhConfig config = sampled;
        config.double_q = rng.bernoulli(0.5);
        config.replay_random_start = rng.bernoulli(0.5);
        config.enable_reuse = true;
        config.reuse_days = static_cast<std::size_t>(rng.uniform_int(1, 4));
        config.reuse_repeats =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        config.enable_synthetic = true;
        config.synthetic_period =
            static_cast<std::size_t>(rng.uniform_int(1, 3));
        config.synthetic_last_day =
            static_cast<std::size_t>(rng.uniform_int(1, 5));
        config.synthetic_repeats =
            static_cast<std::size_t>(rng.uniform_int(1, 4));
        config.stats_bins = static_cast<std::size_t>(rng.uniform_int(2, 12));
        config.stats_reservoir =
            static_cast<std::size_t>(rng.uniform_int(1, 8));
        const bool learning = !rng.bernoulli(0.15);
        const bool exploration = !rng.bernoulli(0.15);

        // `replaying` runs REUSE/SYN in end_day; `twin` is the same policy
        // with replay off, so after end_day it holds exactly the state the
        // replay rounds start from — the oracle's snapshot.
        RlBlhConfig no_replay = config;
        no_replay.enable_reuse = false;
        no_replay.enable_synthetic = false;
        RlBlhPolicy replaying(config);
        RlBlhPolicy twin(no_replay);
        replaying.set_learning_enabled(learning);
        twin.set_learning_enabled(learning);
        replaying.set_exploration_enabled(exploration);
        twin.set_exploration_enabled(exploration);

        const std::size_t n_m = config.intervals_per_day;
        const TouSchedule prices = proptest::gen_tou_schedule(n_m, rng);
        const int days = rng.uniform_int(1, 4);
        for (int d = 0; d < days; ++d) {
          const std::vector<double> usage =
              gen_day(n_m, config.usage_cap, rng);
          const double start = rng.uniform(0.0, config.battery_capacity);
          run_real_day(replaying, prices, usage, start);
          run_real_day(twin, prices, usage, start);
          ReplayOracle oracle(config, twin, prices);
          oracle.replay_after_real_day(usage, start);
          check_same_state(replaying, oracle,
                           "after real day " + std::to_string(d + 1));
          // Resync the twin to the replayed state for the next day.
          std::istringstream checkpoint(state_image(replaying));
          twin.load_state(checkpoint);
        }

        // Direct calls (the twin needs a day's price schedule again after
        // its restore): returned means, start levels outside [0, b_M],
        // usage above x_M, and synthetic days from both samplers.
        run_real_day(twin, prices, gen_day(n_m, config.usage_cap, rng),
                     rng.uniform(0.0, config.battery_capacity));
        ReplayOracle oracle(config, twin, prices);
        const int virtual_days = rng.uniform_int(1, 6);
        for (int v = 0; v < virtual_days; ++v) {
          std::vector<double> usage;
          if (rng.bernoulli(0.5)) {
            usage = gen_day(n_m, config.usage_cap, rng);
          } else {
            Rng draws(rng.engine()());
            Rng oracle_draws = draws;
            usage = twin.usage_stats().sample_day(draws).values();
            const std::vector<double> expected =
                oracle.sample_day(oracle_draws);
            for (std::size_t n = 0; n < n_m; ++n) {
              PROPTEST_CHECK(same_bits(usage[n], expected[n]),
                             "sample_day diverged at interval " +
                                 std::to_string(n));
            }
            PROPTEST_CHECK(draws.engine() == oracle_draws.engine(),
                           "sample_day consumed a different draw count");
          }
          const double start =
              config.battery_capacity * rng.uniform(-0.2, 1.2);
          const double ours = twin.train_virtual_day(usage, start);
          const double theirs = oracle.train_virtual_day(usage, start);
          PROPTEST_CHECK(same_bits(ours, theirs),
                         "mean |Delta Q| diverged on virtual day " +
                             std::to_string(v));
          check_same_state(twin, oracle,
                           "after virtual day " + std::to_string(v));
        }
        check_same_state(twin, oracle, "after the direct replays");
      },
      options);
  ASSERT_TRUE(result.success) << result.message;
  EXPECT_GE(result.iterations_run, 1u);
}

}  // namespace
}  // namespace rlblh
