#include "core/rlblh_policy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "rl/decay.h"
#include "rl/egreedy.h"
#include "util/bytes.h"
#include "util/error.h"

namespace rlblh {

namespace {
RlBlhConfig validated(RlBlhConfig config) {
  config.validate();
  return config;
}

/// A weight table in a policy image: its dimensions, then every action's
/// weights in order.
void write_table(ByteWriter<std::string>& out, const PerActionLinearQ& q) {
  out.u64(q.num_actions());
  out.u64(q.dimension());
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    out.f64s(q.function(a).weights());
  }
}

/// Reads a table written by write_table whose dimensions must match
/// `shape`'s (checked before anything is allocated).
PerActionLinearQ read_table(ByteReader& in, const PerActionLinearQ& shape) {
  const std::uint64_t actions = in.u64();
  const std::uint64_t dimension = in.u64();
  if (actions != shape.num_actions() || dimension != shape.dimension()) {
    in.fail("weight table dimensions do not match the configuration");
  }
  PerActionLinearQ q(shape.num_actions(), shape.dimension());
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    std::vector<double> weights(q.dimension());
    in.f64s(weights);
    q.function(a).set_weights(std::move(weights));
  }
  return q;
}

/// L2 norm over every weight of the table (the manifest's convergence
/// proxy: a plateauing norm with shrinking TD error means the approximator
/// has settled).
[[maybe_unused]] double weight_norm(const PerActionLinearQ& q) {
  double sum_sq = 0.0;
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    for (const double w : q.function(a).weights()) {
      sum_sq += w * w;
    }
  }
  return std::sqrt(sum_sq);
}
}  // namespace

RlBlhPolicy::RlBlhPolicy(RlBlhConfig config)
    : config_(validated(config)),
      basis_(config_.decisions_per_day(), config_.battery_capacity),
      q_(config_.num_actions, FeatureBasis::kDim),
      q2_(config_.num_actions, FeatureBasis::kDim),
      stats_(config_.intervals_per_day, config_.usage_cap, config_.stats_bins,
             config_.stats_reservoir),
      rng_(config_.seed),
      magnitudes_(config_.num_actions),
      high_guard_(config_.high_guard()),
      low_guard_(config_.low_guard()),
      actions_all_(config_.num_actions),
      actions_zero_only_{0},
      actions_max_only_{config_.num_actions - 1},
      values_{std::vector<double>(config_.num_actions),
              std::vector<double>(config_.num_actions)} {
  for (std::size_t a = 0; a < actions_all_.size(); ++a) {
    actions_all_[a] = a;
    magnitudes_[a] = config_.action_magnitude(a);
  }
  day_stats_.reserve(256);
}

double RlBlhPolicy::current_alpha() const {
  if (!config_.decay_hyperparams) return config_.alpha;
  const std::size_t d = config_.decay_by_episodes ? episodes_ : day_;
  return std::max(config_.alpha_floor,
                  InverseSqrtDecay(config_.alpha).at(d + 1));
}

double RlBlhPolicy::current_epsilon() const {
  if (!config_.decay_hyperparams) return config_.epsilon;
  const std::size_t d = config_.decay_by_episodes ? episodes_ : day_;
  return std::max(config_.epsilon_floor,
                  InverseSqrtDecay(config_.epsilon).at(d + 1));
}

const std::vector<std::size_t>& RlBlhPolicy::allowed_actions(
    double battery_level) const {
  // Section III-B feasibility: above the high guard only a zero pulse is
  // safe (the battery could otherwise overflow if usage stays at zero);
  // below the low guard only the full pulse is safe (usage could stay at
  // x_M and drain the battery).
  if (battery_level > high_guard_) {
    return actions_zero_only_;
  }
  if (battery_level < low_guard_) {
    return actions_max_only_;
  }
  return actions_all_;
}

void RlBlhPolicy::evaluate_actions(const Features& features) {
  const std::size_t tables = config_.double_q ? 2 : 1;
  for (std::size_t t = 0; t < tables; ++t) {
    const PerActionLinearQ& q = table(t);
    std::vector<double>& values = values_[t];
    for (std::size_t a = 0; a < values.size(); ++a) {
      values[a] = q.value(features, a);
    }
  }
}

std::size_t RlBlhPolicy::greedy_action(
    const std::vector<std::size_t>& allowed) const {
  // Under double-Q act on the mean of the two tables (standard double-Q
  // practice); the sum orders actions identically.
  const bool both = config_.double_q;
  const auto score = [&](std::size_t a) {
    return both ? values_[0][a] + values_[1][a] : values_[0][a];
  };
  RLBLH_ASSERT(!allowed.empty());
  std::size_t best = allowed.front();
  double best_value = score(best);
  for (std::size_t i = 1; i < allowed.size(); ++i) {
    const double v = score(allowed[i]);
    if (v > best_value) {
      best_value = v;
      best = allowed[i];
    }
  }
  return best;
}

std::size_t RlBlhPolicy::draw_learner() {
  return config_.double_q && !rng_.bernoulli(0.5) ? 1 : 0;
}

double RlBlhPolicy::bootstrap_value(const std::vector<std::size_t>& allowed,
                                    std::size_t learner) const {
  // Double-Q selects the successor action with the table being updated and
  // evaluates it with the other one: decorrelates selection and evaluation
  // noise. Plain Q selects and evaluates with q_.
  const std::vector<double>& selector = values_[learner];
  const std::vector<double>& evaluator =
      values_[config_.double_q ? 1 - learner : learner];
  std::size_t best = allowed.front();
  double best_value = selector[best];
  for (std::size_t i = 1; i < allowed.size(); ++i) {
    const double v = selector[allowed[i]];
    if (v > best_value) {
      best_value = v;
      best = allowed[i];
    }
  }
  return evaluator[best];
}

void RlBlhPolicy::learn(std::size_t learner, std::size_t action,
                        const Features& features, double delta_q,
                        double alpha_now, const Features* next) {
  PerActionLinearQ& q = table(learner);
  q.sgd_update(action, features, delta_q, alpha_now);
  if (next != nullptr) values_[learner][action] = q.value(*next, action);
}

void RlBlhPolicy::finalize_pending(const Features* next,
                                   const std::vector<std::size_t>& next_allowed,
                                   double alpha_now) {
  RLBLH_ASSERT(pending_active_);
  const std::size_t learner = draw_learner();
  double target = pending_savings_;
  if (next != nullptr) target += bootstrap_value(next_allowed, learner);
  const double delta_q =
      target - table(learner).value(pending_features_, pending_action_);
  if (learning_) {
    learn(learner, pending_action_, pending_features_, delta_q, alpha_now,
          next);
  }
  abs_error_sum_ += std::abs(delta_q);
  signed_error_sum_ += delta_q;
  savings_sum_ += pending_savings_;
  ++decisions_done_;
  if (pending_explored_) ++explored_count_;
  pending_active_ = false;
}

double RlBlhPolicy::decide(std::size_t k, double battery_level) {
  if (k == 0) initial_level_today_ = battery_level;
  const double alpha_now = current_alpha();
  const Features features = basis_.at(k, battery_level);
  const std::vector<std::size_t>& allowed = allowed_actions(battery_level);
  evaluate_actions(features);
  if (pending_active_) finalize_pending(&features, allowed, alpha_now);
  const double epsilon_now = exploration_ ? current_epsilon() : 0.0;
  const std::size_t greedy = greedy_action(allowed);
  const std::size_t action =
      epsilon_greedy(allowed, greedy, epsilon_now, rng_);
  pending_explored_ = action != greedy;
  pending_active_ = true;
  pending_action_ = action;
  pending_savings_ = 0.0;
  pending_features_ = features;
  return magnitudes_[action];
}

void RlBlhPolicy::begin_day(const TouSchedule& prices) {
  RLBLH_REQUIRE(prices.intervals() == config_.intervals_per_day,
                "RlBlhPolicy: price schedule length must equal n_M");
  RLBLH_REQUIRE(!day_open_, "RlBlhPolicy: previous day not ended");
  prices_ = prices;
  day_open_ = true;
  next_reading_n_ = 0;
  next_observe_n_ = 0;
  today_usage_.clear();
  today_usage_.reserve(config_.intervals_per_day);
  pending_active_ = false;
  abs_error_sum_ = 0.0;
  signed_error_sum_ = 0.0;
  savings_sum_ = 0.0;
  decisions_done_ = 0;
  explored_count_ = 0;
}

double RlBlhPolicy::reading(std::size_t n, double battery_level) {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: reading() before begin_day()");
  RLBLH_REQUIRE(n == next_reading_n_,
                "RlBlhPolicy: readings must be requested in interval order");
  RLBLH_REQUIRE(n == next_observe_n_,
                "RlBlhPolicy: interval n-1 usage not yet observed");
  RLBLH_REQUIRE(n < config_.intervals_per_day,
                "RlBlhPolicy: interval index out of range");

  const double y = n % config_.decision_interval == 0
                       ? decide(n / config_.decision_interval, battery_level)
                       : magnitudes_[pending_action_];
  next_reading_n_ = n + 1;
  return y;
}

double RlBlhPolicy::fill_block(std::size_t n0, std::size_t width,
                               double battery_level) {
  // One decision boundary per block: the n % n_D == 0 branch of reading()
  // (the same decide() call), then the interval cursor advances past the
  // whole block in one step.
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: fill_block() before begin_day()");
  RLBLH_REQUIRE(n0 == next_reading_n_ && n0 == next_observe_n_,
                "RlBlhPolicy: blocks must be requested in interval order");
  RLBLH_REQUIRE(n0 % config_.decision_interval == 0,
                "RlBlhPolicy: block must start on a decision boundary");
  const std::size_t k = n0 / config_.decision_interval;
  RLBLH_REQUIRE(width == config_.decision_width(k),
                "RlBlhPolicy: block width must match the decision width");
  const double y = decide(k, battery_level);
  next_reading_n_ = n0 + width;
  return y;
}

void RlBlhPolicy::observe_usage(std::size_t n, double usage) {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: observe_usage() before begin_day()");
  RLBLH_REQUIRE(n == next_observe_n_ && n + 1 == next_reading_n_,
                "RlBlhPolicy: usage must be observed right after reading()");
  RLBLH_REQUIRE(usage >= 0.0, "RlBlhPolicy: usage must be >= 0");
  today_usage_.push_back(usage);
  // S_k(a) accumulation (paper Eq. 7).
  pending_savings_ +=
      prices_->rate(n) * (usage - magnitudes_[pending_action_]);
  next_observe_n_ = n + 1;
}

void RlBlhPolicy::observe_block(std::size_t n0, std::span<const double> usage) {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: observe_block() before begin_day()");
  RLBLH_REQUIRE(n0 == next_observe_n_ &&
                    n0 + usage.size() == next_reading_n_,
                "RlBlhPolicy: block must be observed right after "
                "fill_block()");
  // S_k(a) accumulation (paper Eq. 7): the same expression and the same
  // per-interval += order as observe_usage(), with the loop-invariant rate
  // lookup and pulse magnitude hoisted (identical values, identical FP op
  // sequence, so the accumulated sum is bitwise equal).
  const double magnitude = magnitudes_[pending_action_];
  const double* const rates = prices_->rates().data();
  double pending = pending_savings_;
  for (std::size_t i = 0; i < usage.size(); ++i) {
    const double x = usage[i];
    RLBLH_REQUIRE(x >= 0.0, "RlBlhPolicy: usage must be >= 0");
    today_usage_.push_back(x);
    pending += rates[n0 + i] * (x - magnitude);
  }
  pending_savings_ = pending;
  next_observe_n_ = n0 + usage.size();
}

void RlBlhPolicy::end_day() {
  RLBLH_REQUIRE(day_open_, "RlBlhPolicy: end_day() before begin_day()");
  RLBLH_REQUIRE(next_observe_n_ == config_.intervals_per_day,
                "RlBlhPolicy: day ended before all intervals were observed");
  finalize_pending(nullptr, actions_all_, current_alpha());

  RlBlhDayStats stats;
  stats.mean_abs_td_error =
      decisions_done_ == 0
          ? 0.0
          : abs_error_sum_ / static_cast<double>(decisions_done_);
  stats.signed_td_error = signed_error_sum_;
  stats.realized_savings = savings_sum_;
  stats.exploring_decisions = explored_count_;
  day_stats_.push_back(stats);

  // Learning-progress telemetry (end_day is far off the interval hot path;
  // the weight-norm pass is guarded so dormant observability costs one
  // branch). Instrumentation only reads values — the Rng is never touched,
  // keeping obs-on runs bitwise identical to obs-off runs.
  RLBLH_OBS_COUNT("rl.real_days", 1);
  RLBLH_OBS_COUNT("rl.decisions", decisions_done_);
  RLBLH_OBS_COUNT("rl.explored_decisions", explored_count_);
  RLBLH_OBS_OBSERVE("rl.day_mean_abs_td_error", stats.mean_abs_td_error);
  RLBLH_OBS_OBSERVE("rl.day_realized_savings_cents", stats.realized_savings);
  RLBLH_OBS_GAUGE("rl.signed_td_error", stats.signed_td_error);
  RLBLH_OBS_GAUGE("rl.exploration_rate",
                  exploration_ ? current_epsilon() : 0.0);
  RLBLH_OBS_GAUGE("rl.learning_rate", current_alpha());
  if (obs::enabled()) {
    RLBLH_OBS_GAUGE("rl.weight_norm", weight_norm(q_));
    if (config_.double_q) {
      RLBLH_OBS_GAUGE("rl.weight_norm_q2", weight_norm(q2_));
    }
  }

  // Per-interval statistics feed the SYN heuristic. The buffer was already
  // validated interval by interval as it was observed, so a view suffices —
  // no day-sized copy per day.
  stats_.observe_day(today_usage_, rng_);

  ++day_;
  if (learning_) ++episodes_;
  day_open_ = false;

  if (!learning_) return;
  const std::size_t d = day_;  // 1-based day index, as in Algorithm 1
  const auto replay_start = [this] {
    return config_.replay_random_start
               ? rng_.uniform(0.0, config_.battery_capacity)
               : initial_level_today_;
  };
  // The replay timers read the clock only while observability records;
  // the Rng and the weights never see them.
  if (config_.enable_reuse && d <= config_.reuse_days) {
    RLBLH_OBS_NOW(reuse_start);
    for (std::size_t v = 0; v < config_.reuse_repeats; ++v) {
      train_virtual_day(today_usage_, replay_start());
    }
    RLBLH_OBS_COUNT_NS_SINCE("rl.replay.reuse_ns", reuse_start);
  }
  if (config_.enable_synthetic && d % config_.synthetic_period == 0 &&
      d <= config_.synthetic_last_day) {
    synthetic_day_.resize(config_.intervals_per_day);
    for (std::size_t v = 0; v < config_.synthetic_repeats; ++v) {
      RLBLH_OBS_NOW(sample_start);
      stats_.sample_day_into(rng_, synthetic_day_);
      RLBLH_OBS_COUNT_NS_SINCE("rl.replay.syn_sample_ns", sample_start);
      RLBLH_OBS_NOW(train_start);
      train_virtual_day(synthetic_day_, replay_start());
      RLBLH_OBS_COUNT_NS_SINCE("rl.replay.syn_train_ns", train_start);
    }
  }
}

double RlBlhPolicy::train_virtual_day(const std::vector<double>& usage,
                                      double initial_level) {
  RLBLH_REQUIRE(prices_.has_value(),
                "RlBlhPolicy: no price schedule yet (run a real day first)");
  RLBLH_REQUIRE(usage.size() == config_.intervals_per_day,
                "RlBlhPolicy: virtual day must have n_M usage values");
  const double alpha_now = current_alpha();
  const double epsilon_now = exploration_ ? current_epsilon() : 0.0;
  const std::size_t k_max = config_.decisions_per_day();
  const std::size_t n_d = config_.decision_interval;
  const std::size_t n_m = config_.intervals_per_day;
  const double usage_cap = config_.usage_cap;
  const double capacity = config_.battery_capacity;
  const double* const rates = prices_->rates().data();

  double level = std::clamp(initial_level, 0.0, capacity);
  double abs_error = 0.0;

  // values_ always holds the action values at the current decision state:
  // evaluated here for k = 0, then carried over from the previous step's
  // bootstrap (same features, and learn() refreshed the one entry its SGD
  // step changed), so each action is evaluated once per decision.
  Features features = basis_.at(0, level);
  Features next{};
  const std::vector<std::size_t>* allowed = &allowed_actions(level);
  evaluate_actions(features);

  for (std::size_t k = 0; k < k_max; ++k) {
    const std::size_t greedy = greedy_action(*allowed);
    const std::size_t action =
        epsilon_greedy(*allowed, greedy, epsilon_now, rng_);
    const double magnitude = magnitudes_[action];

    double savings = 0.0;
    const std::size_t end = std::min(k * n_d + n_d, n_m);
    for (std::size_t n = k * n_d; n < end; ++n) {
      // Replayed usage can exceed x_M (the observe paths only check
      // x >= 0), so the clamp stays.
      const double x = std::clamp(usage[n], 0.0, usage_cap);
      savings += rates[n] * (x - magnitude);
      level += magnitude - x;
    }
    // The feasibility rule keeps a lossless battery within bounds; clamp
    // defensively so replayed data with out-of-band values cannot corrupt
    // the state normalization.
    level = std::clamp(level, 0.0, capacity);

    const std::size_t learner = draw_learner();
    const double q_taken = values_[learner][action];
    double target = savings;
    const bool last = k + 1 == k_max;
    if (!last) {
      next = basis_.at(k + 1, level);
      allowed = &allowed_actions(level);
      evaluate_actions(next);
      target += bootstrap_value(*allowed, learner);
    }
    const double delta_q = target - q_taken;
    if (learning_) {
      learn(learner, action, features, delta_q, alpha_now,
            last ? nullptr : &next);
    }
    abs_error += std::abs(delta_q);
    features = next;
  }
  if (learning_) ++episodes_;
  RLBLH_OBS_COUNT("rl.virtual_days", 1);
  return abs_error / static_cast<double>(k_max);
}

void RlBlhPolicy::save_state(std::ostream& out) const {
  // Between end_day() and begin_day() the day-scoped members are all at
  // their rest values and the pending decision is resolved, so the
  // persistent state below is the complete behavioral state: every future
  // draw, decision and update is a pure function of it plus future inputs.
  RLBLH_REQUIRE(!day_open_,
                "RlBlhPolicy::save_state: checkpoint only between days");
  // Reserve the largest image this configuration can produce (every
  // reservoir full; the tracker is nearly all of it): growing the buffer
  // append by append would cost more than writing it.
  const std::size_t table_bytes = 16 + 8 * q_.parameter_count();
  std::string image;
  image.reserve(18 + 2 * table_bytes + 8 * (Mt19937_64::state_size + 1) +
                16 +
                config_.intervals_per_day *
                    (64 + 8 * (config_.stats_reservoir + config_.stats_bins)));
  ByteWriter w(image);
  w.u64(day_);
  w.u64(episodes_);
  w.u8(learning_ ? 1 : 0);
  w.u8(exploration_ ? 1 : 0);
  write_table(w, q_);
  write_table(w, q2_);
  w.u64s(rng_.engine().state());
  w.u64(rng_.engine().position());
  stats_.write_state(w);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
}

void RlBlhPolicy::load_state(std::istream& in) {
  const std::string image = read_all(in);
  ByteReader r(image, "rlblh-policy");
  const std::uint64_t day = r.u64();
  const std::uint64_t episodes = r.u64();
  const std::uint8_t learning = r.u8();
  const std::uint8_t exploration = r.u8();
  if (learning > 1 || exploration > 1) r.fail("flags must be 0 or 1");
  // Parse into temporaries first: a malformed tail must not leave the
  // policy half-restored.
  PerActionLinearQ q = read_table(r, q_);
  PerActionLinearQ q2 = read_table(r, q2_);
  std::array<std::uint64_t, Mt19937_64::state_size> words;
  r.u64s(words);
  Rng rng = rng_;
  rng.engine().set_state(words, r.u64());
  UsageStatsTracker stats(config_.intervals_per_day, config_.usage_cap,
                          config_.stats_bins, config_.stats_reservoir);
  stats.read_state(r);
  r.expect_end();

  q_ = std::move(q);
  q2_ = std::move(q2);
  rng_ = rng;
  stats_ = std::move(stats);
  day_ = day;
  episodes_ = episodes;
  learning_ = learning == 1;
  exploration_ = exploration == 1;

  // Day-scoped state returns to its rest values (begin_day() re-derives
  // everything else); the diagnostic history is not checkpointed.
  prices_.reset();
  day_open_ = false;
  next_reading_n_ = 0;
  next_observe_n_ = 0;
  today_usage_.clear();
  initial_level_today_ = 0.0;
  pending_active_ = false;
  abs_error_sum_ = 0.0;
  signed_error_sum_ = 0.0;
  savings_sum_ = 0.0;
  decisions_done_ = 0;
  explored_count_ = 0;
  day_stats_.clear();
}

}  // namespace rlblh
