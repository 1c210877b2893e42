// RL-BLH battery controller (paper Algorithm 1).
//
// The policy shapes meter readings into rectangular pulses of width n_D
// intervals. At the start of each decision interval k it observes the
// battery level B_k, restricts the feasible pulse magnitudes so the battery
// can neither overflow nor run dry (Section III-B), picks a magnitude by
// epsilon-greedy over the learned Q function, and after the interval
// completes performs the Q-learning update of Eq. (17)-(18) on the linear
// approximator of Eq. (13). At the end of each day the OUTER LOOP heuristics
// run: replaying the day's own data (REUSE, Section V-B) and replaying
// synthetic days sampled from the per-interval usage statistics (SYN,
// Section V-A).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/features.h"
#include "core/policy.h"
#include "core/qfunction.h"
#include "meter/usage_stats.h"
#include "util/rng.h"

namespace rlblh {

/// Per-day learning diagnostics.
struct RlBlhDayStats {
  double mean_abs_td_error = 0.0;  ///< mean |Delta Q| over the day's decisions
  double signed_td_error = 0.0;    ///< sum of Delta Q (paper Eq. 23)
  double realized_savings = 0.0;   ///< sum_k S_k(a) in cents
  std::size_t exploring_decisions = 0;  ///< decisions taken by exploration
};

/// The RL-BLH controller.
class RlBlhPolicy final : public BlhPolicy {
 public:
  /// Validates and adopts the configuration.
  explicit RlBlhPolicy(RlBlhConfig config);

  // --- BlhPolicy -------------------------------------------------------
  void begin_day(const TouSchedule& prices) override;
  double reading(std::size_t n, double battery_level) override;
  void observe_usage(std::size_t n, double usage) override;
  void end_day() override;
  std::string_view name() const override { return "rl-blh"; }

  // Pulse-block fast path: one decision per n_D-wide block, bitwise
  // identical to driving reading()/observe_usage() per interval.
  std::size_t pulse_width() const override {
    return config_.decision_interval;
  }
  double fill_block(std::size_t n0, std::size_t width,
                    double battery_level) override;
  void observe_block(std::size_t n0, ConstTraceLane usage) override;

  // Checkpoint/restore (DESIGN.md §15). The state image is little-endian
  // binary: the day and episode counters, the learning and exploration
  // flags, both weight tables with their dimensions, the 312 MT19937-64
  // words and the position, then the usage statistics — everything that
  // shapes future behavior, but not the day_stats() diagnostic history.
  // load_state() reads the stream to its end and rejects trailing bytes.
  // Only legal between days.
  bool checkpointable() const override { return true; }
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

  // --- control ----------------------------------------------------------
  /// Enables/disables weight updates (on by default). With learning off the
  /// policy acts greedily on its current weights and skips the heuristics.
  void set_learning_enabled(bool enabled) { learning_ = enabled; }

  /// Enables/disables epsilon exploration (on by default). Disable for
  /// deterministic evaluation of a learned policy.
  void set_exploration_enabled(bool enabled) { exploration_ = enabled; }

  /// True while weight updates are enabled.
  bool learning_enabled() const { return learning_; }

  /// True while epsilon exploration is enabled.
  bool exploration_enabled() const { return exploration_; }

  // --- introspection ----------------------------------------------------
  /// Configuration in effect.
  const RlBlhConfig& config() const { return config_; }

  /// Number of completed real days.
  std::size_t days_completed() const { return day_; }

  /// Number of completed training episodes (real days plus REUSE/SYN
  /// replays); drives the hyper-parameter decay when
  /// config().decay_by_episodes is set.
  std::size_t episodes_completed() const { return episodes_; }

  /// Learning rate that will apply to the current/next day.
  double current_alpha() const;

  /// Exploration rate that will apply to the current/next day.
  double current_epsilon() const;

  /// Per-real-day diagnostics, one entry per completed day.
  const std::vector<RlBlhDayStats>& day_stats() const { return day_stats_; }

  /// The learned action-value function (the first table under double-Q).
  const PerActionLinearQ& q() const { return q_; }

  /// Mutable access (for warm-starting or ablation solvers).
  PerActionLinearQ& q() { return q_; }

  /// The second table; only trained when config().double_q is set.
  const PerActionLinearQ& q2() const { return q2_; }

  /// Mutable access to the second table.
  PerActionLinearQ& q2() { return q2_; }

  /// Per-interval usage statistics gathered so far (drives SYN mode).
  const UsageStatsTracker& usage_stats() const { return stats_; }

  /// The policy's random stream (exploration, double-Q coins, replay
  /// starts, reservoir and SYN draws).
  const Rng& rng() const { return rng_; }

  /// Feasible actions at the given battery level (Section III-B): only
  /// action 0 above the high guard, only the maximum action below the low
  /// guard, every action in between. Returns a reference to one of three
  /// precomputed sets (the decision loop calls this twice per decision, so
  /// it must not allocate).
  const std::vector<std::size_t>& allowed_actions(double battery_level) const;

  /// Pulse magnitude (kWh per interval) of action a.
  double action_magnitude(std::size_t a) const {
    return config_.action_magnitude(a);
  }

  /// Runs one offline training day on the given usage series (length n_M)
  /// against the current day's price schedule, starting from
  /// `initial_level`. This is the INNER LOOP in REUSE/SYN mode; exposed for
  /// tests and ablations. Returns the day's mean |Delta Q|.
  double train_virtual_day(const std::vector<double>& usage,
                           double initial_level);

 private:
  using Features = FeatureBasis::Vector;

  /// Decision boundary k of a real day at the given battery level: settles
  /// the pending decision against this state, then picks the next pulse.
  /// Returns the pulse magnitude.
  double decide(std::size_t k, double battery_level);

  /// Q values of every action at `features` into values_: q_ into
  /// values_[0] and, under double-Q, q2_ into values_[1].
  void evaluate_actions(const Features& features);

  /// Greedy action over `allowed` from values_: the sum of the two tables
  /// under double-Q, q_ otherwise (ties break toward the earlier entry).
  std::size_t greedy_action(const std::vector<std::size_t>& allowed) const;

  /// Table updated by this TD step: a fair coin under double-Q (drawn from
  /// the policy's Rng), q_ (index 0) otherwise.
  std::size_t draw_learner();

  /// Bootstrap term max_a' Q(next, a') from values_ (which must hold the
  /// successor's action values): the action is selected by table `learner`
  /// and evaluated by the other table under double-Q, by q_ otherwise.
  double bootstrap_value(const std::vector<std::size_t>& allowed,
                         std::size_t learner) const;

  /// SGD step (Eq. 18) on `learner`'s weights for `action` at `features`.
  /// With a successor `next`, re-evaluates the one updated entry of
  /// values_ at *next: every other entry is a function of weights the step
  /// did not touch, so values_ stays exact for the next greedy choice.
  void learn(std::size_t learner, std::size_t action, const Features& features,
             double delta_q, double alpha_now, const Features* next);

  /// Q-learning update for the pending decision. `next` is the successor
  /// state, whose action values must be in values_; null ends the day.
  /// Accumulates the day's error statistics.
  void finalize_pending(const Features* next,
                        const std::vector<std::size_t>& next_allowed,
                        double alpha_now);

  /// Table t: q_ for 0, q2_ for 1.
  PerActionLinearQ& table(std::size_t t) { return t == 0 ? q_ : q2_; }

  RlBlhConfig config_;
  FeatureBasis basis_;
  PerActionLinearQ q_;
  PerActionLinearQ q2_;
  UsageStatsTracker stats_;
  Rng rng_;

  // Per-policy constants hoisted out of the decision loops: the pulse
  // magnitude of each action and the Section III-B guard levels.
  std::vector<double> magnitudes_;
  double high_guard_;
  double low_guard_;

  // Precomputed feasible-action sets (see allowed_actions()).
  std::vector<std::size_t> actions_all_;
  std::vector<std::size_t> actions_zero_only_;
  std::vector<std::size_t> actions_max_only_;

  // Action values at the current decision state, per table (see
  // evaluate_actions()). Scratch: recomputed from the weights at every
  // decision boundary, never checkpointed.
  std::array<std::vector<double>, 2> values_;

  // SYN scratch: the synthetic day being replayed, sampled in place.
  // Sized on the first SYN round, so policies that never run one (the
  // daemon's, with replay off) do not carry it.
  std::vector<double> synthetic_day_;

  bool learning_ = true;
  bool exploration_ = true;

  // Day-scoped state.
  std::optional<TouSchedule> prices_;
  bool day_open_ = false;
  std::size_t next_reading_n_ = 0;
  std::size_t next_observe_n_ = 0;
  std::vector<double> today_usage_;
  double initial_level_today_ = 0.0;

  // Pending decision (the pulse currently being emitted).
  bool pending_active_ = false;
  std::size_t pending_action_ = 0;
  double pending_savings_ = 0.0;
  Features pending_features_{};
  bool pending_explored_ = false;

  // Day error accumulation.
  double abs_error_sum_ = 0.0;
  double signed_error_sum_ = 0.0;
  double savings_sum_ = 0.0;
  std::size_t decisions_done_ = 0;
  std::size_t explored_count_ = 0;

  std::size_t day_ = 0;       ///< completed real days
  std::size_t episodes_ = 0;  ///< completed inner-loop runs (real + virtual)
  std::vector<RlBlhDayStats> day_stats_;

};

}  // namespace rlblh
