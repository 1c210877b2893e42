// Random-pulse ablation policy: RL-BLH's pulse structure without its
// learning.
//
// Emits rectangular pulses of width n_D whose magnitude is drawn uniformly
// at random among the *feasible* actions at each decision boundary (the
// same Section III-B guard rule RL-BLH uses). Comparing this against the
// learned controller separates what the pulse shaping alone buys (most of
// the privacy) from what the Q-learning buys (the cost savings): see
// bench/abl_pulse_policy.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/policy.h"
#include "util/rng.h"

namespace rlblh {

/// Uniformly random feasible pulses (no learning, no price awareness).
class RandomPulsePolicy final : public BlhPolicy {
 public:
  /// Uses the geometry fields of RlBlhConfig (n_M, n_D, x_M, b_M, a_M) and
  /// its seed; the learning fields are ignored.
  explicit RandomPulsePolicy(RlBlhConfig config);

  void begin_day(const TouSchedule& prices) override;
  double reading(std::size_t n, double battery_level) override;
  void observe_usage(std::size_t n, double usage) override;
  std::string_view name() const override { return "random-pulse"; }

  // Pulse-block fast path: one uniform draw per block, the same draw the
  // per-interval path makes at each decision boundary.
  std::size_t pulse_width() const override {
    return config_.decision_interval;
  }
  double fill_block(std::size_t n0, std::size_t width,
                    double battery_level) override;
  void observe_block(std::size_t n0, ConstTraceLane usage) override;

  /// Same feasibility rule as RL-BLH (Section III-B).
  std::vector<std::size_t> allowed_actions(double battery_level) const;

 private:
  /// Reference to one of the three precomputed feasible sets; the hot path
  /// calls this once per decision, so it must not allocate.
  const std::vector<std::size_t>& feasible(double battery_level) const;

  RlBlhConfig config_;
  Rng rng_;
  std::size_t current_action_ = 0;

  // Precomputed feasible-action sets (see feasible()).
  std::vector<std::size_t> actions_all_;
  std::vector<std::size_t> actions_zero_only_;
  std::vector<std::size_t> actions_max_only_;
};

}  // namespace rlblh
