// Quantized-state MDP baseline (after the paper's reference [9], Privatus).
//
// This is the class of scheme RL-BLH argues against in Section VIII: battery
// control computed by dynamic programming over a *quantized* state space,
// which (a) requires the usage distribution to be known in advance, and
// (b) has a decision table whose size grows with the quantization granularity
// and the number of time instances. We implement it over the same
// rectangular-pulse action space as RL-BLH so cost comparisons are
// apples-to-apples: state (k, quantized battery level), per-decision-interval
// usage-sum distribution P_k(z) estimated from training days, expected-reward
// backward induction. The complexity benchmark measures its table size and
// solve time against RL-BLH's 40-48 weights.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "meter/trace.h"
#include "util/histogram.h"
#include "util/quantizer.h"

namespace rlblh {

/// Configuration of the MDP baseline.
struct MdpConfig {
  std::size_t intervals_per_day = 1440;  ///< n_M
  std::size_t decision_interval = 15;    ///< n_D
  double usage_cap = 0.08;               ///< x_M, kWh
  double battery_capacity = 5.0;         ///< b_M, kWh
  std::size_t num_actions = 8;           ///< a_M pulse magnitudes
  std::size_t battery_levels = 64;       ///< quantization of the battery level
  std::size_t usage_levels = 32;         ///< quantization of the usage sum Z_k

  /// k_M decision intervals per day.
  std::size_t decisions_per_day() const {
    return intervals_per_day / decision_interval;
  }

  /// Throws ConfigError on invalid parameters.
  void validate() const;
};

/// Dynamic-programming battery controller with a quantized decision table.
class MdpBlhPolicy final : public BlhPolicy {
 public:
  explicit MdpBlhPolicy(MdpConfig config);

  /// Feeds one training day into the usage model (must precede solve()).
  /// All training days must share one price schedule shape; the last one
  /// seen is used for the expected rewards.
  void observe_training_day(const DayTrace& usage, const TouSchedule& prices);

  /// Runs backward induction over the quantized state space. Requires at
  /// least one training day. May be called again after more observations.
  void solve();

  /// True once solve() has produced a decision table.
  bool solved() const { return solved_; }

  /// Number of states k_M * L_b in the table.
  std::size_t state_count() const;

  /// Number of (state, action) entries — the memory the scheme must hold.
  std::size_t table_entries() const;

  /// Expected daily savings of the solved policy, from the model's own
  /// value function at the given start level (cents).
  double expected_savings(double initial_level) const;

  // --- BlhPolicy (greedy table lookup; requires solved()) ----------------
  void begin_day(const TouSchedule& prices) override;
  double reading(std::size_t n, double battery_level) override;
  void observe_usage(std::size_t n, double usage) override;
  std::string_view name() const override { return "mdp-dp"; }

  // Pulse-block fast path: one table lookup per n_D-wide block.
  std::size_t pulse_width() const override {
    return config_.decision_interval;
  }
  double fill_block(std::size_t n0, std::size_t width,
                    double battery_level) override;
  void observe_block(std::size_t n0, ConstTraceLane usage) override;

  /// Configuration in effect.
  const MdpConfig& config() const { return config_; }

 private:
  /// Feasible pulse magnitudes at a battery level (same guard rule as
  /// RL-BLH so the comparison isolates the decision machinery).
  std::vector<std::size_t> allowed_actions(double battery_level) const;

  /// Reference to one of the three precomputed feasible sets; the acting
  /// hot path and the solver's inner loop use this to avoid allocating.
  const std::vector<std::size_t>& feasible(double battery_level) const;

  /// Flat index into the value/policy tables.
  std::size_t state_index(std::size_t k, std::size_t level_idx) const {
    return k * config_.battery_levels + level_idx;
  }

  MdpConfig config_;
  Quantizer battery_q_;
  Quantizer usage_sum_q_;

  // Training model: per decision interval k, the distribution of the usage
  // sum Z_k and the mean priced usage sum E[sum r_n x_n].
  std::vector<Histogram> usage_sum_hist_;
  std::vector<double> priced_usage_sum_;   // running mean per k
  std::vector<double> rate_sum_;           // sum of rates within k (last day)
  std::size_t training_days_ = 0;

  // Precomputed feasible-action sets (see feasible()).
  std::vector<std::size_t> actions_all_;
  std::vector<std::size_t> actions_zero_only_;
  std::vector<std::size_t> actions_max_only_;

  // Solved artifacts.
  bool solved_ = false;
  std::vector<double> value_;         // V(k, level)
  std::vector<std::size_t> policy_;   // greedy action per state

  // Acting state.
  std::size_t current_action_ = 0;
  bool day_open_ = false;
};

}  // namespace rlblh
