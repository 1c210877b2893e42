// Stepping BLH baseline (after Yang et al., CCS 2012 — the paper's [6]).
//
// The stepping family quantizes the meter reading to multiples of a step
// size beta and holds the current step as long as the battery can absorb
// the difference to the real load; the step moves up or down only when the
// battery approaches a bound. Like the low-pass scheme it targets the
// high-frequency signature; unlike RL-BLH the step changes are driven by
// the battery hitting its safety margins, which is exactly the residual
// correlation channel the paper's Section III-A analyzes.
#pragma once

#include <cstddef>
#include <string_view>

#include "core/policy.h"

namespace rlblh {

/// Configuration of the stepping baseline.
struct SteppingConfig {
  std::size_t intervals_per_day = 1440;
  double usage_cap = 0.08;        ///< x_M, kWh per interval
  double battery_capacity = 3.0;  ///< b_M, kWh
  double step = 0.01;             ///< beta: reading quantum, kWh per interval
  /// Fraction of capacity kept as head/tail room before the step moves
  /// (the scheme's only tunable; smaller margins mean rarer step changes
  /// but harder saturation).
  double margin_fraction = 0.15;

  /// Throws ConfigError when parameters are out of range.
  void validate() const;
};

/// Hold-the-step controller.
class SteppingPolicy final : public BlhPolicy {
 public:
  explicit SteppingPolicy(SteppingConfig config);

  void begin_day(const TouSchedule& prices) override;
  double reading(std::size_t n, double battery_level) override;
  void observe_usage(std::size_t n, double usage) override;
  std::string_view name() const override { return "stepping"; }

  // Pulse-block fast path. The step decision re-evaluates the battery band
  // every interval, so blocks are width 1; the overrides forward to the
  // per-interval members and exist so the engine's blocked loop (with its
  // per-segment rate hoisting and resize-once writes) applies here too.
  std::size_t pulse_width() const override { return 1; }
  double fill_block(std::size_t n0, std::size_t width,
                    double battery_level) override {
    (void)width;
    return reading(n0, battery_level);
  }
  void observe_block(std::size_t n0, ConstTraceLane usage) override {
    for (std::size_t i = 0; i < usage.size(); ++i) {
      observe_usage(n0 + i, usage[i]);
    }
  }

  /// Current step index (reading = index * step).
  std::size_t step_index() const { return level_; }

  /// Number of step changes since construction (the leakage events).
  std::size_t step_changes() const { return changes_; }

 private:
  SteppingConfig config_;
  std::size_t max_level_;  ///< highest step index (ceil of x_M / beta)
  std::size_t level_;      ///< current step index
  std::size_t changes_ = 0;
  double recent_usage_;    ///< EMA of usage, seeds the step when it moves
};

}  // namespace rlblh
