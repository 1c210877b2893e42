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

  // The step decision re-evaluates the battery band every interval, so
  // blocks keep the default width 1. This override equals the base-class
  // default; in this final class its reading() call is direct rather than
  // a second virtual dispatch per interval.
  double fill_block(std::size_t n0, std::size_t width,
                    double battery_level) override {
    (void)width;
    return reading(n0, battery_level);
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
