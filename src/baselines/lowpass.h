// High-frequency flattening BLH baseline (the paper's "low-pass" scheme,
// after Kalogridis et al. [5]).
//
// The scheme tries to hold the meter reading at a constant target — a slowly
// adapted estimate of the household's average draw — so the high-frequency
// variation of the usage profile is removed. Near the battery bounds the
// reading must deviate from the target to stay feasible, which is exactly
// the leakage the paper points out: the reading's envelope still tracks the
// usage envelope (Figure 4b), and cost savings are arbitrary because price
// is never considered (Figure 5c).
#pragma once

#include <cstddef>
#include <limits>
#include <string_view>

#include "core/policy.h"
#include "util/running_stats.h"

namespace rlblh {

/// Configuration of the low-pass baseline.
struct LowPassConfig {
  std::size_t intervals_per_day = 1440;
  double usage_cap = 0.08;        ///< x_M, kWh per interval
  double battery_capacity = 3.0;  ///< b_M, kWh
  /// Smoothing factor of the exponential moving average that tracks the
  /// household's mean draw (per interval); smaller adapts more slowly.
  double target_smoothing = 0.002;
  /// Initial target before any usage has been observed (kWh per interval).
  double initial_target = 0.01;
};

/// Best-effort constant-reading controller.
class LowPassPolicy final : public BlhPolicy {
 public:
  explicit LowPassPolicy(LowPassConfig config);

  void begin_day(const TouSchedule& prices) override;
  double reading(std::size_t n, double battery_level) override;
  void observe_usage(std::size_t n, double usage) override;
  std::string_view name() const override { return "low-pass"; }

  /// Current flattening target (kWh per interval).
  double target() const { return target_; }

 private:
  LowPassConfig config_;
  double target_;
};

/// No-battery reference: the meter reports usage directly (y_n = x_n).
/// Yields SR = 0, CC = 1 and maximal MI; used as the unprotected baseline.
class PassthroughPolicy final : public BlhPolicy {
 public:
  void begin_day(const TouSchedule& /*prices*/) override {}
  double reading(std::size_t /*n*/, double /*battery_level*/) override {
    return 0.0;  // ignored: the simulator substitutes x_n for passthrough
  }
  void observe_usage(std::size_t /*n*/, double /*usage*/) override {}
  std::string_view name() const override { return "no-battery"; }
  bool passthrough() const override { return true; }

  // Pulse-block fast path: there is no decision to make, so the whole day
  // is one block (the engine clamps the width to the day length).
  std::size_t pulse_width() const override {
    return std::numeric_limits<std::size_t>::max();
  }
  double fill_block(std::size_t /*n0*/, std::size_t /*width*/,
                    double /*battery_level*/) override {
    return 0.0;  // ignored: the simulator substitutes x_n for passthrough
  }
  void observe_block(std::size_t /*n0*/,
                     std::span<const double> /*usage*/) override {}
};

}  // namespace rlblh
