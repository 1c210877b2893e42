// Rechargeable battery model (paper Section II).
//
// The battery is the buffer between the grid draw y_n (which charges it) and
// the appliance usage x_n (which it supplies):
//
//     b_{n+1} = b_n + eta_c * y_n - x_n / eta_d        (paper Eq. 1,
//                                                       footnote-2 losses)
//
// with 0 <= b_n <= b_M (Eq. 2). The lossless paper default is
// eta_c = eta_d = 1. RL-BLH's action constraints are designed so the bounds
// are never hit; the model still tracks what happens when a policy violates
// them: the infeasible part of the transfer is clipped (energy the battery
// cannot absorb is wasted, energy it cannot supply forces a direct grid
// draw), and a violation counter is incremented so tests and simulators can
// assert feasibility.
#pragma once

#include <cstddef>

#include "util/error.h"

namespace rlblh {

/// Outcome of one measurement-interval battery step.
struct BatteryStep {
  double level_after = 0.0;     ///< battery level after the step (kWh)
  double grid_extra = 0.0;      ///< unmet usage served directly from grid (kWh)
  double wasted_charge = 0.0;   ///< charge clipped at capacity (kWh)
  bool violated = false;        ///< true when either clip occurred
};

/// State-of-charge model with capacity, optional round-trip losses, and
/// violation accounting.
class Battery {
 public:
  /// Creates a battery with the given capacity (kWh, > 0) and initial level
  /// in [0, capacity]. Efficiencies must be in (0, 1].
  explicit Battery(double capacity_kwh, double initial_level_kwh = 0.0,
                   double charge_efficiency = 1.0,
                   double discharge_efficiency = 1.0);

  /// Applies one measurement interval: grid draw `reading` charges the
  /// battery, appliance usage `usage` discharges it. Both must be >= 0.
  /// Returns the step outcome (including any clipping). Defined inline:
  /// this is the innermost call of the simulation hot loop.
  BatteryStep step(double reading, double usage) {
    RLBLH_REQUIRE(reading >= 0.0, "Battery::step: reading must be >= 0");
    RLBLH_REQUIRE(usage >= 0.0, "Battery::step: usage must be >= 0");

    BatteryStep out;
    // Net transfer for the interval; charging and discharging happen
    // concurrently within a one-minute interval, so only the net flow
    // matters.
    const double delta = charge_eff_ * reading - usage / discharge_eff_;
    double next = level_ + delta;
    if (next > capacity_) {
      out.wasted_charge = next - capacity_;
      next = capacity_;
      out.violated = true;
    } else if (next < 0.0) {
      // The battery cannot supply this much: the shortfall (in delivered
      // energy) comes straight from the grid.
      out.grid_extra = -next * discharge_eff_;
      next = 0.0;
      out.violated = true;
    }
    level_ = next;
    out.level_after = level_;
    if (out.violated) {
      ++violations_;
      wasted_ += out.wasted_charge;
      grid_extra_ += out.grid_extra;
    }
    return out;
  }

  /// Current state of charge in kWh; always within [0, capacity()].
  double level() const { return level_; }

  /// Usable capacity b_M in kWh.
  double capacity() const { return capacity_; }

  /// Charge efficiency eta_c in (0, 1].
  double charge_efficiency() const { return charge_eff_; }

  /// Discharge efficiency eta_d in (0, 1].
  double discharge_efficiency() const { return discharge_eff_; }

  /// Number of steps in which a bound was hit and clipping occurred.
  std::size_t violation_count() const { return violations_; }

  /// Total energy wasted at the full bound so far (kWh).
  double total_wasted_charge() const { return wasted_; }

  /// Total unmet usage served directly from the grid so far (kWh).
  double total_grid_extra() const { return grid_extra_; }

  /// Resets the state of charge (to a value in [0, capacity]) and clears the
  /// violation counters.
  void reset(double level_kwh);

  /// Restores a checkpointed state: level in [0, capacity] plus the
  /// cumulative violation accounting (all >= 0). The daemon's
  /// checkpoint/restore path uses this so a restarted battery is
  /// indistinguishable from one that never stopped.
  void restore(double level_kwh, std::size_t violations,
               double wasted_charge_kwh, double grid_extra_kwh);

 private:
  double capacity_;
  double level_;
  double charge_eff_;
  double discharge_eff_;
  std::size_t violations_ = 0;
  double wasted_ = 0.0;
  double grid_extra_ = 0.0;
};

}  // namespace rlblh
