// Record of one simulated day (its own header so the invariant checker
// can consume a day without depending on the engine that produced it).
#pragma once

#include <cstddef>
#include <vector>

#include "meter/trace.h"

namespace rlblh {

/// Everything observable about one simulated day.
struct DayResult {
  DayTrace usage;                      ///< x_n
  DayTrace readings;                   ///< effective meter readings
  std::vector<double> battery_levels;  ///< b_n at the *start* of interval n
  double savings_cents = 0.0;          ///< sum r_n (x_n - y_n)
  double bill_cents = 0.0;             ///< sum r_n y_n
  double usage_cost_cents = 0.0;       ///< sum r_n x_n
  std::size_t battery_violations = 0;  ///< clipped intervals this day
};

}  // namespace rlblh
