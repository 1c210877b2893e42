#include "battery/battery.h"

namespace rlblh {

Battery::Battery(double capacity_kwh, double initial_level_kwh,
                 double charge_efficiency, double discharge_efficiency)
    : capacity_(capacity_kwh), level_(initial_level_kwh),
      charge_eff_(charge_efficiency), discharge_eff_(discharge_efficiency) {
  RLBLH_REQUIRE(capacity_kwh > 0.0, "Battery: capacity must be > 0");
  RLBLH_REQUIRE(initial_level_kwh >= 0.0 && initial_level_kwh <= capacity_kwh,
                "Battery: initial level must be in [0, capacity]");
  RLBLH_REQUIRE(charge_efficiency > 0.0 && charge_efficiency <= 1.0,
                "Battery: charge efficiency must be in (0, 1]");
  RLBLH_REQUIRE(discharge_efficiency > 0.0 && discharge_efficiency <= 1.0,
                "Battery: discharge efficiency must be in (0, 1]");
}

void Battery::reset(double level_kwh) {
  RLBLH_REQUIRE(level_kwh >= 0.0 && level_kwh <= capacity_,
                "Battery::reset: level must be in [0, capacity]");
  level_ = level_kwh;
  violations_ = 0;
  wasted_ = 0.0;
  grid_extra_ = 0.0;
}

void Battery::restore(double level_kwh, std::size_t violations,
                      double wasted_charge_kwh, double grid_extra_kwh) {
  RLBLH_REQUIRE(level_kwh >= 0.0 && level_kwh <= capacity_,
                "Battery::restore: level must be in [0, capacity]");
  RLBLH_REQUIRE(wasted_charge_kwh >= 0.0 && grid_extra_kwh >= 0.0,
                "Battery::restore: accounting totals must be >= 0");
  level_ = level_kwh;
  violations_ = violations;
  wasted_ = wasted_charge_kwh;
  grid_extra_ = grid_extra_kwh;
}

}  // namespace rlblh
