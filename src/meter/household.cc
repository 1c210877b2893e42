#include "meter/household.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace rlblh {

void HouseholdConfig::validate() const {
  RLBLH_REQUIRE(intervals >= 60, "HouseholdConfig: need at least 60 intervals");
  RLBLH_REQUIRE(usage_cap > 0.0, "HouseholdConfig: usage cap must be > 0");
  const auto day = static_cast<double>(intervals);
  RLBLH_REQUIRE(wake_mean >= 0.0 && wake_mean < day,
                "HouseholdConfig: wake_mean out of range");
  RLBLH_REQUIRE(leave_mean > wake_mean,
                "HouseholdConfig: leave must follow wake");
  RLBLH_REQUIRE(back_mean > leave_mean,
                "HouseholdConfig: return must follow leave");
  RLBLH_REQUIRE(sleep_mean > back_mean && sleep_mean <= day,
                "HouseholdConfig: sleep must follow return");
  RLBLH_REQUIRE(wake_sigma >= 0.0 && leave_sigma >= 0.0 && back_sigma >= 0.0 &&
                    sleep_sigma >= 0.0,
                "HouseholdConfig: sigmas must be >= 0");
  RLBLH_REQUIRE(workday_probability >= 0.0 && workday_probability <= 1.0,
                "HouseholdConfig: workday probability must be in [0,1]");
  RLBLH_REQUIRE(vacancy_probability >= 0.0 && vacancy_probability <= 1.0,
                "HouseholdConfig: vacancy probability must be in [0,1]");
  RLBLH_REQUIRE(appliance_scale > 0.0,
                "HouseholdConfig: appliance scale must be > 0");
  RLBLH_REQUIRE(hvac_setback >= 0.0 && hvac_setback <= 1.0,
                "HouseholdConfig: hvac setback must be in [0,1]");
  RLBLH_REQUIRE(ev_probability >= 0.0 && ev_probability <= 1.0,
                "HouseholdConfig: ev probability must be in [0,1]");
  RLBLH_REQUIRE(ev_power > 0.0, "HouseholdConfig: ev power must be > 0");
}

HouseholdModel::HouseholdModel(HouseholdConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  config_.validate();
  build_appliances();
}

void HouseholdModel::build_appliances() {
  const double s = config_.appliance_scale;
  appliances_.clear();
  appliances_.push_back(std::make_unique<Refrigerator>(0.0025 * s));
  appliances_.push_back(std::make_unique<Hvac>(0.028 * s, 0.10, 0.32,
                                               config_.hvac_setback));
  appliances_.push_back(std::make_unique<WaterHeater>(0.05 * s));
  appliances_.push_back(std::make_unique<Lighting>(0.0035 * s));
  appliances_.push_back(std::make_unique<Cooking>(0.024 * s));
  appliances_.push_back(std::make_unique<Dishwasher>(0.018 * s));
  appliances_.push_back(std::make_unique<Laundry>(0.008 * s, 0.05 * s));
  if (config_.ev_probability > 0.0) {
    appliances_.push_back(std::make_unique<EvCharger>(
        config_.ev_power * s, config_.ev_probability));
  }
  appliances_.push_back(std::make_unique<Electronics>(0.0009 * s, 0.0030 * s));
}

Occupancy HouseholdModel::sample_occupancy() {
  const auto day = static_cast<double>(config_.intervals);
  const auto clamp_time = [day](double v) {
    return static_cast<std::size_t>(std::clamp(v, 0.0, day - 1.0));
  };
  Occupancy occ;
  occ.away_all_day = rng_.bernoulli(config_.vacancy_probability);
  occ.wake = clamp_time(rng_.normal(config_.wake_mean, config_.wake_sigma));
  occ.leave = clamp_time(rng_.normal(config_.leave_mean, config_.leave_sigma));
  occ.back = clamp_time(rng_.normal(config_.back_mean, config_.back_sigma));
  occ.sleep = clamp_time(rng_.normal(config_.sleep_mean, config_.sleep_sigma));
  // Enforce ordering after jitter.
  occ.leave = std::max(occ.leave, occ.wake + 1);
  occ.back = std::max(occ.back, occ.leave + 1);
  occ.sleep = std::max(occ.sleep, occ.back + 1);
  occ.sleep = std::min<std::size_t>(occ.sleep, config_.intervals - 1);
  occ.works_away = rng_.bernoulli(config_.workday_probability);
  return occ;
}

DayTrace HouseholdModel::generate_day(std::vector<ApplianceEvent>* events,
                                      Occupancy* occupancy) {
  DayTrace trace(config_.intervals);
  generate_day_into(trace, events, occupancy);
  return trace;
}

void HouseholdModel::generate_day_into(DayTrace& out,
                                       std::vector<ApplianceEvent>* events,
                                       Occupancy* occupancy) {
  out.assign_zero(config_.intervals);
  // The occupancy draws and the appliance order define the model's RNG
  // stream.
  const Occupancy occ = sample_occupancy();
  if (occupancy != nullptr) *occupancy = occ;
  const TraceLane lane(out);
  for (const auto& appliance : appliances_) {
    appliance->generate(occ, rng_, lane, config_.usage_cap, events);
  }
}

void HouseholdModel::set_config(const HouseholdConfig& config) {
  config.validate();
  RLBLH_REQUIRE(config.intervals == config_.intervals,
                "HouseholdModel: cannot change interval count mid-run");
  config_ = config;
  build_appliances();
}

}  // namespace rlblh
