// Household usage-profile generator (the UMass "HomeC" substitute).
//
// A HouseholdModel samples a daily occupancy pattern (wake / leave / return /
// sleep times, work days, vacancy days) and composes the appliance processes
// of meter/appliances.h on top of it, yielding minute-level usage profiles
// x_n in [0, x_M]. Occupancy parameters are runtime-mutable so experiments
// can shift the behavioural pattern mid-run (paper Section VIII, "usage
// patterns changing").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "meter/appliances.h"
#include "meter/trace.h"
#include "util/rng.h"

namespace rlblh {

/// Behavioural and physical parameters of a simulated household.
struct HouseholdConfig {
  std::size_t intervals = kIntervalsPerDay;  ///< measurement intervals per day
  double usage_cap = kDefaultUsageCap;       ///< x_M in kWh

  // Occupancy pattern, in intervals (minutes), with per-day normal jitter.
  double wake_mean = 390.0;    ///< ~6:30
  double wake_sigma = 25.0;
  double leave_mean = 485.0;   ///< ~8:05
  double leave_sigma = 20.0;
  double back_mean = 1050.0;   ///< ~17:30
  double back_sigma = 40.0;
  double sleep_mean = 1380.0;  ///< ~23:00
  double sleep_sigma = 25.0;

  double workday_probability = 0.72;  ///< house empties during the day
  double vacancy_probability = 0.03;  ///< nobody home the whole day

  double appliance_scale = 1.0;  ///< multiplies every appliance power draw

  // Fleet composition knobs (power values before appliance_scale).
  double hvac_setback = 0.45;      ///< HVAC duty multiplier while away
  double ev_probability = 0.0;     ///< chance the EV charges overnight;
                                   ///< 0 (default) removes the charger
  double ev_power = 0.030;         ///< EV draw in kWh per interval

  /// Validates ranges; throws ConfigError when inconsistent.
  void validate() const;
};

/// Generates daily usage profiles for one household.
class HouseholdModel {
 public:
  /// Builds the default appliance fleet under the given config and seed.
  HouseholdModel(HouseholdConfig config, std::uint64_t seed);

  /// Samples the next day's profile. When `events` is non-null it receives
  /// the ground-truth appliance activations of the day; when `occupancy`
  /// is non-null it receives the day's realized occupancy pattern (ground
  /// truth for occupancy-inference attacks).
  DayTrace generate_day(std::vector<ApplianceEvent>* events = nullptr,
                        Occupancy* occupancy = nullptr);

  /// Samples the next day's profile into `out`, reusing its buffer so a
  /// steady-state day loop allocates nothing. Identical draws and values to
  /// generate_day().
  void generate_day_into(DayTrace& out,
                         std::vector<ApplianceEvent>* events = nullptr,
                         Occupancy* occupancy = nullptr);

  /// Samples just an occupancy pattern (exposed for tests).
  Occupancy sample_occupancy();

  /// Current configuration.
  const HouseholdConfig& config() const { return config_; }

  /// Replaces the behavioural configuration (validated); takes effect on the
  /// next generated day. Appliance fleet is rebuilt with the new scale.
  void set_config(const HouseholdConfig& config);

 private:
  void build_appliances();

  HouseholdConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<Appliance>> appliances_;
};

/// TraceSource adapter over HouseholdModel.
class HouseholdTraceSource final : public TraceSource {
 public:
  HouseholdTraceSource(HouseholdConfig config, std::uint64_t seed)
      : model_(std::move(config), seed) {}

  DayTrace next_day() override { return model_.generate_day(); }
  void next_day_into(DayTrace& out) override {
    model_.generate_day_into(out);
  }
  std::size_t intervals() const override { return model_.config().intervals; }
  double usage_cap() const override { return model_.config().usage_cap; }

  /// Access to the underlying model (e.g. to shift behaviour mid-run).
  HouseholdModel& model() { return model_; }

 private:
  HouseholdModel model_;
};

}  // namespace rlblh
