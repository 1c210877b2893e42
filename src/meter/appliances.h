// Stochastic appliance models for the synthetic household substrate.
//
// The paper evaluates on usage profiles "generated following the statistics
// of real measurements" from the UMassTraceRepository HomeC home. That data
// set is not redistributable here, so this module provides the substitute
// documented in DESIGN.md: a library of appliance processes whose composition
// yields minute-level profiles with the same qualitative structure —
// high-frequency load signatures (compressor cycling, heating elements,
// cooking bursts) riding on a behavioural low-frequency envelope (occupancy,
// sleep, work hours). Each appliance writes its consumption into a shared
// DayTrace, clamped at the x_M usage cap, and can report its on-intervals as
// events so the NALM attack example has ground truth to detect.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "meter/trace.h"
#include "util/rng.h"

namespace rlblh {

/// The HVAC diurnal duty curve for a day of `intervals` slots: a pure
/// function of (n, intervals), tabulated once per distinct day length in a
/// process-wide cache and shared immutably. Fleet runs construct thousands
/// of household models with the same day geometry; sharing the table makes
/// that construction O(1) instead of 1440 cos() calls per model. Thread-safe.
std::shared_ptr<const std::vector<double>> hvac_diurnal_curve(
    std::size_t intervals);

/// One day's realized occupancy pattern, in measurement intervals (minutes).
struct Occupancy {
  bool away_all_day = false;  ///< vacancy day: nobody home at all
  std::size_t wake = 390;     ///< first interval someone is awake
  std::size_t leave = 480;    ///< interval the house empties (work day)
  std::size_t back = 1050;    ///< interval occupants return
  std::size_t sleep = 1380;   ///< interval everyone is asleep
  bool works_away = true;     ///< whether [leave, back) is actually empty

  /// True when someone is home (asleep counts as home).
  bool home(std::size_t n) const {
    if (away_all_day) return false;
    if (!works_away) return true;
    return n < leave || n >= back;
  }

  /// True when someone is home, awake and active.
  bool active(std::size_t n) const {
    return home(n) && n >= wake && n < sleep;
  }
};

/// Ground-truth record of one appliance activation, used by the NALM example
/// and by signature-detection tests.
struct ApplianceEvent {
  std::string appliance;      ///< model name, e.g. "dryer"
  std::size_t start = 0;      ///< first interval of the activation
  std::size_t duration = 0;   ///< number of intervals it stays on
  double power = 0.0;         ///< energy per interval while on (kWh/min)
};

/// Base class for all appliance processes.
class Appliance {
 public:
  explicit Appliance(std::string name) : name_(std::move(name)) {}
  virtual ~Appliance() = default;

  Appliance(const Appliance&) = delete;
  Appliance& operator=(const Appliance&) = delete;

  /// Model name (stable identifier used in events).
  const std::string& name() const { return name_; }

  /// Adds this appliance's consumption for one day into `trace` (a DayTrace
  /// converts implicitly), clamping each interval at `cap` (kWh). Values
  /// written stay finite and >= 0, as DayTrace requires. When `events` is
  /// non-null, appends one record per contiguous activation.
  virtual void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                        double cap,
                        std::vector<ApplianceEvent>* events) const = 0;

 protected:
  /// Helper: writes a constant-power run of `duration` intervals starting at
  /// `start` (truncated at end of day), records it as an event.
  void emit_run(std::size_t start, std::size_t duration, double power,
                std::span<double> trace, double cap,
                std::vector<ApplianceEvent>* events) const;

 private:
  std::string name_;
};

/// Refrigerator: always-on compressor duty cycle with jittered on/off phases.
/// Produces the canonical periodic high-frequency signature.
class Refrigerator final : public Appliance {
 public:
  /// power: kWh per interval while the compressor runs; on/off: nominal
  /// phase lengths in intervals (jittered ±25% per cycle).
  Refrigerator(double power = 0.0025, std::size_t on = 22,
               std::size_t off = 34);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
  std::size_t on_;
  std::size_t off_;
};

/// HVAC: thermostat cycling whose duty fraction follows a diurnal curve
/// (heavier in the afternoon), with setback when the house is empty.
class Hvac final : public Appliance {
 public:
  /// power: kWh per interval while running; base_duty/peak_duty: duty
  /// fraction at night / at the mid-afternoon peak; setback_factor: duty
  /// multiplier while nobody is home.
  Hvac(double power = 0.028, double base_duty = 0.10, double peak_duty = 0.32,
       double setback_factor = 0.45);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
  double base_duty_;
  double peak_duty_;
  double setback_;
  // Per-interval diurnal duty curve from the process-wide cache
  // (hvac_diurnal_curve); re-fetched only when the day length changes.
  mutable std::shared_ptr<const std::vector<double>> diurnal_;
};

/// Electric water heater: high-power recovery runs after morning and evening
/// hot-water draws, plus small standby reheats.
class WaterHeater final : public Appliance {
 public:
  explicit WaterHeater(double power = 0.05);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
};

/// Lighting: low power while occupants are active during dark hours.
class Lighting final : public Appliance {
 public:
  /// dawn/dusk: intervals before/after which lighting is needed.
  Lighting(double power = 0.0035, std::size_t dawn = 420,
           std::size_t dusk = 1080);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
  std::size_t dawn_;
  std::size_t dusk_;
  // Scratch for batched dimming draws, reused across days.
  mutable std::vector<double> draws_;
};

/// Cooking: short high-power bursts around breakfast and dinner when home.
class Cooking final : public Appliance {
 public:
  explicit Cooking(double power = 0.024);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
};

/// Dishwasher: one long medium-power run after dinner, with given probability.
class Dishwasher final : public Appliance {
 public:
  Dishwasher(double power = 0.018, double daily_probability = 0.6);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
  double prob_;
};

/// Laundry: washer run followed by a high-power dryer run, with given
/// probability per day. The dryer is the strongest single signature.
class Laundry final : public Appliance {
 public:
  Laundry(double washer_power = 0.008, double dryer_power = 0.05,
          double daily_probability = 0.35);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double washer_power_;
  double dryer_power_;
  double prob_;
};

/// EV charger: timer-based overnight charging session starting shortly after
/// midnight (off-peak), with given probability per day. A long, strong,
/// cheap-zone load typical of TOU households.
class EvCharger final : public Appliance {
 public:
  EvCharger(double power = 0.030, double daily_probability = 0.9);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double power_;
  double prob_;
};

/// Electronics: always-on standby floor plus evening entertainment load.
class Electronics final : public Appliance {
 public:
  Electronics(double standby_power = 0.0009, double active_power = 0.0030);
  void generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                double cap, std::vector<ApplianceEvent>* events) const override;

 private:
  double standby_power_;
  double active_power_;
};

}  // namespace rlblh
