#include "meter/appliances.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <span>
#include <utility>

#include "util/error.h"

namespace rlblh {

std::shared_ptr<const std::vector<double>> hvac_diurnal_curve(
    std::size_t intervals) {
  static std::mutex mutex;
  static std::map<std::size_t, std::shared_ptr<const std::vector<double>>>
      cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(intervals);
  if (it != cache.end()) return it->second;
  // Peak demand mid-afternoon (phase ~ 0.65), trough pre-dawn. Pure
  // function of (n, intervals): identical inputs and expression, hence
  // identical doubles whichever model triggered the tabulation.
  auto curve = std::make_shared<std::vector<double>>(intervals);
  for (std::size_t i = 0; i < intervals; ++i) {
    const double phase =
        static_cast<double>(i) / static_cast<double>(intervals);
    (*curve)[i] =
        0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * (phase - 0.15)));
  }
  it = cache.emplace(intervals, std::move(curve)).first;
  return it->second;
}

namespace {

/// Jitters a nominal length by ±fraction, never below 1.
std::size_t jitter_len(std::size_t nominal, double fraction, Rng& rng) {
  const double f = rng.uniform(1.0 - fraction, 1.0 + fraction);
  const double v = std::max(1.0, std::round(static_cast<double>(nominal) * f));
  return static_cast<std::size_t>(v);
}

/// Jitters a nominal time by a normal perturbation, clamped to the day.
std::size_t jitter_time(std::size_t nominal, double sigma, Rng& rng,
                        std::size_t day_len) {
  const double v = rng.normal(static_cast<double>(nominal), sigma);
  const double clamped =
      std::clamp(v, 0.0, static_cast<double>(day_len) - 1.0);
  return static_cast<std::size_t>(clamped);
}

/// Adds a constant `value` (>= 0) to every interval of [start, end),
/// clamping each sum at `cap` when cap > 0. Requires
/// start <= end <= trace.size().
void add_clamped_run(std::span<double> trace, std::size_t start,
                     std::size_t end, double value, double cap) {
  RLBLH_REQUIRE(start <= end && end <= trace.size(),
                "add_clamped_run: run out of range");
  RLBLH_REQUIRE(value >= 0.0, "add_clamped_run: added value must be >= 0");
  for (std::size_t n = start; n < end; ++n) {
    double next = trace[n] + value;
    if (cap > 0.0) next = std::min(next, cap);
    trace[n] = next;
  }
}

}  // namespace

void Appliance::emit_run(std::size_t start, std::size_t duration, double power,
                         std::span<double> trace, double cap,
                         std::vector<ApplianceEvent>* events) const {
  if (duration == 0 || start >= trace.size()) return;
  const std::size_t end = std::min(start + duration, trace.size());
  add_clamped_run(trace, start, end, power, cap);
  if (events != nullptr) {
    events->push_back({name(), start, end - start, power});
  }
}

Refrigerator::Refrigerator(double power, std::size_t on, std::size_t off)
    : Appliance("refrigerator"), power_(power), on_(on), off_(off) {
  RLBLH_REQUIRE(power > 0.0, "Refrigerator: power must be > 0");
  RLBLH_REQUIRE(on >= 1 && off >= 1, "Refrigerator: phases must be >= 1");
}

void Refrigerator::generate(const Occupancy& /*occ*/, Rng& rng,
                            std::span<double> trace, double cap,
                            std::vector<ApplianceEvent>* events) const {
  // Random initial phase so day boundaries do not align cycles.
  std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(on_ + off_ - 1)));
  bool running = n < on_;
  if (running) {
    // Finish the partial initial on-phase.
    const std::size_t rest = on_ - n;
    emit_run(0, rest, power_, trace, cap, events);
    n = rest;
  } else {
    n = (on_ + off_) - n;  // remaining off time
  }
  while (n < trace.size()) {
    const std::size_t run = jitter_len(on_, 0.25, rng);
    const std::size_t idle = jitter_len(off_, 0.25, rng);
    emit_run(n, run, power_, trace, cap, events);
    n += run + idle;
  }
}

Hvac::Hvac(double power, double base_duty, double peak_duty,
           double setback_factor)
    : Appliance("hvac"), power_(power), base_duty_(base_duty),
      peak_duty_(peak_duty), setback_(setback_factor) {
  RLBLH_REQUIRE(power > 0.0, "Hvac: power must be > 0");
  RLBLH_REQUIRE(base_duty >= 0.0 && base_duty <= 1.0,
                "Hvac: base duty must be in [0,1]");
  RLBLH_REQUIRE(peak_duty >= base_duty && peak_duty <= 1.0,
                "Hvac: peak duty must be in [base,1]");
  RLBLH_REQUIRE(setback_factor >= 0.0 && setback_factor <= 1.0,
                "Hvac: setback factor must be in [0,1]");
}

void Hvac::generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                    double cap, std::vector<ApplianceEvent>* events) const {
  // Thermostat cycling: choose a cycle period, set the on-fraction from the
  // diurnal duty curve at the cycle start.
  const std::size_t day = trace.size();
  if (diurnal_ == nullptr || diurnal_->size() != day) {
    diurnal_ = hvac_diurnal_curve(day);
  }
  const std::vector<double>& diurnal = *diurnal_;
  std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 19));
  while (n < day) {
    double duty = base_duty_ + (peak_duty_ - base_duty_) * diurnal[n];
    if (!occ.home(n)) duty *= setback_;
    duty = std::clamp(duty * rng.uniform(0.85, 1.15), 0.0, 1.0);
    const std::size_t period = jitter_len(30, 0.2, rng);
    const auto run = static_cast<std::size_t>(
        std::round(static_cast<double>(period) * duty));
    if (run > 0) emit_run(n, run, power_, trace, cap, events);
    n += period;
  }
}

WaterHeater::WaterHeater(double power) : Appliance("water_heater"), power_(power) {
  RLBLH_REQUIRE(power > 0.0, "WaterHeater: power must be > 0");
}

void WaterHeater::generate(const Occupancy& occ, Rng& rng,
                           std::span<double> trace, double cap,
                           std::vector<ApplianceEvent>* events) const {
  const std::size_t day = trace.size();
  if (!occ.away_all_day) {
    // Morning shower recovery shortly after wake.
    const std::size_t morning =
        jitter_time(occ.wake + 20, 10.0, rng, day);
    emit_run(morning, jitter_len(18, 0.3, rng), power_, trace, cap, events);
    // Evening draw (dishes, baths) after return.
    const std::size_t evening_base = occ.works_away ? occ.back : 1140;
    const std::size_t evening =
        jitter_time(evening_base + 60, 30.0, rng, day);
    emit_run(evening, jitter_len(12, 0.3, rng), power_, trace, cap, events);
  }
  // Standby reheats (tank losses) a few times a day regardless of occupancy.
  const int reheats = rng.uniform_int(2, 4);
  for (int i = 0; i < reheats; ++i) {
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(day - 1)));
    emit_run(start, jitter_len(4, 0.4, rng), power_, trace, cap, events);
  }
}

Lighting::Lighting(double power, std::size_t dawn, std::size_t dusk)
    : Appliance("lighting"), power_(power), dawn_(dawn), dusk_(dusk) {
  RLBLH_REQUIRE(power > 0.0, "Lighting: power must be > 0");
  RLBLH_REQUIRE(dawn < dusk, "Lighting: dawn must precede dusk");
}

void Lighting::generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                        double cap, std::vector<ApplianceEvent>* events) const {
  // Continuous low load whenever occupants are active in dark hours, with
  // per-interval dimming noise; recorded as runs for NALM ground truth.
  //
  // The lit set — dark hours intersected with active occupancy — is a union
  // of at most four ordered runs, so instead of scanning all 1440 intervals
  // the runs are enumerated directly and the dimming noise is drawn in one
  // batch per run. Draws still happen for exactly the lit intervals in
  // interval order, so the RNG stream (and every value) matches the scan
  // this replaces.
  const std::size_t day = trace.size();
  // Active occupancy = [wake, sleep) intersected with the home set (the
  // whole day, or [0, leave) plus [back, day) on work days).
  std::array<std::pair<std::size_t, std::size_t>, 2> active{};
  std::size_t actives = 0;
  if (!occ.away_all_day) {
    if (!occ.works_away) {
      active[actives++] = {occ.wake, occ.sleep};
    } else {
      active[actives++] = {occ.wake, std::min(occ.leave, occ.sleep)};
      active[actives++] = {std::max(occ.back, occ.wake), occ.sleep};
    }
  }
  // Merge touching/overlapping ranges (possible only for occupancy structs
  // built directly without the wake < leave < back < sleep ordering).
  if (actives == 2 && active[1].first <= active[0].second) {
    active[0].second = std::max(active[0].second, active[1].second);
    actives = 1;
  }
  // Split each active range at the dark-hours boundary (dawn < dusk), so
  // the resulting lit runs are maximal, disjoint and ordered.
  std::array<std::pair<std::size_t, std::size_t>, 4> lit{};
  std::size_t runs = 0;
  for (std::size_t i = 0; i < actives; ++i) {
    const std::size_t a = active[i].first;
    const std::size_t b = std::min(active[i].second, day);
    if (a >= b) continue;
    const std::size_t morning_end = std::min(b, dawn_);
    if (a < morning_end) lit[runs++] = {a, morning_end};
    const std::size_t evening_start = std::max(a, dusk_);
    if (evening_start < b) lit[runs++] = {evening_start, b};
  }
  for (std::size_t i = 0; i < runs; ++i) {
    const std::size_t start = lit[i].first;
    const std::size_t len = lit[i].second - start;
    draws_.resize(len);
    rng.fill_uniform(0.7, 1.3, std::span<double>(draws_.data(), len));
    // Same per-interval arithmetic as add_clamped().
    for (std::size_t j = 0; j < len; ++j) {
      double next = trace[start + j] + power_ * draws_[j];
      if (cap > 0.0) next = std::min(next, cap);
      trace[start + j] = next;
    }
    if (events != nullptr) {
      events->push_back({name(), start, len, power_});
    }
  }
}

Cooking::Cooking(double power) : Appliance("cooking"), power_(power) {
  RLBLH_REQUIRE(power > 0.0, "Cooking: power must be > 0");
}

void Cooking::generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                       double cap, std::vector<ApplianceEvent>* events) const {
  if (occ.away_all_day) return;
  const std::size_t day = trace.size();
  // Breakfast: short burst after wake.
  if (rng.bernoulli(0.8)) {
    const std::size_t start = jitter_time(occ.wake + 35, 12.0, rng, day);
    emit_run(start, jitter_len(9, 0.4, rng), power_ * rng.uniform(0.6, 1.0),
             trace, cap, events);
  }
  // Dinner: longer burst in the evening when someone is home.
  const std::size_t dinner_base = occ.works_away ? occ.back + 45 : 1110;
  if (rng.bernoulli(0.9)) {
    const std::size_t start = jitter_time(dinner_base, 25.0, rng, day);
    emit_run(start, jitter_len(28, 0.35, rng), power_ * rng.uniform(0.8, 1.0),
             trace, cap, events);
  }
}

Dishwasher::Dishwasher(double power, double daily_probability)
    : Appliance("dishwasher"), power_(power), prob_(daily_probability) {
  RLBLH_REQUIRE(power > 0.0, "Dishwasher: power must be > 0");
  RLBLH_REQUIRE(daily_probability >= 0.0 && daily_probability <= 1.0,
                "Dishwasher: probability must be in [0,1]");
}

void Dishwasher::generate(const Occupancy& occ, Rng& rng,
                          std::span<double> trace, double cap,
                          std::vector<ApplianceEvent>* events) const {
  if (occ.away_all_day || !rng.bernoulli(prob_)) return;
  const std::size_t dinner_base = occ.works_away ? occ.back + 120 : 1200;
  const std::size_t start = jitter_time(dinner_base, 30.0, rng, trace.size());
  emit_run(start, jitter_len(55, 0.2, rng), power_, trace, cap, events);
}

Laundry::Laundry(double washer_power, double dryer_power,
                 double daily_probability)
    : Appliance("laundry"), washer_power_(washer_power),
      dryer_power_(dryer_power), prob_(daily_probability) {
  RLBLH_REQUIRE(washer_power > 0.0 && dryer_power > 0.0,
                "Laundry: powers must be > 0");
  RLBLH_REQUIRE(daily_probability >= 0.0 && daily_probability <= 1.0,
                "Laundry: probability must be in [0,1]");
}

void Laundry::generate(const Occupancy& occ, Rng& rng, std::span<double> trace,
                       double cap, std::vector<ApplianceEvent>* events) const {
  if (occ.away_all_day || !rng.bernoulli(prob_)) return;
  // Run while someone is home and awake: mornings on stay-home days,
  // evenings on work days.
  const std::size_t base = occ.works_away ? occ.back + 30 : occ.wake + 120;
  const std::size_t washer_start = jitter_time(base, 40.0, rng, trace.size());
  const std::size_t washer_len = jitter_len(38, 0.2, rng);
  emit_run(washer_start, washer_len, washer_power_, trace, cap, events);
  const std::size_t dryer_start =
      washer_start + washer_len + static_cast<std::size_t>(rng.uniform_int(2, 10));
  emit_run(dryer_start, jitter_len(45, 0.2, rng), dryer_power_, trace, cap,
           events);
}

EvCharger::EvCharger(double power, double daily_probability)
    : Appliance("ev_charger"), power_(power), prob_(daily_probability) {
  RLBLH_REQUIRE(power > 0.0, "EvCharger: power must be > 0");
  RLBLH_REQUIRE(daily_probability >= 0.0 && daily_probability <= 1.0,
                "EvCharger: probability must be in [0,1]");
}

void EvCharger::generate(const Occupancy& occ, Rng& rng,
                         std::span<double> trace, double cap,
                         std::vector<ApplianceEvent>* events) const {
  // The car is only home to charge if someone came home.
  if (occ.away_all_day || !rng.bernoulli(prob_)) return;
  // Timer starts the session shortly after midnight, squarely off-peak.
  const std::size_t start = jitter_time(30, 40.0, rng, trace.size());
  emit_run(start, jitter_len(65, 0.15, rng), power_, trace, cap, events);
}

Electronics::Electronics(double standby_power, double active_power)
    : Appliance("electronics"), standby_power_(standby_power),
      active_power_(active_power) {
  RLBLH_REQUIRE(standby_power >= 0.0, "Electronics: standby must be >= 0");
  RLBLH_REQUIRE(active_power >= standby_power,
                "Electronics: active power must be >= standby");
}

void Electronics::generate(const Occupancy& occ, Rng& rng,
                           std::span<double> trace, double cap,
                           std::vector<ApplianceEvent>* events) const {
  // Standby floor across the whole day (not an "event" — no edge signature).
  add_clamped_run(trace, 0, trace.size(), standby_power_, cap);
  // Evening entertainment block while active.
  if (occ.away_all_day) return;
  const std::size_t evening_base = occ.works_away ? occ.back + 15 : 1080;
  const std::size_t start = jitter_time(evening_base, 20.0, rng, trace.size());
  const std::size_t len = jitter_len(150, 0.3, rng);
  emit_run(start, len, active_power_ - standby_power_, trace, cap, events);
}

}  // namespace rlblh
