#include "pricing/tou.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "util/error.h"

namespace rlblh {

TouSchedule::TouSchedule(std::vector<double> rates) : rates_(std::move(rates)) {
  RLBLH_REQUIRE(!rates_.empty(), "TouSchedule: need at least one interval");
  for (const double r : rates_) {
    RLBLH_REQUIRE(r >= 0.0, "TouSchedule: rates must be >= 0");
  }
  // Collapse the per-interval rates into maximal constant-rate runs (the
  // bitwise == keeps segment rates identical to the rates they replace).
  std::size_t begin = 0;
  for (std::size_t n = 1; n <= rates_.size(); ++n) {
    if (n == rates_.size() || rates_[n] != rates_[begin]) {
      segments_.push_back({begin, n, rates_[begin]});
      begin = n;
    }
  }
}

TouSchedule TouSchedule::from_zones(std::size_t intervals,
                                    const std::vector<PriceZone>& zones) {
  RLBLH_REQUIRE(!zones.empty(), "TouSchedule: need at least one zone");
  std::vector<double> rates(intervals, 0.0);
  std::size_t expected_begin = 0;
  for (const auto& zone : zones) {
    RLBLH_REQUIRE(zone.begin == expected_begin,
                  "TouSchedule: zones must tile the day contiguously");
    RLBLH_REQUIRE(zone.end > zone.begin && zone.end <= intervals,
                  "TouSchedule: zone bounds out of range");
    RLBLH_REQUIRE(zone.rate >= 0.0, "TouSchedule: rates must be >= 0");
    for (std::size_t n = zone.begin; n < zone.end; ++n) rates[n] = zone.rate;
    expected_begin = zone.end;
  }
  RLBLH_REQUIRE(expected_begin == intervals,
                "TouSchedule: zones must cover the whole day");
  return TouSchedule(std::move(rates));
}

TouSchedule TouSchedule::srp_plan(std::size_t intervals) {
  RLBLH_REQUIRE(intervals >= 1021,
                "TouSchedule::srp_plan: need at least 1021 intervals");
  return two_zone(intervals, 1020, 7.04, 21.09);
}

TouSchedule TouSchedule::flat(std::size_t intervals, double rate) {
  RLBLH_REQUIRE(intervals >= 1, "TouSchedule: need at least one interval");
  RLBLH_REQUIRE(rate >= 0.0, "TouSchedule: rates must be >= 0");
  return TouSchedule(std::vector<double>(intervals, rate));
}

TouSchedule TouSchedule::two_zone(std::size_t intervals, std::size_t low_until,
                                  double low_rate, double high_rate) {
  RLBLH_REQUIRE(low_until > 0 && low_until < intervals,
                "TouSchedule::two_zone: both zones must be nonempty");
  return from_zones(intervals, {{0, low_until, low_rate},
                                {low_until, intervals, high_rate}});
}

TouSchedule TouSchedule::three_zone(std::size_t intervals, std::size_t t1,
                                    std::size_t t2, double off_rate,
                                    double semi_rate, double peak_rate) {
  RLBLH_REQUIRE(t1 > 0 && t1 < t2 && t2 < intervals,
                "TouSchedule::three_zone: zones must all be nonempty");
  return from_zones(intervals, {{0, t1, off_rate},
                                {t1, t2, semi_rate},
                                {t2, intervals, peak_rate}});
}

TouSchedule TouSchedule::hourly_rtp(std::size_t intervals, std::size_t block,
                                    double min_rate, double max_rate,
                                    Rng& rng) {
  RLBLH_REQUIRE(intervals >= 1, "TouSchedule: need at least one interval");
  RLBLH_REQUIRE(block >= 1, "TouSchedule::hourly_rtp: block must be >= 1");
  RLBLH_REQUIRE(min_rate >= 0.0 && min_rate <= max_rate,
                "TouSchedule::hourly_rtp: need 0 <= min_rate <= max_rate");
  std::vector<double> rates(intervals, 0.0);
  for (std::size_t start = 0; start < intervals; start += block) {
    // Diurnal modulation: cheapest in the small hours, peak in the evening.
    const double phase =
        static_cast<double>(start) / static_cast<double>(intervals);
    const double diurnal =
        0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * (phase - 0.2)));
    const double base = rng.uniform(min_rate, max_rate);
    const double rate = std::clamp(
        0.5 * base + 0.5 * (min_rate + diurnal * (max_rate - min_rate)),
        min_rate, max_rate);
    const std::size_t end = std::min(start + block, intervals);
    for (std::size_t n = start; n < end; ++n) rates[n] = rate;
  }
  return TouSchedule(std::move(rates));
}

double TouSchedule::rate(std::size_t n) const {
  RLBLH_REQUIRE(n < rates_.size(), "TouSchedule::rate: interval out of range");
  return rates_[n];
}

double TouSchedule::min_rate() const {
  return *std::min_element(rates_.begin(), rates_.end());
}

double TouSchedule::max_rate() const {
  return *std::max_element(rates_.begin(), rates_.end());
}

double TouSchedule::mean_rate() const {
  return std::accumulate(rates_.begin(), rates_.end(), 0.0) /
         static_cast<double>(rates_.size());
}

double TouSchedule::cost(const std::vector<double>& energy_kwh) const {
  RLBLH_REQUIRE(energy_kwh.size() == rates_.size(),
                "TouSchedule::cost: series length must match schedule");
  double total = 0.0;
  for (std::size_t n = 0; n < rates_.size(); ++n) {
    total += rates_[n] * energy_kwh[n];
  }
  return total;
}

double two_zone_max_daily_savings(double low_rate, double high_rate,
                                  double battery_capacity_kwh) {
  RLBLH_REQUIRE(high_rate >= low_rate,
                "two_zone_max_daily_savings: high rate must be >= low rate");
  RLBLH_REQUIRE(battery_capacity_kwh >= 0.0,
                "two_zone_max_daily_savings: capacity must be >= 0");
  return (high_rate - low_rate) * battery_capacity_kwh;
}

}  // namespace rlblh
