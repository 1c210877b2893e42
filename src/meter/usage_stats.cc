#include "meter/usage_stats.h"

#include <cstdint>
#include <utility>

#include "util/bytes.h"
#include "util/error.h"

namespace rlblh {

UsageStatsTracker::UsageStatsTracker(std::size_t intervals, double usage_cap,
                                     std::size_t bins, std::size_t reservoir)
    : cap_(usage_cap) {
  RLBLH_REQUIRE(intervals >= 1, "UsageStatsTracker: need >= 1 interval");
  RLBLH_REQUIRE(usage_cap > 0.0, "UsageStatsTracker: usage cap must be > 0");
  dists_.reserve(intervals);
  for (std::size_t n = 0; n < intervals; ++n) {
    dists_.emplace_back(0.0, usage_cap, bins, reservoir);
  }
}

void UsageStatsTracker::observe_day(ConstTraceLane day, Rng& rng) {
  RLBLH_REQUIRE(day.intervals() == dists_.size(),
                "UsageStatsTracker: day length mismatch");
  for (std::size_t n = 0; n < dists_.size(); ++n) {
    dists_[n].add(day[n], rng);
  }
  ++days_;
}

DayTrace UsageStatsTracker::sample_day(Rng& rng) const {
  std::vector<double> values(dists_.size());
  sample_day_into(rng, values);
  return DayTrace(std::move(values));
}

void UsageStatsTracker::sample_day_into(Rng& rng,
                                        std::span<double> out) const {
  RLBLH_REQUIRE(days_ >= 1,
                "UsageStatsTracker: cannot sample before observing a day");
  RLBLH_REQUIRE(out.size() == dists_.size(),
                "UsageStatsTracker: day length mismatch");
  for (std::size_t n = 0; n < dists_.size(); ++n) {
    out[n] = dists_[n].sample(rng);
  }
}

double UsageStatsTracker::mean_at(std::size_t n) const {
  RLBLH_REQUIRE(n < dists_.size(), "UsageStatsTracker: interval out of range");
  return dists_[n].mean();
}

void UsageStatsTracker::write_state(ByteWriter& out) const {
  out.u64(dists_.size());
  out.u64(days_);
  for (const EmpiricalDistribution& dist : dists_) dist.write_state(out);
}

void UsageStatsTracker::read_state(ByteReader& in) {
  if (in.u64() != dists_.size()) in.fail("usage stats interval count mismatch");
  const std::uint64_t days = in.u64();
  for (EmpiricalDistribution& dist : dists_) dist.read_state(in);
  days_ = days;
}

const EmpiricalDistribution& UsageStatsTracker::distribution(
    std::size_t n) const {
  RLBLH_REQUIRE(n < dists_.size(), "UsageStatsTracker: interval out of range");
  return dists_[n];
}

}  // namespace rlblh
