// Per-measurement-interval usage statistics (paper Section V-A).
//
// The synthetic-data heuristic tracks, "for each measurement interval n, the
// sample distribution of x_n" and periodically replays whole synthetic days
// "where x_n is randomly sampled according to the statistical characteristic
// of the n-th measurement interval". UsageStatsTracker is that tracker: one
// EmpiricalDistribution per interval, observed day by day, sampled column by
// column to produce synthetic DayTraces.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "meter/trace.h"
#include "util/empirical_dist.h"
#include "util/rng.h"

namespace rlblh {

/// Tracks the empirical distribution of usage at every interval of the day.
class UsageStatsTracker {
 public:
  /// Creates a tracker for days of `intervals` slots with values in
  /// [0, usage_cap]. `bins` controls the histogram resolution per interval.
  UsageStatsTracker(std::size_t intervals, double usage_cap,
                    std::size_t bins = 24, std::size_t reservoir = 48);

  /// Folds one observed day into the per-interval distributions. Accepts
  /// any read-only lane view (a DayTrace converts implicitly), so the RL
  /// observe path can feed its day buffer without a validating copy.
  void observe_day(ConstTraceLane day, Rng& rng);

  /// Number of days observed so far.
  std::size_t days_observed() const { return days_; }

  /// Draws a synthetic day: each interval sampled independently from its own
  /// empirical distribution. Requires days_observed() >= 1.
  DayTrace sample_day(Rng& rng) const;

  /// sample_day() into a caller-owned buffer of intervals() values, with
  /// the same draws in the same order and no allocation (the SYN replay
  /// loop samples hundreds of days per round into one buffer).
  void sample_day_into(Rng& rng, std::span<double> out) const;

  /// Mean usage at interval n over all observed days.
  double mean_at(std::size_t n) const;

  /// Distribution for interval n (read-only; for tests/diagnostics).
  const EmpiricalDistribution& distribution(std::size_t n) const;

  /// Number of intervals per day.
  std::size_t intervals() const { return dists_.size(); }

  /// Upper bound of tracked values (x_M).
  double usage_cap() const { return cap_; }

  /// Appends every interval's distribution state to a state image: the
  /// interval count, the days observed, then each distribution (the SYN
  /// heuristic's sampling state must survive a daemon restart bitwise).
  void write_state(ByteWriter& out) const;

  /// Restores state written by write_state() into a tracker of identical
  /// geometry. Throws DataError on a short or inconsistent image or a
  /// geometry mismatch; callers decode into a fresh tracker, because the
  /// intervals before a bad one are already restored then.
  void read_state(ByteReader& in);

 private:
  double cap_;
  std::size_t days_ = 0;
  std::vector<EmpiricalDistribution> dists_;
};

}  // namespace rlblh
