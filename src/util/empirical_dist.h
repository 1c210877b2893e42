// Streaming empirical distribution with sampling support.
//
// The synthetic-data heuristic (paper Section V-A) tracks, for every
// measurement interval n, "the sample distribution of x_n" and later draws
// synthetic usage values from it. EmpiricalDistribution implements that
// tracker: it keeps a bounded reservoir of observed values plus a histogram,
// and can sample either an exact observed value (reservoir) or a smoothed
// value (histogram cell with intra-cell jitter).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/histogram.h"
#include "util/rng.h"

namespace rlblh {

/// One-dimensional empirical distribution over [lo, hi].
class EmpiricalDistribution {
 public:
  /// Creates an empty distribution covering [lo, hi] with the given histogram
  /// resolution and reservoir capacity. Requires bins >= 1, lo < hi and
  /// reservoir_capacity >= 1.
  EmpiricalDistribution(double lo, double hi, std::size_t bins = 32,
                        std::size_t reservoir_capacity = 64);

  /// Folds in one observation. Values are clamped to [lo, hi].
  void add(double x, Rng& rng);

  /// Number of observations folded in so far.
  std::size_t count() const { return count_; }

  /// Sample mean of all observations; 0 when empty.
  double mean() const;

  /// Draws a value distributed like the observed data. With probability
  /// `reservoir_fraction` (default 0.5) an exact retained observation is
  /// returned; otherwise a histogram cell is drawn by mass and a uniform
  /// point inside it is returned. Requires count() >= 1.
  double sample(Rng& rng) const;

  /// Read access to the underlying histogram (used by tests and diagnostics).
  const Histogram& histogram() const { return hist_; }

  /// Fraction of samples served from the exact-value reservoir; in [0, 1].
  void set_reservoir_fraction(double f);

  /// The fraction set by set_reservoir_fraction() (0.5 by default).
  double reservoir_fraction() const { return reservoir_fraction_; }

  /// The retained observations, in reservoir order.
  std::span<const double> reservoir() const { return reservoir_; }

  /// Appends the full sampling state to a state image: count, sum,
  /// fraction, the reservoir and the histogram mass. A read_state() into a
  /// distribution of identical geometry reproduces sample() draws bitwise.
  void write_state(ByteWriter<std::string>& out) const;

  /// Restores state written by write_state(). Throws DataError on a short
  /// image, a geometry mismatch, a reservoir larger than the capacity or
  /// the count, or a fraction outside [0, 1] (both checked before the
  /// reservoir is allocated); the distribution is unchanged then.
  void read_state(ByteReader& in);

 private:
  Histogram hist_;
  std::vector<double> reservoir_;
  std::size_t reservoir_capacity_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double reservoir_fraction_ = 0.5;
};

}  // namespace rlblh
