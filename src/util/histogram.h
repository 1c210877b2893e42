// Fixed-bin histogram over a closed interval, with entropy computation.
//
// Used by the privacy metrics (entropy of quantized usage windows) and by the
// per-interval usage statistics that drive the synthetic-data heuristic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.h"

namespace rlblh {

class ByteReader;
class ByteWriter;

/// Histogram with `bins` equal-width cells covering [lo, hi]. Values outside
/// the range are clamped into the boundary cells, so every added value is
/// counted exactly once.
class Histogram {
 public:
  /// Creates an empty histogram. Requires bins >= 1 and lo < hi.
  Histogram(std::size_t bins, double lo, double hi);

  /// Adds one observation (weight 1).
  void add(double x);

  /// Adds one observation with the given non-negative weight.
  void add_weighted(double x, double weight);

  /// Index of the cell that value x falls into (after clamping).
  std::size_t bin_index(double x) const;

  /// Midpoint value of cell i. Requires i < bins().
  double bin_center(std::size_t i) const;

  /// Number of cells.
  std::size_t bins() const { return counts_.size(); }

  /// Lower bound of the covered interval.
  double lo() const { return lo_; }

  /// Upper bound of the covered interval.
  double hi() const { return hi_; }

  /// Total weight added so far.
  double total() const { return total_; }

  /// Weight in cell i.
  double count(std::size_t i) const;

  /// Weights of every cell, in order (for walks that visit every cell).
  std::span<const double> counts() const { return counts_; }

  /// Width of one cell, (hi - lo) / bins.
  double width() const { return width_; }

  /// Probability mass of cell i (count / total); 0 when empty.
  double probability(std::size_t i) const;

  /// Shannon entropy of the cell distribution in bits; 0 when empty.
  double entropy_bits() const;

  /// Removes all mass.
  void reset();

  /// Appends the accumulated mass (total and counts) to a state image.
  /// Geometry (bins, lo, hi) is the constructor's business and is echoed
  /// only for validation.
  void write_state(ByteWriter& out) const;

  /// Restores mass written by write_state() into a histogram of identical
  /// geometry. The stored total is adopted verbatim (not recomputed), so a
  /// round trip is bitwise exact. Throws DataError on a geometry mismatch,
  /// a negative count or total, or a short image; the histogram is
  /// unchanged then.
  void read_state(ByteReader& in);

 private:
  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace rlblh
