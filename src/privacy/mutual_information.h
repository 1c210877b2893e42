// Normalized mutual information over length-two windows (paper Eq. 20).
//
// Load signatures are detected from high-frequency variation, "especially by
// watching two successive values". The paper therefore measures how much
// observing Y_n = (y_n, y_{n+1}) reveals about X_n = (x_n, x_{n+1}):
//
//     MI = (1/(n_M - 1)) * sum_n [ H(X_n) - H(X_n | Y_n) ] / H(X_n)
//
// Continuous values are quantized to a fixed number of levels for the
// entropy estimates (prior BLH work does the same; the controller itself
// never quantizes). Intervals where H(X_n) = 0 — the usage pair is
// deterministic, so there is nothing to leak — contribute 0 and are
// documented as such.
//
// Storage is sized for reuse: both count tables are single flat allocations
// (interval-major), and every joint cell that becomes nonzero is remembered
// in a per-interval first-touch list. reset() therefore zeroes only the
// cells an evaluation actually touched (days x intervals writes, not the
// levels^4 x intervals table), and the entropy evaluation walks exactly the
// occupied joint cells in ascending index order — the same nonzero-cell
// sequence a dense scan visits, so every floating-point sum is bitwise
// identical to the dense implementation this replaces. Fleet workers lean
// on both properties to amortize one estimator across thousands of
// households.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "meter/trace.h"
#include "util/quantizer.h"

namespace rlblh {

/// Streaming estimator of the paper's normalized MI metric. Observes paired
/// (usage, reading) days, accumulating per-interval joint histograms of the
/// quantized pairs; normalized_mi() then evaluates Eq. 20.
class PairwiseMiEstimator {
 public:
  /// `intervals` slots per day (>= 2); `levels` quantization levels
  /// (2..256) applied to both streams; values live in [0, x_cap] /
  /// [0, y_cap].
  PairwiseMiEstimator(std::size_t intervals, std::size_t levels, double x_cap,
                      double y_cap);

  /// Folds in one evaluation day of usage x and meter readings y (a
  /// DayTrace converts implicitly).
  void observe_day(std::span<const double> usage,
                   std::span<const double> readings);

  /// Number of days observed.
  std::size_t days() const { return days_; }

  /// Normalized MI averaged over intervals (Eq. 20), in [0, 1].
  double normalized_mi() const;

  /// Normalized MI of one interval index n in [0, intervals-2]; 0 when
  /// H(X_n) = 0.
  double normalized_mi_at(std::size_t n) const;

  /// Entropy H(X_n) in bits at interval n (diagnostic, plug-in estimate).
  double usage_entropy_at(std::size_t n) const;

  /// Enables/disables the Miller-Madow bias correction (on by default).
  /// With finitely many evaluation days the plug-in conditional entropy is
  /// biased low, which overstates leakage; the correction removes the
  /// leading (K-1)/(2N ln 2) term of each entropy estimate.
  void set_bias_correction(bool enabled) { bias_correction_ = enabled; }

  /// Returns the estimator to its freshly-constructed state (same geometry
  /// and caps) without releasing its buffers: touched joint cells are
  /// zeroed via the first-touch lists, so the cost scales with the days
  /// observed, not with the levels^4 table size.
  void reset();

 private:
  /// Flat index of a quantized pair (i, j), each in [0, levels).
  std::size_t pair_index(std::size_t i, std::size_t j) const {
    return i * levels_ + j;
  }

  std::size_t intervals_;
  std::size_t levels_;
  std::size_t pair_cells_;   ///< levels^2, one X-pair (or Y-pair) alphabet
  std::size_t joint_cells_;  ///< levels^4, the (X-pair, Y-pair) alphabet
  Quantizer qx_;
  Quantizer qy_;
  std::size_t days_ = 0;
  bool bias_correction_ = true;
  // Interval-major flat tables: interval n's X-pair counts live at
  // [n * pair_cells_, (n+1) * pair_cells_), its joint counts at
  // [n * joint_cells_, (n+1) * joint_cells_).
  std::vector<std::uint32_t> x_counts_;
  std::vector<std::uint32_t> joint_counts_;
  // Per interval: joint cells that went 0 -> nonzero, in touch order
  // (exactly the occupied set; sorted on demand by the entropy walk).
  mutable std::vector<std::vector<std::uint32_t>> joint_touched_;
};

}  // namespace rlblh
