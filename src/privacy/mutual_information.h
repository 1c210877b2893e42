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
// Storage is one pair code per interval per day. observe_day quantizes
// each value once and appends, day-major, the n_M - 1 codes
//
//     code = x_pair << s | y_pair,
//     x_pair = q(x_n) * levels + q(x_{n+1}), y_pair likewise,
//
// with s = bit_width(levels^2 - 1) <= 8, so a code fits a uint16 and the
// X-pair and Y-pair stay separable. That is 2 B per interval per day:
// 2.9 KB per 1 440-interval day, 345 KB for a 120-day window. levels is
// therefore 2..16 (16 fills the 8 + 8 code bits).
//
// A query transposes the codes into interval-major tiles of 32 intervals.
// For each interval it counts the D codes into reused scratch of 2^(2s)
// joint counts (16 KB at 8 levels, 256 KB at 16) and sets their bits in a
// joint occupancy bitmap and an x bitmap (one register word up to 8
// levels). It walks the x bits in ascending order (std::countr_zero) and,
// for each x, the joint cells [x << s, (x+1) << s) in ascending order:
// that yields H(X,Y), H(X) from the per-x integer sums, and the y counts
// and y bitmap, whose ascending walk yields H(Y). Every count and bitmap
// word is zeroed as it is read, so the scratch is clean for the next
// interval. Each entropy term p * log2(p), p = c / D, comes from a memo
// built once per day count with that same expression (D + 1 log2 calls,
// not ~3 per occupied cell per interval).
//
// Ascending codes order the cells x-major, then y — the order of a dense
// levels^4 table's flat index x_pair * levels^2 + y_pair. Each entropy
// therefore subtracts the same doubles in the same order as a dense scan
// that skips empty cells, and the marginals are integer sums, so every
// result is bitwise identical to the dense estimator. That holds wherever
// the compiler does not fuse a*b + c into an FMA: with the default flags,
// and with -ffp-contract=off on an FMA-capable -march (the dense scan's
// `bits -= p * log2(p)` may fuse, the memo's stored product cannot).
// tests/proptest/mi_diff_proptest.cc keeps the dense estimator as its
// oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "meter/trace.h"
#include "util/quantizer.h"

namespace rlblh {

/// Streaming estimator of the paper's normalized MI metric. Observes paired
/// (usage, reading) days as per-interval pair codes; normalized_mi() then
/// evaluates Eq. 20. Queries reuse mutable scratch, so one estimator must
/// not be queried from two threads at once.
class PairwiseMiEstimator {
 public:
  /// `intervals` slots per day (>= 2); `levels` quantization levels
  /// (2..16) applied to both streams; values live in [0, x_cap] /
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
  /// and caps): clears the stored codes but keeps their capacity.
  void reset();

 private:
  /// Plug-in entropy in bits and its number of occupied cells.
  struct Entropy {
    double bits = 0.0;
    std::size_t occupied = 0;
  };
  /// H(X_n), H(Y_n) and H(X_n, Y_n) of one interval.
  struct PairEntropies {
    Entropy x;
    Entropy y;
    Entropy xy;
  };

  /// Entropies of one interval's column of days_ codes, with `term` the
  /// memo of terms(); leaves the count scratch zeroed.
  PairEntropies column_entropies(const std::uint16_t* column,
                                 const double* term) const;
  /// column_entropies with x and y bitmaps of kWords 64-bit words: 1 up to
  /// 8 levels (s <= 6, so they live in registers), 4 above.
  template <std::size_t kWords>
  PairEntropies column_entropies_in(const std::uint16_t* column,
                                    const double* term) const;
  /// Normalized MI of one interval from its entropies.
  double normalized_mi_from(const PairEntropies& e) const;
  /// Copies interval n's codes, one per day, into columns_ and returns it.
  const std::uint16_t* gather_column(std::size_t n) const;
  /// The per-count memo term[c] = p * log2(p), p = c / days_.
  const double* terms() const;

  std::size_t intervals_;
  std::size_t levels_;
  unsigned shift_;  ///< s: bits of one pair code (Y-pair field width)
  Quantizer qx_;
  Quantizer qy_;
  std::size_t days_ = 0;
  bool bias_correction_ = true;
  /// Day-major pair codes: day d's interval n at d * (intervals_-1) + n.
  std::vector<std::uint16_t> codes_;

  // Query scratch; the tallies and the bitmap are all zero between
  // queries, the tile and the memo are overwritten before use.
  mutable std::vector<std::uint32_t> joint_tally_;  ///< 2^(2s) cells
  mutable std::vector<std::uint32_t> y_tally_;      ///< 2^s cells
  mutable std::vector<std::uint64_t> joint_bits_;   ///< occupied joint cells
  mutable std::vector<std::uint16_t> columns_;  ///< interval-major tile
  mutable std::vector<double> terms_;           ///< entropy-term memo
  mutable std::size_t terms_days_ = 0;          ///< days the memo is for
};

}  // namespace rlblh
