#include "privacy/mutual_information.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.h"

namespace rlblh {

namespace {

/// Plug-in Shannon entropy in bits, plus the number of occupied cells
/// (needed for the Miller-Madow bias correction).
struct EntropyEstimate {
  double bits = 0.0;
  std::size_t occupied = 0;
};

EntropyEstimate entropy_bits(const std::uint32_t* counts, std::size_t cells,
                             double total) {
  EntropyEstimate out;
  if (total <= 0.0) return out;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint32_t c = counts[i];
    if (c == 0) continue;
    ++out.occupied;
    const double p = static_cast<double>(c) / total;
    out.bits -= p * std::log2(p);
  }
  return out;
}

/// Entropy over the occupied cells named by `cells` (ascending, unique) of
/// `counts`. Visits the same nonzero counts in the same order as a dense
/// scan that skips zeros, so the accumulated sum is bitwise identical.
EntropyEstimate entropy_bits_sparse(const std::uint32_t* counts,
                                    const std::vector<std::uint32_t>& cells,
                                    double total) {
  EntropyEstimate out;
  if (total <= 0.0) return out;
  for (const std::uint32_t cell : cells) {
    const std::uint32_t c = counts[cell];
    if (c == 0) continue;
    ++out.occupied;
    const double p = static_cast<double>(c) / total;
    out.bits -= p * std::log2(p);
  }
  return out;
}

/// Miller-Madow first-order bias correction: the plug-in estimator
/// under-estimates entropy by ~ (K - 1) / (2 N ln 2) bits for K occupied
/// cells and N samples.
double miller_madow(const EntropyEstimate& e, double samples) {
  if (samples <= 0.0 || e.occupied == 0) return e.bits;
  return e.bits + static_cast<double>(e.occupied - 1) /
                      (2.0 * samples * std::numbers::ln2);
}

}  // namespace

PairwiseMiEstimator::PairwiseMiEstimator(std::size_t intervals,
                                         std::size_t levels, double x_cap,
                                         double y_cap)
    : intervals_(intervals), levels_(levels), pair_cells_(levels * levels),
      joint_cells_(pair_cells_ * pair_cells_), qx_(levels, 0.0, x_cap),
      qy_(levels, 0.0, y_cap) {
  RLBLH_REQUIRE(intervals >= 2, "PairwiseMiEstimator: need >= 2 intervals");
  RLBLH_REQUIRE(levels >= 2, "PairwiseMiEstimator: need >= 2 levels");
  // Joint cell ids are uint32 over levels^4 cells; past 256 levels they
  // (and, at 2^32, the size_t table sizes) wrap.
  RLBLH_REQUIRE(levels <= 256, "PairwiseMiEstimator: need <= 256 levels");
  x_counts_.assign((intervals - 1) * pair_cells_, 0);
  joint_counts_.assign((intervals - 1) * joint_cells_, 0);
  joint_touched_.resize(intervals - 1);
}

void PairwiseMiEstimator::observe_day(std::span<const double> usage,
                                      std::span<const double> readings) {
  RLBLH_REQUIRE(usage.size() == intervals_ && readings.size() == intervals_,
                "PairwiseMiEstimator: day length mismatch");
  for (std::size_t n = 0; n + 1 < intervals_; ++n) {
    const std::size_t xi = pair_index(qx_.index(usage[n]),
                                      qx_.index(usage[n + 1]));
    const std::size_t yi = pair_index(qy_.index(readings[n]),
                                      qy_.index(readings[n + 1]));
    ++x_counts_[n * pair_cells_ + xi];
    const std::size_t cell = xi * pair_cells_ + yi;
    std::uint32_t& joint = joint_counts_[n * joint_cells_ + cell];
    if (joint == 0) {
      joint_touched_[n].push_back(static_cast<std::uint32_t>(cell));
    }
    ++joint;
  }
  ++days_;
}

void PairwiseMiEstimator::reset() {
  std::fill(x_counts_.begin(), x_counts_.end(), 0);
  for (std::size_t n = 0; n + 1 < intervals_; ++n) {
    std::uint32_t* const joint_row = joint_counts_.data() + n * joint_cells_;
    for (const std::uint32_t cell : joint_touched_[n]) {
      joint_row[cell] = 0;
    }
    joint_touched_[n].clear();
  }
  days_ = 0;
}

double PairwiseMiEstimator::normalized_mi_at(std::size_t n) const {
  RLBLH_REQUIRE(n + 1 < intervals_,
                "PairwiseMiEstimator: interval out of range");
  if (days_ == 0) return 0.0;
  const auto total = static_cast<double>(days_);
  const EntropyEstimate ex =
      entropy_bits(x_counts_.data() + n * pair_cells_, pair_cells_, total);
  if (ex.bits <= 0.0) return 0.0;  // deterministic usage pair: nothing leaks
  const std::uint32_t* const joint_row = joint_counts_.data() + n * joint_cells_;
  // The first-touch list is exactly the occupied joint set; sorting makes
  // the sparse entropy walk visit cells in the dense scan's ascending order
  // (idempotent, so re-sorting after later observe_day calls is fine).
  std::vector<std::uint32_t>& touched = joint_touched_[n];
  std::sort(touched.begin(), touched.end());
  // Marginalize the joint over the X-pair to get Y-pair counts (integer
  // additions, so visiting only occupied cells changes nothing).
  std::vector<std::uint32_t> y_counts(pair_cells_, 0);
  for (const std::uint32_t cell : touched) {
    y_counts[cell % pair_cells_] += joint_row[cell];
  }
  const EntropyEstimate ey =
      entropy_bits(y_counts.data(), pair_cells_, total);
  const EntropyEstimate exy = entropy_bits_sparse(joint_row, touched, total);
  double hx = ex.bits;
  double h_x_given_y = exy.bits - ey.bits;
  if (bias_correction_) {
    // With few evaluation days the plug-in H(X|Y) is biased low (every
    // rarely-seen Y value looks perfectly informative), inflating MI. The
    // Miller-Madow correction cancels the leading bias term of each
    // entropy; without it the metric overstates leakage substantially.
    hx = miller_madow(ex, total);
    h_x_given_y = miller_madow(exy, total) - miller_madow(ey, total);
  }
  const double mi = (hx - h_x_given_y) / hx;
  // The correction (and floating-point cancellation) can push the ratio
  // slightly outside [0, 1]; clamp to the metric's defined range.
  return std::clamp(mi, 0.0, 1.0);
}

double PairwiseMiEstimator::normalized_mi() const {
  if (days_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t n = 0; n + 1 < intervals_; ++n) {
    sum += normalized_mi_at(n);
  }
  return sum / static_cast<double>(intervals_ - 1);
}

double PairwiseMiEstimator::usage_entropy_at(std::size_t n) const {
  RLBLH_REQUIRE(n + 1 < intervals_,
                "PairwiseMiEstimator: interval out of range");
  return entropy_bits(x_counts_.data() + n * pair_cells_, pair_cells_,
                      static_cast<double>(days_))
      .bits;
}

}  // namespace rlblh
