#include "privacy/mutual_information.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>

#include "util/error.h"

namespace rlblh {

namespace {

/// Intervals transposed per tile by normalized_mi(): a day's 32 codes are
/// 64 contiguous bytes of the day-major store.
constexpr std::size_t kTileIntervals = 32;

/// Calls visit(i) for every set bit i of `bitmap` in [begin, end), in
/// ascending order, and clears those bits.
template <typename Visit>
void take_bits(std::uint64_t* bitmap, std::size_t begin, std::size_t end,
               Visit&& visit) {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  for (std::size_t w = begin / 64; w * 64 < end; ++w) {
    const std::size_t first = w * 64;
    std::uint64_t mask = kAll;
    if (begin > first) mask &= kAll << (begin - first);
    if (end < first + 64) mask &= ~(kAll << (end - first));
    std::uint64_t word = bitmap[w] & mask;
    bitmap[w] &= ~mask;
    for (; word != 0; word &= word - 1) {
      visit(first + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

/// Miller-Madow first-order bias correction: the plug-in estimator
/// under-estimates entropy by ~ (K - 1) / (2 N ln 2) bits for K occupied
/// cells and N samples.
double miller_madow(double bits, std::size_t occupied, double samples) {
  if (samples <= 0.0 || occupied == 0) return bits;
  return bits + static_cast<double>(occupied - 1) /
                    (2.0 * samples * std::numbers::ln2);
}

}  // namespace

PairwiseMiEstimator::PairwiseMiEstimator(std::size_t intervals,
                                         std::size_t levels, double x_cap,
                                         double y_cap)
    : intervals_(intervals), levels_(levels),
      shift_(static_cast<unsigned>(std::bit_width(levels * levels - 1))),
      qx_(levels, 0.0, x_cap), qy_(levels, 0.0, y_cap) {
  RLBLH_REQUIRE(intervals >= 2, "PairwiseMiEstimator: need >= 2 intervals");
  RLBLH_REQUIRE(levels >= 2, "PairwiseMiEstimator: need >= 2 levels");
  // A code holds the X-pair and the Y-pair in 8 bits each.
  RLBLH_REQUIRE(levels <= 16, "PairwiseMiEstimator: need <= 16 levels");
  const std::size_t pair_space = std::size_t{1} << shift_;
  joint_tally_.assign(pair_space * pair_space, 0);
  y_tally_.assign(pair_space, 0);
  joint_bits_.assign((pair_space * pair_space + 63) / 64, 0);
}

void PairwiseMiEstimator::observe_day(std::span<const double> usage,
                                      std::span<const double> readings) {
  RLBLH_REQUIRE(usage.size() == intervals_ && readings.size() == intervals_,
                "PairwiseMiEstimator: day length mismatch");
  const std::size_t pairs = intervals_ - 1;
  codes_.resize(codes_.size() + pairs);
  std::uint16_t* const out = codes_.data() + codes_.size() - pairs;
  std::size_t x_prev = qx_.index(usage[0]);
  std::size_t y_prev = qy_.index(readings[0]);
  for (std::size_t n = 0; n < pairs; ++n) {
    const std::size_t x = qx_.index(usage[n + 1]);
    const std::size_t y = qy_.index(readings[n + 1]);
    out[n] = static_cast<std::uint16_t>(
        ((x_prev * levels_ + x) << shift_) | (y_prev * levels_ + y));
    x_prev = x;
    y_prev = y;
  }
  ++days_;
}

void PairwiseMiEstimator::reset() {
  codes_.clear();
  days_ = 0;
}

const double* PairwiseMiEstimator::terms() const {
  if (terms_days_ != days_) {
    const auto total = static_cast<double>(days_);
    terms_.assign(days_ + 1, 0.0);
    for (std::size_t c = 1; c <= days_; ++c) {
      const double p = static_cast<double>(c) / total;
      terms_[c] = p * std::log2(p);
    }
    terms_days_ = days_;
  }
  return terms_.data();
}

template <std::size_t kWords>
PairwiseMiEstimator::PairEntropies PairwiseMiEstimator::column_entropies_in(
    const std::uint16_t* column, const double* term) const {
  std::uint32_t* const joint = joint_tally_.data();
  std::uint32_t* const y_tally = y_tally_.data();
  std::uint64_t* const joint_bits = joint_bits_.data();
  const unsigned s = shift_;
  std::array<std::uint64_t, kWords> x_bits{};
  for (std::size_t d = 0; d < days_; ++d) {
    const std::size_t code = column[d];
    const std::size_t x = code >> s;
    ++joint[code];
    joint_bits[code / 64] |= std::uint64_t{1} << (code % 64);
    x_bits[kWords == 1 ? 0 : x / 64] |= std::uint64_t{1} << (x % 64);
  }
  PairEntropies e;
  const std::size_t y_mask = (std::size_t{1} << s) - 1;
  std::array<std::uint64_t, kWords> y_bits{};
  for (std::size_t xw = 0; xw < kWords; ++xw) {
    for (std::uint64_t xs = x_bits[xw]; xs != 0; xs &= xs - 1) {
      const std::size_t x =
          xw * 64 + static_cast<std::size_t>(std::countr_zero(xs));
      std::uint32_t x_count = 0;
      take_bits(joint_bits, x << s, (x + 1) << s, [&](std::size_t cell) {
        const std::uint32_t c = joint[cell];
        joint[cell] = 0;
        x_count += c;
        e.xy.bits -= term[c];
        ++e.xy.occupied;
        const std::size_t y = cell & y_mask;
        y_tally[y] += c;
        y_bits[kWords == 1 ? 0 : y / 64] |= std::uint64_t{1} << (y % 64);
      });
      e.x.bits -= term[x_count];
      ++e.x.occupied;
    }
  }
  for (std::size_t yw = 0; yw < kWords; ++yw) {
    for (std::uint64_t ys = y_bits[yw]; ys != 0; ys &= ys - 1) {
      const std::size_t y =
          yw * 64 + static_cast<std::size_t>(std::countr_zero(ys));
      const std::uint32_t c = y_tally[y];
      y_tally[y] = 0;
      e.y.bits -= term[c];
      ++e.y.occupied;
    }
  }
  return e;
}

PairwiseMiEstimator::PairEntropies PairwiseMiEstimator::column_entropies(
    const std::uint16_t* column, const double* term) const {
  return shift_ <= 6 ? column_entropies_in<1>(column, term)
                     : column_entropies_in<4>(column, term);
}

double PairwiseMiEstimator::normalized_mi_from(const PairEntropies& e) const {
  if (e.x.bits <= 0.0) return 0.0;  // deterministic usage pair: nothing leaks
  const auto total = static_cast<double>(days_);
  double hx = e.x.bits;
  double h_x_given_y = e.xy.bits - e.y.bits;
  if (bias_correction_) {
    // With few evaluation days the plug-in H(X|Y) is biased low (every
    // rarely-seen Y value looks perfectly informative), inflating MI. The
    // Miller-Madow correction cancels the leading bias term of each
    // entropy; without it the metric overstates leakage substantially.
    hx = miller_madow(e.x.bits, e.x.occupied, total);
    h_x_given_y = miller_madow(e.xy.bits, e.xy.occupied, total) -
                  miller_madow(e.y.bits, e.y.occupied, total);
  }
  const double mi = (hx - h_x_given_y) / hx;
  // The correction (and floating-point cancellation) can push the ratio
  // slightly outside [0, 1]; clamp to the metric's defined range.
  return std::clamp(mi, 0.0, 1.0);
}

const std::uint16_t* PairwiseMiEstimator::gather_column(std::size_t n) const {
  RLBLH_REQUIRE(n + 1 < intervals_,
                "PairwiseMiEstimator: interval out of range");
  const std::size_t pairs = intervals_ - 1;
  columns_.resize(std::max(columns_.size(), days_));
  for (std::size_t d = 0; d < days_; ++d) {
    columns_[d] = codes_[d * pairs + n];
  }
  return columns_.data();
}

double PairwiseMiEstimator::normalized_mi_at(std::size_t n) const {
  const std::uint16_t* const column = gather_column(n);
  if (days_ == 0) return 0.0;
  return normalized_mi_from(column_entropies(column, terms()));
}

double PairwiseMiEstimator::normalized_mi() const {
  if (days_ == 0) return 0.0;
  const double* const term = terms();
  const std::size_t pairs = intervals_ - 1;
  columns_.resize(std::max(columns_.size(), kTileIntervals * days_));
  double sum = 0.0;
  for (std::size_t n0 = 0; n0 < pairs; n0 += kTileIntervals) {
    const std::size_t width = std::min(kTileIntervals, pairs - n0);
    // Transpose the tile's days x width codes into width columns.
    const std::uint16_t* row = codes_.data() + n0;
    for (std::size_t d = 0; d < days_; ++d, row += pairs) {
      for (std::size_t i = 0; i < width; ++i) {
        columns_[i * days_ + d] = row[i];
      }
    }
    for (std::size_t i = 0; i < width; ++i) {
      sum += normalized_mi_from(
          column_entropies(columns_.data() + i * days_, term));
    }
  }
  return sum / static_cast<double>(pairs);
}

double PairwiseMiEstimator::usage_entropy_at(std::size_t n) const {
  return column_entropies(gather_column(n), terms()).x.bits;
}

}  // namespace rlblh
