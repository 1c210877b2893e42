#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/bytes.h"

namespace rlblh {

Histogram::Histogram(std::size_t bins, double lo, double hi)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  RLBLH_REQUIRE(bins >= 1, "Histogram: need at least one bin");
  RLBLH_REQUIRE(lo < hi, "Histogram: lo must be < hi");
}

void Histogram::add(double x) { add_weighted(x, 1.0); }

void Histogram::add_weighted(double x, double weight) {
  RLBLH_REQUIRE(weight >= 0.0, "Histogram: weight must be >= 0");
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

std::size_t Histogram::bin_index(double x) const {
  if (x <= lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  const auto i = static_cast<std::size_t>((x - lo_) / width_);
  return std::min(i, counts_.size() - 1);
}

double Histogram::bin_center(std::size_t i) const {
  RLBLH_REQUIRE(i < counts_.size(), "Histogram: bin index out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double Histogram::count(std::size_t i) const {
  RLBLH_REQUIRE(i < counts_.size(), "Histogram: bin index out of range");
  return counts_[i];
}

double Histogram::probability(std::size_t i) const {
  if (total_ == 0.0) return 0.0;
  return count(i) / total_;
}

double Histogram::entropy_bits() const {
  if (total_ == 0.0) return 0.0;
  double h = 0.0;
  for (const double c : counts_) {
    if (c <= 0.0) continue;
    const double p = c / total_;
    h -= p * std::log2(p);
  }
  return h;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0.0);
  total_ = 0.0;
}

void Histogram::write_state(ByteWriter& out) const {
  out.u64(counts_.size());
  out.f64(lo_);
  out.f64(hi_);
  out.f64(total_);
  out.f64s(counts_);
}

void Histogram::read_state(ByteReader& in) {
  const std::uint64_t bins = in.u64();
  const double lo = in.f64();
  const double hi = in.f64();
  const double total = in.f64();
  if (bins != counts_.size() || lo != lo_ || hi != hi_) {
    in.fail("histogram geometry mismatch");
  }
  // Negated comparisons also reject NaN.
  if (!(total >= 0.0)) in.fail("negative histogram total");
  std::vector<double> counts(counts_.size());
  in.f64s(counts);
  for (const double c : counts) {
    if (!(c >= 0.0)) in.fail("negative histogram count");
  }
  counts_ = std::move(counts);
  total_ = total;
}

}  // namespace rlblh
