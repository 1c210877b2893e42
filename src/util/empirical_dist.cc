#include "util/empirical_dist.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "util/bytes.h"

namespace rlblh {

EmpiricalDistribution::EmpiricalDistribution(double lo, double hi,
                                             std::size_t bins,
                                             std::size_t reservoir_capacity)
    : hist_(bins, lo, hi), reservoir_capacity_(reservoir_capacity) {
  RLBLH_REQUIRE(reservoir_capacity >= 1,
                "EmpiricalDistribution: reservoir capacity must be >= 1");
  reservoir_.reserve(reservoir_capacity);
}

void EmpiricalDistribution::add(double x, Rng& rng) {
  const double clamped = std::clamp(x, hist_.lo(), hist_.hi());
  hist_.add(clamped);
  ++count_;
  sum_ += clamped;
  // Vitter's algorithm R keeps a uniform sample of everything seen so far.
  if (reservoir_.size() < reservoir_capacity_) {
    reservoir_.push_back(clamped);
  } else {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(count_ - 1)));
    if (j < reservoir_capacity_) reservoir_[j] = clamped;
  }
}

double EmpiricalDistribution::mean() const {
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(count_);
}

double EmpiricalDistribution::sample(Rng& rng) const {
  RLBLH_REQUIRE(count_ >= 1, "EmpiricalDistribution: cannot sample when empty");
  if (!reservoir_.empty() && rng.uniform() < reservoir_fraction_) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(reservoir_.size() - 1)));
    return reservoir_[i];
  }
  // Draw a histogram cell proportionally to its mass, then jitter within it.
  const std::span<const double> counts = hist_.counts();
  double target = rng.uniform() * hist_.total();
  std::size_t cell = counts.size() - 1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    target -= counts[i];
    if (target <= 0.0) {
      cell = i;
      break;
    }
  }
  const double width = hist_.width();
  const double left = hist_.lo() + static_cast<double>(cell) * width;
  return left + rng.uniform() * width;
}

void EmpiricalDistribution::write_state(ByteWriter& out) const {
  out.u64(count_);
  out.f64(sum_);
  out.f64(reservoir_fraction_);
  out.u64(reservoir_.size());
  out.f64s(reservoir_);
  hist_.write_state(out);
}

void EmpiricalDistribution::read_state(ByteReader& in) {
  const std::uint64_t count = in.u64();
  const double sum = in.f64();
  const double fraction = in.f64();
  const std::uint64_t reservoir_size = in.u64();
  if (reservoir_size > reservoir_capacity_ || reservoir_size > count) {
    in.fail("reservoir of " + std::to_string(reservoir_size) +
            " values exceeds its capacity or count");
  }
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    in.fail("reservoir fraction outside [0, 1]");
  }
  std::vector<double> reservoir(reservoir_size);
  in.f64s(reservoir);
  hist_.read_state(in);  // last fallible step: unchanged when it throws
  reservoir_ = std::move(reservoir);
  reservoir_.reserve(reservoir_capacity_);
  count_ = count;
  sum_ = sum;
  reservoir_fraction_ = fraction;
}

void EmpiricalDistribution::set_reservoir_fraction(double f) {
  RLBLH_REQUIRE(f >= 0.0 && f <= 1.0,
                "EmpiricalDistribution: reservoir fraction must be in [0,1]");
  reservoir_fraction_ = f;
}

}  // namespace rlblh
