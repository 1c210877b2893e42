#include "util/empirical_dist.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

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

void EmpiricalDistribution::save(std::ostream& out) const {
  const auto precision = out.precision(17);
  out << "edist " << count_ << ' ' << sum_ << ' ' << reservoir_fraction_
      << ' ' << reservoir_.size() << '\n';
  for (std::size_t i = 0; i < reservoir_.size(); ++i) {
    if (i > 0) out << ' ';
    out << reservoir_[i];
  }
  if (!reservoir_.empty()) out << '\n';
  out.precision(precision);
  hist_.save(out);
}

void EmpiricalDistribution::load(std::istream& in) {
  std::string word;
  std::size_t count = 0, reservoir_size = 0;
  double sum = 0.0, fraction = 0.0;
  if (!(in >> word >> count >> sum >> fraction >> reservoir_size) ||
      word != "edist") {
    throw DataError("EmpiricalDistribution::load: malformed header");
  }
  if (reservoir_size > reservoir_capacity_ || reservoir_size > count ||
      fraction < 0.0 || fraction > 1.0) {
    throw DataError("EmpiricalDistribution::load: inconsistent state");
  }
  std::vector<double> reservoir(reservoir_size, 0.0);
  for (std::size_t i = 0; i < reservoir_size; ++i) {
    if (!(in >> reservoir[i])) {
      throw DataError("EmpiricalDistribution::load: malformed reservoir");
    }
  }
  hist_.load(in);
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
