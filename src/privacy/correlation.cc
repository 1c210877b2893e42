#include "privacy/correlation.h"

#include <cmath>

#include "util/error.h"

namespace rlblh {

double pearson_correlation(std::span<const double> x,
                           std::span<const double> y) {
  RLBLH_REQUIRE(x.size() == y.size() && !x.empty(),
                "pearson_correlation: series must be nonempty and equal length");
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void CorrelationAccumulator::observe_day(std::span<const double> usage,
                                         std::span<const double> readings) {
  stats_.add(pearson_correlation(usage, readings));
}

double CorrelationAccumulator::mean_cc() const {
  if (stats_.count() == 0) return 0.0;
  return stats_.mean();
}

}  // namespace rlblh
