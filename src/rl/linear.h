// Linear function approximation over fixed feature vectors.
//
// Q(s, a) is approximated as w_a . f(s) (paper Eq. 13); learning adjusts the
// weights by stochastic gradient steps w += alpha * delta * f(s) (Eq. 18).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.h"

namespace rlblh {

/// A single linear functional w . f over feature vectors of fixed dimension.
class LinearFunction {
 public:
  /// Zero-initialized weights of the given dimension (>= 1).
  explicit LinearFunction(std::size_t dimension);

  /// Starts from explicit weights.
  explicit LinearFunction(std::vector<double> weights);

  /// Feature dimension.
  std::size_t dimension() const { return weights_.size(); }

  /// Evaluates w . features. The span size must equal dimension().
  double value(std::span<const double> features) const {
    RLBLH_REQUIRE(features.size() == weights_.size(),
                  "LinearFunction: feature dimension mismatch");
    double v = 0.0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      v += weights_[i] * features[i];
    }
    return v;
  }

  /// Gradient step w += step_size * error * features (paper Eq. 18).
  void sgd_update(std::span<const double> features, double error,
                  double step_size) {
    RLBLH_REQUIRE(features.size() == weights_.size(),
                  "LinearFunction: feature dimension mismatch");
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      weights_[i] += step_size * error * features[i];
    }
  }

  /// Read access to the weights.
  const std::vector<double>& weights() const { return weights_; }

  /// Overwrites the weights (dimension must match).
  void set_weights(std::vector<double> weights);

 private:
  std::vector<double> weights_;
};

}  // namespace rlblh
