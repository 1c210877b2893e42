// Feature basis for the approximate action-value function (paper Table I).
//
// Q(k, B_k, a) is approximated per action as a linear combination of six
// features of the normalized decision index K = k / k_M and the normalized
// battery level B = B_k / b_M. Table I lists the raw monomials
// [1, K, B, KB, K^2, B^2]; we evaluate the same six-dimensional function
// space in its shifted-Legendre parametrization
//
//     f = [ 1, P1(K), P1(B), P1(K) P1(B), P2(K), P2(B) ]
//     P1(t) = 2t - 1,   P2(t) = 6t^2 - 6t + 1
//
// which is related to the monomial basis by a fixed invertible linear map
// (verified by unit test), so every function the paper's basis can
// represent is representable here and vice versa. The reparametrization
// matters for the SGD update of Eq. (18): the monomials' Gram matrix over
// [0,1]^2 is Hilbert-like ill-conditioned, which made the semi-gradient
// iteration oscillate; the near-orthogonal Legendre polynomials make it
// stable (see DESIGN.md, "documented deviations", and the feature-basis
// ablation bench).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "util/error.h"

namespace rlblh {

/// Computes Table-I feature vectors for a fixed problem geometry.
class FeatureBasis {
 public:
  /// Number of features.
  static constexpr std::size_t kDim = 6;

  /// One feature vector.
  using Vector = std::array<double, kDim>;

  /// `decisions_per_day` is k_M (>= 1); `battery_capacity` is b_M (> 0).
  FeatureBasis(std::size_t decisions_per_day, double battery_capacity)
      : k_max_(decisions_per_day), capacity_(battery_capacity) {
    RLBLH_REQUIRE(decisions_per_day >= 1,
                  "FeatureBasis: decisions_per_day must be >= 1");
    RLBLH_REQUIRE(battery_capacity > 0.0,
                  "FeatureBasis: battery capacity must be > 0");
  }

  /// Feature vector at decision index k (0-based, k <= k_M so that the
  /// terminal state can also be featurized) and battery level in kWh.
  /// Inline: the replay loop evaluates it once per decision.
  Vector at(std::size_t k, double battery_level) const {
    RLBLH_REQUIRE(k <= k_max_, "FeatureBasis: decision index out of range");
    const double kk = static_cast<double>(k) / static_cast<double>(k_max_);
    const double bb = std::clamp(battery_level / capacity_, 0.0, 1.0);
    const double p1k = 2.0 * kk - 1.0;
    const double p1b = 2.0 * bb - 1.0;
    const double p2k = 6.0 * kk * kk - 6.0 * kk + 1.0;
    const double p2b = 6.0 * bb * bb - 6.0 * bb + 1.0;
    return {1.0, p1k, p1b, p1k * p1b, p2k, p2b};
  }

  /// k_M used for normalization.
  std::size_t decisions_per_day() const { return k_max_; }

  /// b_M used for normalization.
  double battery_capacity() const { return capacity_; }

 private:
  std::size_t k_max_;
  double capacity_;
};

}  // namespace rlblh
