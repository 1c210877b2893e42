// Per-action linear action-value function (paper Eq. 13).
//
// One weight vector w^(a) per action; Q(s, a) = w^(a) . f(s). With the
// paper's defaults (a_M = 8 actions, 6 features) the whole learned state is
// 48 numbers — the complexity argument of Section VIII.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rl/linear.h"
#include "util/error.h"

namespace rlblh {

/// A family of linear functionals indexed by action.
class PerActionLinearQ {
 public:
  /// num_actions >= 1 weight vectors of the given feature dimension.
  PerActionLinearQ(std::size_t num_actions, std::size_t dimension);

  /// Number of actions.
  std::size_t num_actions() const { return functions_.size(); }

  /// Feature dimension.
  std::size_t dimension() const { return functions_.front().dimension(); }

  /// Q value of action a at the given features.
  double value(std::span<const double> features, std::size_t a) const {
    RLBLH_REQUIRE(a < functions_.size(),
                  "PerActionLinearQ: action index out of range");
    return functions_[a].value(features);
  }

  /// Action with the largest Q value among `allowed` (nonempty; ties break
  /// toward the earlier entry).
  std::size_t argmax(std::span<const double> features,
                     const std::vector<std::size_t>& allowed) const;

  /// max_{a in allowed} Q(features, a).
  double max_value(std::span<const double> features,
                   const std::vector<std::size_t>& allowed) const;

  /// SGD step on action a's weights: w += step * error * features (Eq. 18).
  void sgd_update(std::size_t a, std::span<const double> features,
                  double error, double step) {
    RLBLH_REQUIRE(a < functions_.size(),
                  "PerActionLinearQ: action index out of range");
    functions_[a].sgd_update(features, error, step);
  }

  /// Total number of learned parameters (a_M * 6 = 40-48 in the paper's
  /// complexity discussion).
  std::size_t parameter_count() const {
    return num_actions() * dimension();
  }

  /// Read access to one action's functional.
  const LinearFunction& function(std::size_t a) const;

  /// Mutable access (used by tests and by solvers that set weights directly).
  LinearFunction& function(std::size_t a);

 private:
  std::vector<LinearFunction> functions_;
};

}  // namespace rlblh
