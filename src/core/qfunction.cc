#include "core/qfunction.h"

#include "util/error.h"

namespace rlblh {

PerActionLinearQ::PerActionLinearQ(std::size_t num_actions,
                                   std::size_t dimension) {
  RLBLH_REQUIRE(num_actions >= 1, "PerActionLinearQ: need >= 1 action");
  functions_.reserve(num_actions);
  for (std::size_t a = 0; a < num_actions; ++a) {
    functions_.emplace_back(dimension);
  }
}

std::size_t PerActionLinearQ::argmax(
    std::span<const double> features,
    const std::vector<std::size_t>& allowed) const {
  RLBLH_REQUIRE(!allowed.empty(), "PerActionLinearQ: empty action set");
  std::size_t best = allowed.front();
  double best_value = value(features, best);
  for (std::size_t i = 1; i < allowed.size(); ++i) {
    const double v = value(features, allowed[i]);
    if (v > best_value) {
      best_value = v;
      best = allowed[i];
    }
  }
  return best;
}

double PerActionLinearQ::max_value(
    std::span<const double> features,
    const std::vector<std::size_t>& allowed) const {
  return value(features, argmax(features, allowed));
}

const LinearFunction& PerActionLinearQ::function(std::size_t a) const {
  RLBLH_REQUIRE(a < functions_.size(),
                "PerActionLinearQ: action index out of range");
  return functions_[a];
}

LinearFunction& PerActionLinearQ::function(std::size_t a) {
  RLBLH_REQUIRE(a < functions_.size(),
                "PerActionLinearQ: action index out of range");
  return functions_[a];
}

}  // namespace rlblh
