#include "rl/linear.h"

namespace rlblh {

LinearFunction::LinearFunction(std::size_t dimension)
    : weights_(dimension, 0.0) {
  RLBLH_REQUIRE(dimension >= 1, "LinearFunction: dimension must be >= 1");
}

LinearFunction::LinearFunction(std::vector<double> weights)
    : weights_(std::move(weights)) {
  RLBLH_REQUIRE(!weights_.empty(), "LinearFunction: dimension must be >= 1");
}

void LinearFunction::set_weights(std::vector<double> weights) {
  RLBLH_REQUIRE(weights.size() == weights_.size(),
                "LinearFunction: dimension mismatch");
  weights_ = std::move(weights);
}

}  // namespace rlblh
