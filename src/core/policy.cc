#include "core/policy.h"

namespace rlblh {

void BlhPolicy::observe_block(std::size_t n0, std::span<const double> usage) {
  for (std::size_t i = 0; i < usage.size(); ++i) {
    observe_usage(n0 + i, usage[i]);
  }
}

}  // namespace rlblh
