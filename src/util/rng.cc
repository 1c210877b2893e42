#include "util/rng.h"

#include <algorithm>
#include <string>

namespace rlblh {

namespace {
constexpr std::size_t kShift = 156;  // m: offset of the word mixed in
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of `upper`, the lower 31 of `lower`,
/// shifted and XORed with `far`, plus matrix A when the word is odd. The
/// mask (0 or all ones) replaces the `odd ? A : 0` branch.
inline std::uint64_t twist(std::uint64_t upper, std::uint64_t lower,
                           std::uint64_t far) {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1U)) & kMatrixA);
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < state_size; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  pos_ = state_size;
}

void Mt19937_64::refill() {
  constexpr std::size_t n = state_size;
  result_type* const x = state_.data();
  for (std::size_t k = 0; k < n - kShift; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kShift - n]);
  }
  x[n - 1] = twist(x[n - 1], x[0], x[kShift - 1]);
  pos_ = 0;
}

void Mt19937_64::set_state(std::span<const result_type, state_size> words,
                           std::size_t position) {
  if (position > state_size) {
    throw DataError("Mt19937_64: position " + std::to_string(position) +
                    " is past the end of the state");
  }
  std::copy(words.begin(), words.end(), state_.begin());
  pos_ = position;
}

}  // namespace rlblh
