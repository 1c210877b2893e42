#include "util/rng.h"

#include <istream>
#include <ostream>

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

std::ostream& operator<<(std::ostream& out, const Mt19937_64& e) {
  // The flags, fill and separators libstdc++ uses, so the text (and every
  // checkpoint holding it) is byte-identical to std::mt19937_64's.
  const auto flags = out.flags();
  const auto fill = out.fill();
  out.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  out.fill(' ');
  for (const Mt19937_64::result_type word : e.state_) out << word << ' ';
  out << e.pos_;
  out.flags(flags);
  out.fill(fill);
  return out;
}

std::istream& operator>>(std::istream& in, Mt19937_64& e) {
  const auto flags = in.flags();
  in.flags(std::ios_base::dec | std::ios_base::skipws);
  Mt19937_64 parsed = e;
  for (Mt19937_64::result_type& word : parsed.state_) in >> word;
  in >> parsed.pos_;
  if (in && parsed.pos_ > Mt19937_64::state_size) {
    in.setstate(std::ios_base::failbit);
  }
  if (in) e = parsed;
  in.flags(flags);
  return in;
}

}  // namespace rlblh
