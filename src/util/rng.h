// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the library draws through an rlblh::Rng that
// the caller seeds explicitly, so that an experiment is a pure function of
// (configuration, seed). There is no global RNG state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <span>

#include "util/error.h"

namespace rlblh {

/// SplitMix64 output function (Steele, Lea & Flood): a bijective 64-bit
/// finalizer whose outputs pass BigCrush even on sequential inputs. Used to
/// whiten structured seed material before it reaches an engine.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives the seed of an independent per-entity RNG stream from a base
/// seed and an entity index (e.g. a fleet household). Two splitmix rounds
/// decorrelate both axes: adjacent base seeds and adjacent indices land in
/// unrelated regions of the 64-bit space, so a 10k-household fleet seeded
/// {base, 0..9999} shares no streams with the fleet at base+1. Pure
/// function — the same (base, index) always names the same stream.
constexpr std::uint64_t derive_stream_seed(std::uint64_t base,
                                           std::uint64_t index) {
  return splitmix64(splitmix64(base) ^ (index + 0xD1B54A32D192ED03ULL));
}

/// MT19937-64 (Matsumoto & Nishimura), word for word the generator
/// std::mt19937_64 specifies: the same seeding, the same outputs, and the
/// same stream text (312 state words then the position, space separated),
/// so state written by either loads into the other and continues
/// identically. The refill twist is branchless: the standard library's
/// `(y & 1) ? a : 0` becomes a mask, which removes a branch that
/// mispredicts on about half of the state words.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;

  /// Seeds exactly as std::mt19937_64(seed).
  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next tempered 64-bit word.
  result_type operator()() {
    if (pos_ >= state_size) refill();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

  /// Writes the state in std::mt19937_64's stream format.
  friend std::ostream& operator<<(std::ostream& out, const Mt19937_64& e);

  /// Reads the state in std::mt19937_64's stream format. Sets failbit, and
  /// leaves the engine unchanged, on malformed text or a position past the
  /// end of the state.
  friend std::istream& operator>>(std::istream& in, Mt19937_64& e);

 private:
  /// Regenerates all 312 state words and rewinds the position.
  void refill();

  std::array<result_type, state_size> state_;
  std::size_t pos_;
};

/// A seedable pseudo-random source over an Mt19937_64 with the handful of
/// draw shapes the simulators need. Every draw is bitwise what the matching
/// std:: distribution would return on a std::mt19937_64 with the same seed.
/// Copyable; copies evolve independently.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// std::generate_canonical<double, 53> of one 64-bit word: the word
  /// rounded once to double, scaled by 2^-64, and clamped below 1. The two
  /// 32-bit halves convert exactly and hi * 2^32 is exact, so the single
  /// rounding happens in the addition (also under FMA contraction), with
  /// no branch on the word's top bit.
  static double canonical(std::uint64_t word) {
    const auto hi = static_cast<double>(static_cast<std::uint32_t>(word >> 32));
    const auto lo = static_cast<double>(static_cast<std::uint32_t>(word));
    const double c = (hi * 0x1p32 + lo) * 0x1p-64;
    return c < 1.0 ? c : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  /// Uniform real in [0, 1).
  double uniform() { return canonical(engine_()); }

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    RLBLH_REQUIRE(lo <= hi, "Rng::uniform: lo must be <= hi");
    return canonical(engine_()) * (hi - lo) + lo;
  }

  /// Fills `out` with uniform reals in [lo, hi). Requires lo <= hi. Draw for
  /// draw identical to a sequence of uniform(lo, hi) calls, so batched and
  /// one-at-a-time consumption of the stream yield bitwise-identical values.
  void fill_uniform(double lo, double hi, std::span<double> out) {
    RLBLH_REQUIRE(lo <= hi, "Rng::fill_uniform: lo must be <= hi");
    const double span = hi - lo;
    for (double& v : out) v = canonical(engine_()) * span + lo;
  }

  /// Strided fill: writes `count` uniform reals in [lo, hi) to out[0],
  /// out[stride], ..., the lane-shaped counterpart of fill_uniform (a batch
  /// generator writing one household's draws straight into an interval-major
  /// SoA buffer). Draw-for-draw identical to `count` uniform(lo, hi) calls.
  void fill_uniform_strided(double lo, double hi, double* out,
                            std::size_t stride, std::size_t count) {
    RLBLH_REQUIRE(lo <= hi, "Rng::fill_uniform_strided: lo must be <= hi");
    RLBLH_REQUIRE(out != nullptr && stride >= 1,
                  "Rng::fill_uniform_strided: need a target with stride >= 1");
    const double span = hi - lo;
    for (std::size_t i = 0; i < count; ++i) {
      out[i * stride] = canonical(engine_()) * span + lo;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    RLBLH_REQUIRE(lo <= hi, "Rng::uniform_int: lo must be <= hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) {
    RLBLH_REQUIRE(sigma >= 0.0, "Rng::normal: sigma must be >= 0");
    if (sigma == 0.0) return mean;
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }

  /// Exponential draw with the given rate (> 0); mean is 1/rate.
  double exponential(double rate) {
    RLBLH_REQUIRE(rate > 0.0, "Rng::exponential: rate must be > 0");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw: true with probability p in [0, 1]. Bitwise
  /// std::bernoulli_distribution, which compares one canonical draw to p.
  bool bernoulli(double p) {
    RLBLH_REQUIRE(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0,1]");
    return canonical(engine_()) < p;
  }

  /// Derives an independent child generator; useful for giving each
  /// subcomponent its own stream so draws in one do not perturb another.
  Rng fork() { return Rng(engine_()); }

  /// Access to the underlying engine for std::distributions not wrapped here.
  Mt19937_64& engine() { return engine_; }

  /// Read access for state serialization (the stream operators round-trip
  /// the full 312-word state exactly).
  const Mt19937_64& engine() const { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Lane-batched uniform draws: out[k] is ONE uniform [0, 1) draw from
/// *rngs[k], in lane order. Each engine sees exactly the single draw it
/// would make in a scalar run — only the interleaving across lanes changes,
/// which is invisible because the engines are independent. This is the
/// primitive behind lane-native epsilon-greedy: all W exploration coins are
/// flipped in one pass instead of W virtual round-trips.
inline void fill_uniform_lanes(std::span<Rng* const> rngs,
                               std::span<double> out) {
  RLBLH_REQUIRE(rngs.size() == out.size(),
                "fill_uniform_lanes: lane counts must match");
  for (std::size_t k = 0; k < rngs.size(); ++k) {
    out[k] = rngs[k]->uniform();
  }
}

}  // namespace rlblh
