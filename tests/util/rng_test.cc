#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/running_stats.h"

namespace rlblh {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(3.0, 2.0), ConfigError);
  EXPECT_THROW(rng.uniform_int(3, 2), ConfigError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  bool seen[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    const int v = rng.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    seen[v] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(4.0, 2.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, NormalWithZeroSigmaIsDeterministic) {
  Rng rng(2);
  EXPECT_DOUBLE_EQ(rng.normal(1.5, 0.0), 1.5);
  EXPECT_THROW(rng.normal(0.0, -1.0), ConfigError);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_THROW(rng.exponential(0.0), ConfigError);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.03);
  EXPECT_THROW(rng.bernoulli(1.5), ConfigError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  // Child and parent must not generate identical sequences afterwards.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform() == child.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}


// --- Mt19937_64 / std::mt19937_64 equivalence -----------------------------
//
// Rng runs an in-repo MT19937-64 and converts words to doubles itself. The
// contract is that nothing observable changed: the same words from the same
// seed, the same stream text (checkpoints hold it), and draws bitwise equal
// to the std:: distributions over std::mt19937_64.

const std::vector<std::uint64_t> kSeeds = {
    0,          1,          2,          5489,       123456789,
    0xFFFFFFFF, 1ULL << 32, 1ULL << 63, ~0ULL,      0xDEADBEEFCAFEF00DULL,
    42,         7,          0x9E3779B97F4A7C15ULL};

std::string text_of(const Mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

std::string text_of(const std::mt19937_64& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Mt19937_64, MatchesStdEngineAcrossRefills) {
  // 12 state blocks per seed: every word of every refill must agree.
  constexpr std::size_t kDraws = 12 * Mt19937_64::state_size + 7;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(ours(), reference()) << "draw " << i;
    }
  }
  for (std::uint64_t seed = 1000; seed < 1100; ++seed) {
    Mt19937_64 ours(seed);
    std::mt19937_64 reference(seed);
    for (std::size_t i = 0; i < 2 * Mt19937_64::state_size + 1; ++i) {
      ASSERT_EQ(ours(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Mt19937_64, StreamTextIsByteIdenticalAtEveryPosition) {
  // Fresh (position 312, refill pending), mid-block, the last word of a
  // block, and just refilled (position 1).
  const std::vector<std::size_t> positions = {0,   1,   100, 311, 312,
                                              313, 624, 625, 1000};
  for (const std::uint64_t seed : {5489ULL, 77ULL, ~0ULL}) {
    for (const std::size_t draws : positions) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " after " +
                   std::to_string(draws) + " draws");
      Mt19937_64 ours(seed);
      std::mt19937_64 reference(seed);
      for (std::size_t i = 0; i < draws; ++i) {
        ours();
        reference();
      }
      EXPECT_EQ(text_of(ours), text_of(reference));
    }
  }
}

TEST(Mt19937_64, StreamFlagsOfTheCallerAreRestored) {
  Mt19937_64 ours(3);
  std::mt19937_64 reference(3);
  std::ostringstream a;
  std::ostringstream b;
  a << std::hex << std::showbase;
  b << std::hex << std::showbase;
  a << ours << ' ' << 255;
  b << reference << ' ' << 255;
  EXPECT_EQ(a.str(), b.str());
}

TEST(Mt19937_64, StdTextLoadsAndContinuesIdentically) {
  // Old checkpoints hold std::mt19937_64 text: they must keep loading, and
  // text this engine writes must load into the standard one.
  for (const std::size_t draws : {0, 5, 312, 313, 700}) {
    SCOPED_TRACE("after " + std::to_string(draws) + " draws");
    std::mt19937_64 reference(2024);
    Mt19937_64 ours(2024);
    for (std::size_t i = 0; i < draws; ++i) {
      reference();
      ours();
    }

    Mt19937_64 loaded(0);
    std::istringstream from_std(text_of(reference));
    ASSERT_TRUE(static_cast<bool>(from_std >> loaded));
    EXPECT_EQ(loaded, ours);

    std::mt19937_64 loaded_std(0);
    std::istringstream from_ours(text_of(ours));
    ASSERT_TRUE(static_cast<bool>(from_ours >> loaded_std));
    EXPECT_EQ(loaded_std, reference);

    for (std::size_t i = 0; i < 3 * Mt19937_64::state_size; ++i) {
      const std::uint64_t expected = reference();
      ASSERT_EQ(loaded(), expected) << "draw " << i;
      ASSERT_EQ(loaded_std(), expected) << "draw " << i;
    }
  }
}

TEST(Mt19937_64, MalformedTextFailsAndLeavesTheEngineUnchanged) {
  const Mt19937_64 original(9);
  const std::string good = text_of(original);

  // Truncated: fewer than 312 words plus the position.
  Mt19937_64 engine = original;
  std::istringstream truncated(good.substr(0, good.size() / 2));
  EXPECT_FALSE(static_cast<bool>(truncated >> engine));
  EXPECT_EQ(engine, original);

  // A position past the end of the state.
  const std::string past_end = good.substr(0, good.rfind(' ')) + " 313";
  std::istringstream bad_position(past_end);
  EXPECT_FALSE(static_cast<bool>(bad_position >> engine));
  EXPECT_EQ(engine, original);

  // A non-numeric word.
  std::istringstream garbage("1 2 x");
  EXPECT_FALSE(static_cast<bool>(garbage >> engine));
  EXPECT_EQ(engine, original);
}

/// Returns one fixed word forever: drives std::generate_canonical and
/// Rng::canonical from the same bits.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  result_type word;
};

TEST(Rng, CanonicalMatchesStdGenerateCanonicalOnEdgeWords) {
  const std::uint64_t two53 = 1ULL << 53;
  const std::vector<std::uint64_t> words = {0,
                                            1,
                                            2,
                                            two53 - 1,
                                            two53,
                                            two53 + 1,
                                            (1ULL << 63) - 1,
                                            1ULL << 63,
                                            (1ULL << 63) + 1,
                                            ~0ULL - 2048,
                                            ~0ULL - 1024,  // 2^64 - 1025
                                            ~0ULL - 1023,  // 2^64 - 1024
                                            ~0ULL - 1,
                                            ~0ULL};
  for (const std::uint64_t word : words) {
    FixedWord generator{word};
    const double expected =
        std::generate_canonical<double,
                                std::numeric_limits<double>::digits>(
            generator);
    EXPECT_EQ(bits(Rng::canonical(word)), bits(expected)) << "word " << word;
    EXPECT_LT(Rng::canonical(word), 1.0) << "word " << word;
  }
  // Random words, including ones whose low half rounds away.
  std::mt19937_64 words_source(31);
  for (int i = 0; i < 100000; ++i) {
    FixedWord generator{words_source()};
    const double expected =
        std::generate_canonical<double,
                                std::numeric_limits<double>::digits>(
            generator);
    ASSERT_EQ(bits(Rng::canonical(generator.word)), bits(expected))
        << "word " << generator.word;
  }
}

TEST(Rng, DrawsMatchStdDistributionsBitwise) {
  constexpr int kDraws = 1000000;
  Rng rng(8675309);
  std::mt19937_64 reference(8675309);
  for (int i = 0; i < kDraws; ++i) {
    const double expected =
        std::uniform_real_distribution<double>(0.0, 1.0)(reference);
    ASSERT_EQ(bits(rng.uniform()), bits(expected)) << "uniform() draw " << i;
  }
  for (int i = 0; i < kDraws; ++i) {
    const double lo = (i % 7) * -0.25;
    const double hi = lo + 0.003 * (i % 11);
    const double expected =
        std::uniform_real_distribution<double>(lo, hi)(reference);
    ASSERT_EQ(bits(rng.uniform(lo, hi)), bits(expected))
        << "uniform(lo, hi) draw " << i;
  }
  for (int i = 0; i < 100000; ++i) {
    const double p = (i % 5) * 0.25;
    ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(reference))
        << "bernoulli draw " << i;
    ASSERT_EQ(rng.uniform_int(0, i % 13),
              std::uniform_int_distribution<int>(0, i % 13)(reference))
        << "uniform_int draw " << i;
  }
  EXPECT_EQ(text_of(rng.engine()), text_of(reference));
}

TEST(Rng, FillsMatchStdDistributionsBitwise) {
  constexpr std::size_t kDraws = 1000000;
  const double lo = 0.0125;
  const double hi = 0.08;
  Rng rng(4242);
  std::mt19937_64 reference(4242);
  const auto expected_draw = [&] {
    return std::uniform_real_distribution<double>(lo, hi)(reference);
  };

  std::vector<double> out(kDraws);
  rng.fill_uniform(lo, hi, out);
  for (std::size_t i = 0; i < kDraws; ++i) {
    ASSERT_EQ(bits(out[i]), bits(expected_draw())) << "fill_uniform " << i;
  }

  constexpr std::size_t kStride = 3;
  std::vector<double> strided(kStride * kDraws / 4, -1.0);
  rng.fill_uniform_strided(lo, hi, strided.data(), kStride, kDraws / 4);
  for (std::size_t i = 0; i < kDraws / 4; ++i) {
    ASSERT_EQ(bits(strided[i * kStride]), bits(expected_draw()))
        << "fill_uniform_strided " << i;
    ASSERT_EQ(strided[i * kStride + 1], -1.0);
  }

  // Lanes: each engine gives its one draw, in lane order.
  std::vector<Rng> lanes;
  std::vector<std::mt19937_64> lane_references;
  for (std::uint64_t k = 0; k < 8; ++k) {
    lanes.emplace_back(100 + k);
    lane_references.emplace_back(100 + k);
  }
  std::vector<Rng*> lane_ptrs;
  for (Rng& lane : lanes) lane_ptrs.push_back(&lane);
  std::vector<double> coins(lanes.size());
  for (std::size_t round = 0; round < kDraws / lanes.size(); ++round) {
    fill_uniform_lanes(lane_ptrs, coins);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const double expected =
          std::uniform_real_distribution<double>(0.0, 1.0)(
              lane_references[k]);
      ASSERT_EQ(bits(coins[k]), bits(expected))
          << "lane " << k << " round " << round;
    }
  }
  EXPECT_EQ(text_of(rng.engine()), text_of(reference));
}

TEST(Rng, NormalAndExponentialMatchStdOnTheSameWords) {
  Rng rng(555);
  std::mt19937_64 reference(555);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(bits(rng.normal(1.0, 0.5)),
              bits(std::normal_distribution<double>(1.0, 0.5)(reference)));
    ASSERT_EQ(bits(rng.exponential(2.0)),
              bits(std::exponential_distribution<double>(2.0)(reference)));
  }
}

}  // namespace
}  // namespace rlblh
