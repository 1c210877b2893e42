// Chunking-invariance property suite for the fleet executor.
//
// FleetSimulator batches households into chunks and recycles worker arenas
// across a chunk's households; its contract is that chunk size and thread
// count are pure execution details — results are bitwise identical to the
// one-cell-per-household, one-arena-per-household semantics the chunked
// path replaced. This suite pins that contract over random fleets: random
// policy/preset/pricing mixes, random train/eval schedules and MI
// geometries (so arenas must survive geometry switches mid-chunk), compared
// across chunk sizes K in {1, 7, 64, N, auto} and several thread counts.
//
// Labeled `proptest` in CTest; filter with `ctest -LE proptest` to skip, or
// scale the case count with RLBLH_PROPTEST_ITERS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/proptest.h"

namespace rlblh {
namespace {

using proptest::Domain;
using proptest::for_all;
using proptest::PropertyOptions;

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  static_assert(sizeof(out) == sizeof(value));
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

/// A random fleet: 1–10 households drawn independently from the full
/// policy/preset/pricing space, with small train/eval windows and varying
/// MI geometry so consecutive households in one chunk exercise the arena's
/// reset-or-rebuild path.
struct FleetCase {
  std::vector<ScenarioSpec> specs;
};

ScenarioSpec gen_spec(Rng& rng) {
  static const char* const kPolicies[] = {"rlblh",        "lowpass", "stepping",
                                          "random_pulse", "none",    "mdp"};
  static const char* const kHouseholds[] = {"default",   "weekday_heavy",
                                            "night_owl", "ev_owner",
                                            "vacationer", "apartment"};
  static const char* const kPricing[] = {"srp", "tou2", "tou3", "flat", "rtp"};
  ScenarioSpec spec;
  spec.policy = kPolicies[rng.uniform_int(0, 5)];
  spec.household = kHouseholds[rng.uniform_int(0, 5)];
  spec.pricing = kPricing[rng.uniform_int(0, 4)];
  if (spec.pricing == std::string("rtp")) {
    spec.pricing_params.set("seed", rng.uniform_int(1, 1000));
  }
  if (spec.policy == std::string("mdp")) {
    // Keep the offline solve small; the fleet machinery is the subject.
    spec.policy_params.set("levels", 8);
    spec.policy_params.set("usage_levels", 4);
  }
  // >= 3 kWh: the rlblh policy requires b_M >= 2 * x_M * n_D = 2.4 at the
  // default cap and decision interval.
  spec.battery_kwh = static_cast<double>(rng.uniform_int(3, 8));
  spec.train_days = static_cast<std::size_t>(rng.uniform_int(0, 2));
  spec.eval_days = static_cast<std::size_t>(rng.uniform_int(1, 2));
  spec.mi_levels = rng.bernoulli(0.5) ? 8 : 4;
  return spec;
}

Domain<FleetCase> fleet_domain() {
  Domain<FleetCase> domain;
  domain.generate = [](Rng& rng) {
    FleetCase value;
    const int n = rng.uniform_int(1, 10);
    // Draw fewer distinct specs than households and cycle them, so fleets
    // usually repeat blueprints and share cached ones.
    const int distinct = rng.uniform_int(1, n);
    std::vector<ScenarioSpec> pool;
    pool.reserve(static_cast<std::size_t>(distinct));
    for (int i = 0; i < distinct; ++i) pool.push_back(gen_spec(rng));
    value.specs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      value.specs.push_back(pool[static_cast<std::size_t>(i % distinct)]);
    }
    return value;
  };
  domain.shrink = [](const FleetCase& value) {
    std::vector<FleetCase> candidates;
    if (value.specs.size() > 1) {
      FleetCase half;
      half.specs.assign(
          value.specs.begin(),
          value.specs.begin() +
              static_cast<std::ptrdiff_t>(value.specs.size() / 2));
      candidates.push_back(std::move(half));
      FleetCase drop_last = value;
      drop_last.specs.pop_back();
      candidates.push_back(std::move(drop_last));
    }
    return candidates;
  };
  domain.describe = [](const FleetCase& value) {
    std::string out = std::to_string(value.specs.size()) + " households:";
    for (const ScenarioSpec& spec : value.specs) {
      out += "\n  " + spec.canonical();
    }
    return out;
  };
  return domain;
}

void require_bitwise_equal(const EvaluationResult& a, const EvaluationResult& b,
                           std::size_t household, const std::string& variant) {
  const std::string where =
      "household " + std::to_string(household) + " under " + variant;
  PROPTEST_CHECK(bits(a.saving_ratio) == bits(b.saving_ratio), where);
  PROPTEST_CHECK(bits(a.mean_cc) == bits(b.mean_cc), where);
  PROPTEST_CHECK(bits(a.normalized_mi) == bits(b.normalized_mi), where);
  PROPTEST_CHECK(bits(a.mean_daily_savings_cents) ==
                     bits(b.mean_daily_savings_cents),
                 where);
  PROPTEST_CHECK(bits(a.mean_daily_bill_cents) ==
                     bits(b.mean_daily_bill_cents),
                 where);
  PROPTEST_CHECK(bits(a.mean_daily_usage_cost_cents) ==
                     bits(b.mean_daily_usage_cost_cents),
                 where);
  PROPTEST_CHECK(a.battery_violations == b.battery_violations, where);
}

void require_bitwise_equal(const MetricSummary& a, const MetricSummary& b,
                           const std::string& variant) {
  PROPTEST_CHECK(bits(a.mean) == bits(b.mean), "aggregate mean " + variant);
  PROPTEST_CHECK(bits(a.p50) == bits(b.p50), "aggregate p50 " + variant);
  PROPTEST_CHECK(bits(a.p95) == bits(b.p95), "aggregate p95 " + variant);
}

TEST(FleetChunkingInvariance, ResultsIdenticalAcrossChunkSizesAndThreads) {
  const auto result = for_all(
      "fleet results are invariant to chunk size and thread count",
      fleet_domain(),
      [](const FleetCase& value, Rng& rng) {
        const auto fleet_seed =
            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
        const std::size_t n = value.specs.size();

        // Reference: serial, one household per cell — the semantics the
        // chunked executor must reproduce exactly.
        FleetOptions reference_options;
        reference_options.threads = 1;
        reference_options.chunk = 1;
        const FleetResult reference =
            FleetSimulator(value.specs, reference_options).run(fleet_seed);

        struct Variant {
          std::size_t chunk;
          std::size_t threads;
        };
        const Variant variants[] = {{7, 2},
                                    {64, 3},
                                    {n, 8},
                                    {0 /* auto */, 4},
                                    {n, 2},
                                    {n, 1}};
        for (const Variant& variant : variants) {
          FleetOptions options;
          options.threads = variant.threads;
          options.chunk = variant.chunk;
          const FleetResult chunked =
              FleetSimulator(value.specs, options).run(fleet_seed);
          const std::string label =
              "chunk=" + std::to_string(variant.chunk) +
              ",threads=" + std::to_string(variant.threads);
          PROPTEST_CHECK(chunked.households.size() == n, label);
          for (std::size_t h = 0; h < n; ++h) {
            require_bitwise_equal(reference.households[h],
                                  chunked.households[h], h, label);
          }
          require_bitwise_equal(reference.saving_ratio, chunked.saving_ratio,
                                "SR " + label);
          require_bitwise_equal(reference.mean_cc, chunked.mean_cc,
                                "CC " + label);
          require_bitwise_equal(reference.normalized_mi, chunked.normalized_mi,
                                "MI " + label);
          PROPTEST_CHECK(
              reference.battery_violations == chunked.battery_violations,
              label);
        }
      },
      PropertyOptions{/*iterations=*/50, /*base_seed=*/0xf1ee7c45eull});
  ASSERT_TRUE(result.success) << result.message;
}

}  // namespace
}  // namespace rlblh
