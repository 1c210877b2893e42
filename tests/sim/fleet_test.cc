// FleetSimulator's contracts: per-household RNG streams are reproducible
// and collision-free, a 1-household fleet is the plain build_scenario +
// run_scenario path, and fleet results are bitwise identical across thread
// counts.
#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <vector>

#include "sim/scenario.h"
#include "util/error.h"

namespace rlblh {
namespace {

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  static_assert(sizeof(out) == sizeof(value));
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

void expect_bitwise_equal(const EvaluationResult& a,
                          const EvaluationResult& b) {
  EXPECT_EQ(bits(a.saving_ratio), bits(b.saving_ratio));
  EXPECT_EQ(bits(a.mean_cc), bits(b.mean_cc));
  EXPECT_EQ(bits(a.normalized_mi), bits(b.normalized_mi));
  EXPECT_EQ(bits(a.mean_daily_savings_cents), bits(b.mean_daily_savings_cents));
  EXPECT_EQ(bits(a.mean_daily_bill_cents), bits(b.mean_daily_bill_cents));
  EXPECT_EQ(bits(a.mean_daily_usage_cost_cents),
            bits(b.mean_daily_usage_cost_cents));
  EXPECT_EQ(a.battery_violations, b.battery_violations);
}

void expect_bitwise_equal(const MetricSummary& a, const MetricSummary& b) {
  EXPECT_EQ(bits(a.mean), bits(b.mean));
  EXPECT_EQ(bits(a.p50), bits(b.p50));
  EXPECT_EQ(bits(a.p95), bits(b.p95));
}

/// Eight quick heterogeneous households: every policy family, several
/// presets and tariffs, tiny train/eval windows.
std::vector<ScenarioSpec> mixed_fleet() {
  const char* const specs[] = {
      "policy=rlblh;household=default;pricing=srp;battery=4;train=2;eval=2",
      "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3;"
      "train=1;eval=2",
      "policy=stepping;household=night_owl;pricing=tou3;battery=5;"
      "train=1;eval=2",
      "policy=none;household=apartment;pricing=flat;train=0;eval=2",
      "policy=random_pulse;household=ev_owner;pricing=srp;battery=4;"
      "train=1;eval=2",
      "policy=mdp;household=default;pricing=srp;battery=3;train=1;eval=2;"
      "policy.levels=16;policy.usage_levels=8",
      "policy=rlblh;household=vacationer;pricing=rtp;battery=5;train=2;"
      "eval=2;pricing.seed=5",
      "policy=lowpass;household=default;pricing=srp;battery=2;train=1;eval=2",
  };
  std::vector<ScenarioSpec> fleet;
  for (const char* spec : specs) fleet.push_back(ScenarioSpec::parse(spec));
  return fleet;
}

TEST(FleetRngStreams, DerivationIsReproducible) {
  const ScenarioSpec base;
  const ScenarioSpec a = FleetSimulator::resolved_spec(base, 42, 17);
  const ScenarioSpec b = FleetSimulator::resolved_spec(base, 42, 17);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_TRUE(a.hseed.has_value());
  ASSERT_TRUE(b.hseed.has_value());
  EXPECT_EQ(*a.hseed, *b.hseed);
  // A different fleet seed or index moves both streams.
  const ScenarioSpec c = FleetSimulator::resolved_spec(base, 43, 17);
  const ScenarioSpec d = FleetSimulator::resolved_spec(base, 42, 18);
  EXPECT_NE(a.seed, c.seed);
  EXPECT_NE(*a.hseed, *c.hseed);
  EXPECT_NE(a.seed, d.seed);
  EXPECT_NE(*a.hseed, *d.hseed);
}

TEST(FleetRngStreams, NoCollisionsAcrossTenThousandHouseholds) {
  const ScenarioSpec base;
  std::unordered_set<std::uint64_t> streams;
  const std::size_t kHouseholds = 10000;
  for (std::size_t index = 0; index < kHouseholds; ++index) {
    const ScenarioSpec spec =
        FleetSimulator::resolved_spec(base, /*fleet_seed=*/42, index);
    streams.insert(spec.seed);
    streams.insert(*spec.hseed);
  }
  // Every policy seed and every household seed is distinct from all others.
  EXPECT_EQ(streams.size(), 2 * kHouseholds);
}

TEST(FleetQuantile, LinearInterpolationDefinition) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 2.0};  // unsorted input
  EXPECT_EQ(fleet_quantile(values, 0.0), 1.0);
  EXPECT_EQ(fleet_quantile(values, 1.0), 4.0);
  EXPECT_EQ(fleet_quantile(values, 0.5), 2.5);
  EXPECT_EQ(fleet_quantile({7.5}, 0.95), 7.5);
}

TEST(FleetQuantile, SingleValueIsEveryQuantile) {
  // The single-household fleet: p50 == p95 == mean == the value.
  EXPECT_EQ(fleet_quantile({-3.25}, 0.0), -3.25);
  EXPECT_EQ(fleet_quantile({-3.25}, 0.5), -3.25);
  EXPECT_EQ(fleet_quantile({-3.25}, 0.95), -3.25);
  EXPECT_EQ(fleet_quantile({-3.25}, 1.0), -3.25);
}

TEST(FleetQuantile, TwoValuesInterpolateLinearly) {
  EXPECT_EQ(fleet_quantile({2.0, 4.0}, 0.0), 2.0);
  EXPECT_EQ(fleet_quantile({2.0, 4.0}, 0.5), 3.0);
  EXPECT_EQ(fleet_quantile({4.0, 2.0}, 0.25), 2.5);  // order-independent
  EXPECT_EQ(fleet_quantile({2.0, 4.0}, 1.0), 4.0);
}

TEST(FleetQuantile, EmptyInputIsRejected) {
  EXPECT_THROW(fleet_quantile({}, 0.5), ConfigError);
}

TEST(FleetQuantile, OutOfRangeQuantileIsRejected) {
  EXPECT_THROW(fleet_quantile({1.0, 2.0}, -0.01), ConfigError);
  EXPECT_THROW(fleet_quantile({1.0, 2.0}, 1.01), ConfigError);
}

TEST(FleetQuantile, NonFiniteValuesAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fleet_quantile({1.0, nan, 2.0}, 0.5), ConfigError);
  EXPECT_THROW(fleet_quantile({inf}, 0.5), ConfigError);
  EXPECT_THROW(fleet_quantile({-inf, 0.0}, 0.5), ConfigError);
}

TEST(FleetDeterminism, OneHouseholdFleetMatchesSimulatorPath) {
  ScenarioSpec spec = ScenarioSpec::parse(
      "policy=rlblh;household=weekday_heavy;pricing=tou2;battery=4;"
      "train=2;eval=2");
  const std::uint64_t fleet_seed = 99;

  FleetSimulator fleet({spec}, FleetOptions{/*threads=*/1});
  const FleetResult result = fleet.run(fleet_seed);
  ASSERT_EQ(result.households.size(), 1u);

  // The same household through the plain build_scenario/run_scenario path,
  // seeded the way the fleet resolves index 0.
  Scenario scenario =
      build_scenario(FleetSimulator::resolved_spec(spec, fleet_seed, 0));
  const EvaluationResult single = run_scenario(scenario);

  expect_bitwise_equal(result.households[0], single);
  // With one household every aggregate collapses onto that household.
  EXPECT_EQ(bits(result.saving_ratio.mean), bits(single.saving_ratio));
  EXPECT_EQ(bits(result.saving_ratio.p50), bits(single.saving_ratio));
  EXPECT_EQ(bits(result.mean_cc.p95), bits(single.mean_cc));
  EXPECT_EQ(result.battery_violations, single.battery_violations);
}

TEST(FleetDeterminism, ThreadCountDoesNotChangeResultsBitwise) {
  const std::vector<ScenarioSpec> specs = mixed_fleet();
  const std::uint64_t fleet_seed = 7;

  FleetSimulator serial(specs, FleetOptions{/*threads=*/1});
  FleetSimulator wide(specs, FleetOptions{/*threads=*/8});
  const FleetResult a = serial.run(fleet_seed);
  const FleetResult b = wide.run(fleet_seed);

  ASSERT_EQ(a.households.size(), specs.size());
  ASSERT_EQ(b.households.size(), specs.size());
  for (std::size_t index = 0; index < specs.size(); ++index) {
    expect_bitwise_equal(a.households[index], b.households[index]);
  }
  expect_bitwise_equal(a.saving_ratio, b.saving_ratio);
  expect_bitwise_equal(a.mean_cc, b.mean_cc);
  expect_bitwise_equal(a.normalized_mi, b.normalized_mi);
  EXPECT_EQ(a.battery_violations, b.battery_violations);
}

TEST(FleetDeterminism, RunIsRepeatableOnTheSameSimulator) {
  FleetSimulator fleet(mixed_fleet(), FleetOptions{/*threads=*/2});
  const FleetResult first = fleet.run(11);
  const FleetResult second = fleet.run(11);
  ASSERT_EQ(first.households.size(), second.households.size());
  for (std::size_t index = 0; index < first.households.size(); ++index) {
    expect_bitwise_equal(first.households[index], second.households[index]);
  }
}

TEST(FleetDeterminism, ChunkSizeDoesNotChangeResultsBitwise) {
  const std::vector<ScenarioSpec> specs = mixed_fleet();
  const std::uint64_t fleet_seed = 7;

  FleetOptions per_household;
  per_household.threads = 1;
  per_household.chunk = 1;  // the old one-cell-per-household semantics
  const FleetResult reference =
      FleetSimulator(specs, per_household).run(fleet_seed);

  for (const std::size_t chunk : {std::size_t{3}, std::size_t{64},
                                  specs.size(), std::size_t{0} /* auto */}) {
    FleetOptions options;
    options.threads = 2;
    options.chunk = chunk;
    const FleetResult chunked = FleetSimulator(specs, options).run(fleet_seed);
    ASSERT_EQ(chunked.households.size(), specs.size());
    for (std::size_t index = 0; index < specs.size(); ++index) {
      expect_bitwise_equal(reference.households[index],
                           chunked.households[index]);
    }
    expect_bitwise_equal(reference.saving_ratio, chunked.saving_ratio);
    expect_bitwise_equal(reference.mean_cc, chunked.mean_cc);
    expect_bitwise_equal(reference.normalized_mi, chunked.normalized_mi);
    EXPECT_EQ(reference.battery_violations, chunked.battery_violations);
  }
}

TEST(FleetDeterminism, DroppingHouseholdResultsKeepsAggregatesBitwise) {
  const std::vector<ScenarioSpec> specs = mixed_fleet();
  FleetOptions keep;
  keep.threads = 2;
  const FleetResult full = FleetSimulator(specs, keep).run(3);

  FleetOptions drop = keep;
  drop.keep_households = false;
  const FleetResult lean = FleetSimulator(specs, drop).run(3);

  EXPECT_TRUE(lean.households.empty());
  expect_bitwise_equal(full.saving_ratio, lean.saving_ratio);
  expect_bitwise_equal(full.mean_cc, lean.mean_cc);
  expect_bitwise_equal(full.normalized_mi, lean.normalized_mi);
  EXPECT_EQ(full.battery_violations, lean.battery_violations);
}

// The blueprint cache must be seed-independent only: households sharing one
// preset (hence one cached HouseholdConfig and policy bag) but differing in
// derived seeds have to produce genuinely different traces and results.
TEST(FleetBlueprintCache, SharedPresetHouseholdsStayDistinct) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "policy=lowpass;household=default;pricing=srp;battery=4;train=0;eval=2");
  const std::size_t kHouseholds = 16;
  const std::vector<ScenarioSpec> specs(kHouseholds, spec);

  FleetSimulator fleet(specs, FleetOptions{/*threads=*/2});
  const FleetResult result = fleet.run(42);
  ASSERT_EQ(result.households.size(), kHouseholds);

  // Every household's evaluation is distinct from every other's: equal
  // bill totals across two independently seeded trace streams would mean
  // the cache leaked a seed.
  std::unordered_set<std::uint64_t> bills;
  for (const EvaluationResult& household : result.households) {
    bills.insert(bits(household.mean_daily_bill_cents));
  }
  EXPECT_EQ(bills.size(), kHouseholds);
}

TEST(FleetBlueprintCache, BlueprintSourceFollowsTheSeed) {
  const ScenarioSpec spec = ScenarioSpec::parse(
      "policy=none;household=weekday_heavy;pricing=flat;train=0;eval=1");
  const ScenarioBlueprint bp = make_scenario_blueprint(spec);
  ASSERT_TRUE(bp.household.has_value());

  // Same seed: identical first day. Different seed: a different day.
  const DayTrace a = make_blueprint_source(spec, bp, 1234)->next_day();
  const DayTrace b = make_blueprint_source(spec, bp, 1234)->next_day();
  const DayTrace c = make_blueprint_source(spec, bp, 1235)->next_day();
  ASSERT_EQ(a.intervals(), b.intervals());
  bool same_ab = true;
  bool same_ac = true;
  for (std::size_t n = 0; n < a.intervals(); ++n) {
    same_ab = same_ab && bits(a.at(n)) == bits(b.at(n));
    same_ac = same_ac && bits(a.at(n)) == bits(c.at(n));
  }
  EXPECT_TRUE(same_ab);
  EXPECT_FALSE(same_ac);
}

TEST(FleetBlueprintCache, PinnedPolicySeedSurvivesBlueprinting) {
  const ScenarioSpec pinned = ScenarioSpec::parse(
      "policy=rlblh;household=default;pricing=srp;train=0;eval=2;"
      "policy.seed=55");
  const ScenarioSpec free_seed = ScenarioSpec::parse(
      "policy=rlblh;household=default;pricing=srp;train=0;eval=2");
  EXPECT_TRUE(make_scenario_blueprint(pinned).policy_seed_pinned);
  EXPECT_FALSE(make_scenario_blueprint(free_seed).policy_seed_pinned);

  // With a pinned policy seed, the fleet's derived policy stream must not
  // displace it: the run matches the plain path on the resolved spec, where
  // the dotted override wins over the top-level seed as well.
  FleetSimulator fleet({pinned}, FleetOptions{/*threads=*/1});
  const FleetResult result = fleet.run(9);
  Scenario scenario =
      build_scenario(FleetSimulator::resolved_spec(pinned, 9, 0));
  const EvaluationResult single = run_scenario(scenario);
  ASSERT_EQ(result.households.size(), 1u);
  expect_bitwise_equal(result.households[0], single);
}

// Arena reuse across households in one chunk must be invisible: a fleet of
// heterogeneous geometries (different mi_levels, day schedules) run in one
// chunk equals the same households run one chunk each.
TEST(FleetArenaReuse, GeometrySwitchesInsideAChunkAreClean) {
  std::vector<ScenarioSpec> specs = mixed_fleet();
  specs[1].mi_levels = 4;  // force an accumulator geometry change mid-chunk
  specs[4].mi_levels = 12;

  FleetOptions one_chunk;
  one_chunk.threads = 1;
  one_chunk.chunk = specs.size();
  FleetOptions per_household;
  per_household.threads = 1;
  per_household.chunk = 1;

  const FleetResult chunked = FleetSimulator(specs, one_chunk).run(5);
  const FleetResult isolated = FleetSimulator(specs, per_household).run(5);
  ASSERT_EQ(chunked.households.size(), isolated.households.size());
  for (std::size_t index = 0; index < specs.size(); ++index) {
    expect_bitwise_equal(chunked.households[index],
                         isolated.households[index]);
  }
}

}  // namespace
}  // namespace rlblh
