// SpecParams / parse_spec / Registry<T> — the scenario registry primitives.
#include "core/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/policy_registry.h"
#include "core/rlblh_policy.h"
#include "meter/household_registry.h"
#include "pricing/pricing_registry.h"
#include "util/error.h"

namespace rlblh {
namespace {

TEST(SpecParams, TypedRoundTrips) {
  SpecParams params;
  params.set("name", "value");
  params.set("rate", 11.5);
  params.set("count", std::uint64_t{42});
  params.set("flag", true);
  EXPECT_EQ(params.get_string("name", ""), "value");
  EXPECT_EQ(params.get_double("rate", 0.0), 11.5);
  EXPECT_EQ(params.get_u64("count", 0), 42u);
  EXPECT_TRUE(params.get_bool("flag", false));
  EXPECT_EQ(params.size(), 4u);
  EXPECT_FALSE(params.empty());
}

TEST(SpecParams, DoubleSurvivesCanonicalRoundTripBitwise) {
  SpecParams params;
  params.set("x", 0.1);  // not exactly representable; %.17g must round-trip
  const SpecParams reparsed = parse_spec(params.canonical());
  EXPECT_EQ(reparsed.get_double("x", 0.0), 0.1);
}

TEST(SpecParams, FallbacksWhenAbsent) {
  const SpecParams params;
  EXPECT_EQ(params.get_string("missing", "fb"), "fb");
  EXPECT_EQ(params.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(params.get_u64("missing", 9), 9u);
  EXPECT_FALSE(params.get_bool("missing", false));
  EXPECT_FALSE(params.has("missing"));
  EXPECT_TRUE(params.empty());
}

TEST(SpecParams, ReplacementKeepsInsertionOrder) {
  SpecParams params;
  params.set("a", 1.0);
  params.set("b", 2.0);
  params.set("a", 3.0);  // replaces the value, keeps the slot
  EXPECT_EQ(params.canonical(), "a=3;b=2");
}

TEST(SpecParams, BadValuesThrowConfigError) {
  SpecParams params;
  params.set("x", "not-a-number");
  EXPECT_THROW(params.get_double("x", 0.0), ConfigError);
  EXPECT_THROW(params.get_u64("x", 0), ConfigError);
  EXPECT_THROW(params.get_bool("x", false), ConfigError);
  params.set("partial", "12abc");
  EXPECT_THROW(params.get_double("partial", 0.0), ConfigError);
  // Integers are digits only: no sign to wrap, no whitespace to skip.
  for (const char* bad : {"-1", " 7", "+7", "7 ", "", "18446744073709551616"}) {
    params.set("n", bad);
    EXPECT_THROW(params.get_u64("n", 0), ConfigError) << "'" << bad << "'";
  }
  params.set("n", "18446744073709551615");
  EXPECT_EQ(params.get_u64("n", 0), 18446744073709551615ULL);
}

TEST(SpecParams, BoolAcceptsTheDocumentedSpellings) {
  SpecParams params;
  for (const char* yes : {"1", "true", "on", "yes"}) {
    params.set("v", yes);
    EXPECT_TRUE(params.get_bool("v", false)) << yes;
  }
  for (const char* no : {"0", "false", "off", "no"}) {
    params.set("v", no);
    EXPECT_FALSE(params.get_bool("v", true)) << no;
  }
}

TEST(SpecParams, AllowOnlyRejectsUnknownKeys) {
  SpecParams params;
  params.set("rate", 11.0);
  EXPECT_NO_THROW(params.allow_only({"rate", "intervals"}, "plan 'flat'"));
  params.set("typo", 1.0);
  try {
    params.allow_only({"rate", "intervals"}, "plan 'flat'");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("typo"), std::string::npos);
    EXPECT_NE(message.find("plan 'flat'"), std::string::npos);
    EXPECT_NE(message.find("rate"), std::string::npos);  // lists accepted keys
  }
}

TEST(ParseSpec, GrammarBasics) {
  const SpecParams params = parse_spec("a=1;b=two;c=3.5;");
  EXPECT_EQ(params.size(), 3u);
  EXPECT_EQ(params.get_u64("a", 0), 1u);
  EXPECT_EQ(params.get_string("b", ""), "two");
  EXPECT_EQ(params.get_double("c", 0.0), 3.5);
}

TEST(ParseSpec, EmptySegmentsIgnoredDuplicatesKeepLast) {
  EXPECT_TRUE(parse_spec("").empty());
  EXPECT_TRUE(parse_spec(";;;").empty());
  const SpecParams params = parse_spec("k=1;;k=2");
  EXPECT_EQ(params.get_u64("k", 0), 2u);
  EXPECT_EQ(params.size(), 1u);
}

TEST(ParseSpec, MalformedSegmentsThrow) {
  EXPECT_THROW(parse_spec("novalue"), ConfigError);
  EXPECT_THROW(parse_spec("=1"), ConfigError);
  EXPECT_THROW(parse_spec("a=1;bad"), ConfigError);
}

TEST(RegistryT, CreateAliasAndNames) {
  Registry<int> registry;
  registry.set_family("number");
  registry.add("two", [](const SpecParams&) { return 2; }, {"deux", "zwei"});
  registry.add("one", [](const SpecParams&) { return 1; });
  EXPECT_TRUE(registry.contains("two"));
  EXPECT_TRUE(registry.contains("deux"));
  EXPECT_FALSE(registry.contains("three"));
  EXPECT_EQ(registry.create("two", {}), 2);
  EXPECT_EQ(registry.create("zwei", {}), 2);
  // names() is sorted and hides aliases.
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"one", "two"}));
}

TEST(RegistryT, DuplicateAndUnknownNamesThrow) {
  Registry<int> registry;
  registry.set_family("number");
  registry.add("one", [](const SpecParams&) { return 1; });
  EXPECT_THROW(registry.add("one", [](const SpecParams&) { return 9; }),
               ConfigError);
  try {
    registry.create("three", {});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("number"), std::string::npos);
    EXPECT_NE(message.find("one"), std::string::npos);  // lists what exists
  }
}

// The component registries themselves: geometry keys reach the built
// configs, legacy aliases resolve, and typos fail loudly.

TEST(PolicyRegistry, GeometryAndParamsReachTheConfig) {
  SpecParams params;
  params.set("battery", 3.5);
  params.set("nd", 10);
  params.set("seed", 99);
  params.set("alpha", 0.25);
  const auto policy = make_policy("rlblh", params);
  const auto* rl = dynamic_cast<const RlBlhPolicy*>(policy.get());
  ASSERT_NE(rl, nullptr);
  EXPECT_EQ(rl->config().battery_capacity, 3.5);
  EXPECT_EQ(rl->config().decision_interval, 10u);
  EXPECT_EQ(rl->config().seed, 99u);
  EXPECT_EQ(rl->config().alpha, 0.25);
}

TEST(PolicyRegistry, LegacyAliasesResolve) {
  for (const char* name : {"rl-blh", "low-pass", "random", "passthrough"}) {
    EXPECT_NO_THROW(make_policy(name, {})) << name;
  }
  EXPECT_THROW(make_policy("rlblh-typo", {}), ConfigError);
  SpecParams bad;
  bad.set("alhpa", 0.1);  // typo'd parameter must not silently default
  EXPECT_THROW(make_policy("rlblh", bad), ConfigError);
}

TEST(PricingRegistry, PlansMatchTheirHandWiredSchedules) {
  const TouSchedule srp = make_pricing("srp", {});
  const TouSchedule reference = TouSchedule::srp_plan();
  ASSERT_EQ(srp.intervals(), reference.intervals());
  for (std::size_t n = 0; n < srp.intervals(); n += 97) {
    EXPECT_EQ(srp.rate(n), reference.rate(n)) << n;
  }
  SpecParams flat;
  flat.set("rate", 42.0);
  EXPECT_EQ(make_pricing("flat", flat).rate(0), 42.0);
  EXPECT_THROW(make_pricing("srp-typo", {}), ConfigError);
}

TEST(HouseholdRegistry, PresetsBuildAndSeedsAreHonoured) {
  const auto a = make_trace_source("default", {}, 7);
  const auto b = make_trace_source("default", {}, 7);
  const auto c = make_trace_source("weekday_heavy", {}, 7);
  const DayTrace day_a = a->next_day();
  const DayTrace day_b = b->next_day();
  const DayTrace day_c = c->next_day();
  EXPECT_EQ(day_a.total(), day_b.total());  // same preset+seed, same stream
  EXPECT_NE(day_a.total(), day_c.total());  // different preset
  EXPECT_THROW(make_trace_source("mansion", {}, 7), ConfigError);
}

}  // namespace
}  // namespace rlblh
