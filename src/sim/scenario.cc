#include "sim/scenario.h"

#include <utility>
#include <vector>

#include "baselines/mdp.h"
#include "baselines/policy_registry.h"
#include "meter/household_registry.h"
#include "obs/obs.h"
#include "pricing/pricing_registry.h"
#include "sim/engine.h"
#include "util/error.h"
#include "util/rng.h"

namespace rlblh {

namespace {

const std::vector<std::string> kTopLevelKeys = {
    "policy", "household", "pricing", "battery", "nd",
    "seed",   "hseed",     "train",   "eval",    "mi"};

/// The policy's parameter bag: the shared geometry first, then the dotted
/// `policy.*` overrides on top (so a pinned policy.seed wins and stays).
SpecParams policy_bag(const ScenarioSpec& spec) {
  SpecParams bag;
  bag.set("battery", spec.battery_kwh);
  bag.set("nd", spec.nd);
  bag.set("seed", spec.seed);
  for (const auto& key : spec.policy_params.keys()) {
    bag.set(key, spec.policy_params.get_string(key, ""));
  }
  return bag;
}

/// The household's policy from its blueprint: `policy_seed` goes into the
/// bag unless the spec pinned `policy.seed`, whose dotted override wins as
/// it does in make_scenario_policy.
std::unique_ptr<BlhPolicy> make_blueprint_policy(const ScenarioSpec& spec,
                                                 const ScenarioBlueprint& bp,
                                                 std::uint64_t policy_seed) {
  if (bp.policy_seed_pinned) return make_policy(spec.policy, bp.policy_bag);
  SpecParams bag = bp.policy_bag;
  bag.set("seed", policy_seed);
  return make_policy(spec.policy, bag);
}

/// Offline pre-training for the mdp baseline: max(train_days, 1) days from
/// the trainer stream derive_stream_seed(household_seed, 1), built by the
/// blueprint's household, then solve. No-op for every other policy.
void pretrain_from(const ScenarioSpec& spec, const ScenarioBlueprint& bp,
                   std::uint64_t household_seed, const TouSchedule& prices,
                   BlhPolicy& policy) {
  auto* mdp = dynamic_cast<MdpBlhPolicy*>(&policy);
  if (mdp == nullptr || mdp->solved()) return;
  const std::size_t days = spec.train_days > 0 ? spec.train_days : 1;
  auto trainer = make_blueprint_source(
      spec, bp, derive_stream_seed(household_seed, 1));
  for (std::size_t d = 0; d < days; ++d) {
    mdp->observe_training_day(trainer->next_day(), prices);
  }
  mdp->solve();
}

/// The one household schedule. It leases the accumulator first, so a bad
/// `mi` fails before pre-training or any day (building it draws no
/// randomness), pre-trains, calls `set_up()`, runs the train_days, then
/// folds the eval_days into the paper's metrics.
template <typename SetUp>
EvaluationResult run_schedule(const ScenarioSpec& spec,
                              const ScenarioBlueprint& bp,
                              std::uint64_t household_seed,
                              TraceSource& source, const TouSchedule& prices,
                              Battery& battery, BlhPolicy& policy,
                              RunArena& arena, const SetUp& set_up) {
  RLBLH_REQUIRE(spec.eval_days >= 1,
                "scenario run: need at least one evaluation day");
  EvaluationAccumulator& accumulator = arena.accumulator(
      source.intervals(), spec.mi_levels, source.usage_cap());
  pretrain_from(spec, bp, household_seed, prices, policy);
  set_up();

  SimEngine& engine = arena.engine();
  if (spec.train_days > 0) {
    engine.run_days(source, prices, battery, policy, spec.train_days);
  }
  engine.run_days(source, prices, battery, policy, spec.eval_days,
                  [&](std::size_t, const DayResult& day) {
                    accumulator.observe_day(day, prices);
                  });
  return accumulator.result();
}

}  // namespace

ScenarioSpec ScenarioSpec::parse(const std::string& spec) {
  const SpecParams params = parse_spec(spec);
  ScenarioSpec out;
  for (const auto& key : params.keys()) {
    const std::size_t dot = key.find('.');
    if (dot == std::string::npos) continue;
    const std::string prefix = key.substr(0, dot);
    const std::string subkey = key.substr(dot + 1);
    if (subkey.empty()) {
      throw ConfigError("spec key '" + key + "' has an empty component key");
    }
    const std::string value = params.get_string(key, "");
    if (prefix == "policy") {
      out.policy_params.set(subkey, value);
    } else if (prefix == "household") {
      out.household_params.set(subkey, value);
    } else if (prefix == "pricing") {
      out.pricing_params.set(subkey, value);
    } else {
      throw ConfigError("spec key '" + key +
                        "': unknown component prefix '" + prefix +
                        "' (use policy.*, household.* or pricing.*)");
    }
  }
  // Validate the remaining (top-level) keys in one pass; dotted keys were
  // consumed above, so strip them before the check.
  SpecParams top;
  for (const auto& key : params.keys()) {
    if (key.find('.') == std::string::npos) {
      top.set(key, params.get_string(key, ""));
    }
  }
  top.allow_only(kTopLevelKeys, "scenario spec");
  out.policy = top.get_string("policy", out.policy);
  out.household = top.get_string("household", out.household);
  out.pricing = top.get_string("pricing", out.pricing);
  out.battery_kwh = top.get_double("battery", out.battery_kwh);
  out.nd = top.get_size("nd", out.nd);
  out.seed = top.get_u64("seed", out.seed);
  if (top.has("hseed")) out.hseed = top.get_u64("hseed", 0);
  out.train_days = top.get_size("train", out.train_days);
  out.eval_days = top.get_size("eval", out.eval_days);
  out.mi_levels = top.get_size("mi", out.mi_levels);
  return out;
}

std::string ScenarioSpec::canonical() const {
  SpecParams params;
  params.set("policy", policy);
  params.set("household", household);
  params.set("pricing", pricing);
  params.set("battery", battery_kwh);
  params.set("nd", nd);
  params.set("seed", seed);
  if (hseed.has_value()) params.set("hseed", *hseed);
  params.set("train", train_days);
  params.set("eval", eval_days);
  params.set("mi", mi_levels);
  for (const auto& key : policy_params.keys()) {
    params.set("policy." + key, policy_params.get_string(key, ""));
  }
  for (const auto& key : household_params.keys()) {
    params.set("household." + key, household_params.get_string(key, ""));
  }
  for (const auto& key : pricing_params.keys()) {
    params.set("pricing." + key, pricing_params.get_string(key, ""));
  }
  return params.canonical();
}

TouSchedule make_scenario_pricing(const ScenarioSpec& spec) {
  return make_pricing(spec.pricing, spec.pricing_params);
}

std::unique_ptr<TraceSource> make_scenario_source(const ScenarioSpec& spec) {
  return make_trace_source(spec.household, spec.household_params,
                           spec.household_seed());
}

std::unique_ptr<BlhPolicy> make_scenario_policy(const ScenarioSpec& spec) {
  return make_policy(spec.policy, policy_bag(spec));
}

void pretrain_if_needed(const ScenarioSpec& spec, const TouSchedule& prices,
                        BlhPolicy& policy) {
  // A blueprint without a resolved household builds the trainer through
  // the household registry.
  pretrain_from(spec, ScenarioBlueprint{}, spec.household_seed(), prices,
                policy);
}

ScenarioBlueprint make_scenario_blueprint(const ScenarioSpec& spec) {
  ScenarioBlueprint bp;
  if (spec.household != "csv") {
    bp.household =
        make_household_config(spec.household, spec.household_params);
  }
  bp.policy_bag = policy_bag(spec);
  bp.policy_seed_pinned = spec.policy_params.has("seed");
  return bp;
}

std::unique_ptr<TraceSource> make_blueprint_source(const ScenarioSpec& spec,
                                                   const ScenarioBlueprint& bp,
                                                   std::uint64_t hseed) {
  if (!bp.household.has_value()) {
    // csv replay (or any future config-less source): the registry factory
    // is the source of truth and the seed is ignored there.
    return make_trace_source(spec.household, spec.household_params, hseed);
  }
  return std::make_unique<HouseholdTraceSource>(*bp.household, hseed);
}

EvaluationAccumulator& RunArena::accumulator(std::size_t intervals,
                                             std::size_t mi_levels,
                                             double usage_cap) {
  return accumulator_.emplace(intervals, mi_levels, usage_cap);
}

EvaluationResult run_blueprint(const ScenarioSpec& spec,
                               const ScenarioBlueprint& bp,
                               const TouSchedule& prices,
                               std::uint64_t policy_seed,
                               std::uint64_t household_seed, RunArena& arena) {
  RLBLH_OBS_NOW(setup_start);
  const std::unique_ptr<TraceSource> source =
      make_blueprint_source(spec, bp, household_seed);
  const std::unique_ptr<BlhPolicy> policy =
      make_blueprint_policy(spec, bp, policy_seed);
  Battery battery(spec.battery_kwh, spec.battery_kwh / 2.0);
  return run_schedule(spec, bp, household_seed, *source, prices, battery,
                      *policy, arena, [&] {
                        RLBLH_OBS_COUNT_NS_SINCE("fleet.setup_ns",
                                                 setup_start);
                      });
}

EvaluationResult run_spec(const ScenarioSpec& spec,
                          const TouSchedule& prices) {
  RunArena arena;
  return run_blueprint(spec, make_scenario_blueprint(spec), prices, spec.seed,
                       spec.household_seed(), arena);
}

Scenario build_scenario(const ScenarioSpec& spec) {
  ScenarioBlueprint bp = make_scenario_blueprint(spec);
  TouSchedule prices = make_scenario_pricing(spec);
  std::unique_ptr<TraceSource> source =
      make_blueprint_source(spec, bp, spec.household_seed());
  RLBLH_REQUIRE(prices.intervals() == source->intervals(),
                "build_scenario: price schedule length must match the day "
                "length");
  std::unique_ptr<BlhPolicy> policy =
      make_blueprint_policy(spec, bp, spec.seed);
  return Scenario{spec,
                  std::move(bp),
                  std::move(prices),
                  std::move(source),
                  Battery(spec.battery_kwh, spec.battery_kwh / 2.0),
                  std::move(policy),
                  {}};
}

EvaluationResult run_scenario(Scenario& scenario) {
  return run_schedule(scenario.spec, scenario.blueprint,
                      scenario.spec.household_seed(), *scenario.source,
                      scenario.prices, scenario.battery, *scenario.policy,
                      scenario.arena, [] {});
}

}  // namespace rlblh
