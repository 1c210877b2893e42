// Scenario assembly: from a spec string to a runnable experiment.
//
// A ScenarioSpec is the complete, serializable description of one run —
// which policy, household and pricing plan (by registry name), the shared
// geometry (battery, nd), the RNG seeds and the train/eval schedule:
//
//   policy=rlblh;household=weekday_heavy;pricing=tou2;battery=13.5;seed=7
//
// Dotted keys (`policy.alpha=0.01`, `household.scale=1.2`,
// `pricing.rate=11`) are routed to the named component's factory; every
// other key must be one of the top-level keys below. The spec round-trips
// through canonical(): parse(s.canonical()) describes the same run.
//
// Component construction goes through the per-family registries
// (policy_registry, household_registry, pricing_registry), so this is the
// single place that decides how the geometry is shared between them:
// the policy's parameter bag receives battery/nd/seed before the dotted
// `policy.*` overrides, the trace source is seeded with the household seed
// (hseed, default seed + 1000 — the convention simulate_cli has always
// used), and the battery starts at half charge.
//
// Every number the paper reports has one shape, Algorithm 1's online day
// loop followed by SR, CC and MI (Eqs. 20-22) over an evaluation window.
// That schedule is written once: run_scenario runs it on a Scenario that
// owns its household, and run_blueprint on a fleet household that borrows
// the shared price schedule and its worker's RunArena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "battery/battery.h"
#include "core/policy.h"
#include "core/registry.h"
#include "meter/household.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/day_result.h"
#include "sim/engine.h"
#include "sim/experiment.h"

namespace rlblh {

/// Parsed scenario description. Field defaults mirror simulate_cli's
/// historical defaults, so an empty spec is the paper's small smoke run.
struct ScenarioSpec {
  std::string policy = "rlblh";       ///< policy registry name
  std::string household = "default";  ///< household registry name (or csv)
  std::string pricing = "srp";        ///< pricing registry name
  double battery_kwh = 5.0;           ///< b_M; battery starts at b_M / 2
  std::size_t nd = 15;                ///< n_D, minutes per decision interval
  std::uint64_t seed = 7;             ///< policy/exploration seed
  std::optional<std::uint64_t> hseed; ///< household seed; default seed + 1000
  std::size_t train_days = 30;        ///< days run before measurement
  std::size_t eval_days = 30;         ///< days over which metrics accumulate
  std::size_t mi_levels = 8;          ///< MI levels; runs need 2..16

  SpecParams policy_params;     ///< dotted `policy.*` slice
  SpecParams household_params;  ///< dotted `household.*` slice
  SpecParams pricing_params;    ///< dotted `pricing.*` slice

  /// Effective household/trace seed.
  std::uint64_t household_seed() const { return hseed.value_or(seed + 1000); }

  /// Parses the `k=v;k2=v2` grammar. Unknown top-level keys and unknown
  /// dotted prefixes raise ConfigError.
  static ScenarioSpec parse(const std::string& spec);

  /// Canonical spec string: parse(canonical()) describes the same run.
  /// hseed is printed only when it was set explicitly, preserving the
  /// seed + 1000 coupling under seed changes.
  std::string canonical() const;
};

/// The spec's price schedule, via the pricing registry.
TouSchedule make_scenario_pricing(const ScenarioSpec& spec);

/// The spec's trace source, via the household registry, seeded with the
/// household seed.
std::unique_ptr<TraceSource> make_scenario_source(const ScenarioSpec& spec);

/// The spec's policy, via the policy registry, with the shared geometry
/// (battery, nd, seed) merged into the parameter bag before the dotted
/// `policy.*` overrides (so `policy.seed=...` wins over the top-level seed).
std::unique_ptr<BlhPolicy> make_scenario_policy(const ScenarioSpec& spec);

/// Pre-trains policies that need an offline usage model before they can act
/// (the mdp baseline): feeds max(train_days, 1) days drawn from an
/// independent trainer stream — derive_stream_seed(household_seed(), 1), so
/// the model never consumes the evaluation household's own days — then
/// solves. No-op for every online policy.
void pretrain_if_needed(const ScenarioSpec& spec, const TouSchedule& prices,
                        BlhPolicy& policy);

/// The seed-independent part of a spec, resolved once and shared by every
/// household that runs the same spec text (fleets repeat a handful of spec
/// blueprints across thousands of households, so registry lookup, preset
/// construction and geometry merging must not be per-household work).
struct ScenarioBlueprint {
  /// Resolved household preset with `household.*` overrides applied;
  /// nullopt for csv replay, which has no synthetic config (csv runs fall
  /// back to the registry factory, which ignores the seed anyway).
  std::optional<HouseholdConfig> household;
  /// Policy parameter bag with the shared geometry (battery, nd) and the
  /// dotted `policy.*` overrides merged. The `seed` entry is a placeholder
  /// unless the spec pinned it via `policy.seed=...`.
  SpecParams policy_bag;
  /// True when `policy.seed` was given explicitly — the per-household
  /// policy seed must NOT overwrite it (matching make_scenario_policy's
  /// merge order, where dotted overrides win over the top-level seed).
  bool policy_seed_pinned = false;
};

/// Resolves the spec's seed-independent state. Pure function of the spec's
/// non-seed fields: two specs differing only in seed/hseed share one
/// blueprint.
ScenarioBlueprint make_scenario_blueprint(const ScenarioSpec& spec);

/// The blueprint's trace source for one household seed. Bitwise equivalent
/// to make_trace_source(spec.household, spec.household_params, hseed).
std::unique_ptr<TraceSource> make_blueprint_source(const ScenarioSpec& spec,
                                                   const ScenarioBlueprint& bp,
                                                   std::uint64_t hseed);

/// Reusable per-worker scratch for repeated run_blueprint calls (and a
/// Scenario's own days): the SimEngine (whose day buffers persist across
/// households) and the EvaluationAccumulator (rebuilt per run: it holds
/// only per-day MI pair codes and a few KB of query scratch). One arena
/// serves one worker thread; runs borrow it sequentially. Every buffer
/// handed out is either fully overwritten per day (engine scratch) or
/// freshly constructed per run (accumulator), so reuse cannot leak state
/// between households — the chunking-invariance proptests pin this.
class RunArena {
 public:
  /// The arena's engine. Day buffers are reused across calls; SimEngine's
  /// contract is that every slot is rewritten each day.
  SimEngine& engine() { return engine_; }

  /// A freshly constructed accumulator for the given geometry; throws
  /// ConfigError for a bad `mi_levels`.
  EvaluationAccumulator& accumulator(std::size_t intervals,
                                     std::size_t mi_levels, double usage_cap);

 private:
  SimEngine engine_;
  std::optional<EvaluationAccumulator> accumulator_;
};

/// One household assembled from a spec, owning everything its days touch:
/// the spec and its blueprint, the price schedule, the trace source
/// (seeded with the household seed), the battery (starting at b_M / 2),
/// the policy and the RunArena whose engine runs the days. run_scenario()
/// runs the spec's schedule on it; run_day() and run_days() drive it day
/// by day for training phases, traces and custom metrics. State carries
/// over between calls as it would in a real household.
struct Scenario {
  ScenarioSpec spec;
  ScenarioBlueprint blueprint;
  TouSchedule prices;
  std::unique_ptr<TraceSource> source;
  Battery battery;
  std::unique_ptr<BlhPolicy> policy;
  RunArena arena;

  /// Runs one day. The record is the engine's reused scratch, valid until
  /// the next day on this scenario: copy it to keep it.
  const DayResult& run_day() {
    return arena.engine().run_day(*source, prices, battery, *policy);
  }

  /// Runs `days` consecutive days and returns the last one's record; when
  /// set, `on_day` observes every day's record in order.
  const DayResult& run_days(std::size_t days,
                            const SimEngine::DayCallback& on_day = nullptr) {
    return arena.engine().run_days(*source, prices, battery, *policy, days,
                                   on_day);
  }

  /// The policy downcast to a concrete type (nullptr when it is not one),
  /// for callers needing policy-specific hooks (weights I/O, day stats).
  template <typename T>
  T* policy_as() {
    return dynamic_cast<T*>(policy.get());
  }
};

/// Builds the spec's household through its blueprint: the same source and
/// policy run_spec would build for the spec's seeds.
Scenario build_scenario(const ScenarioSpec& spec);

/// Runs the spec's schedule on the scenario, from its current state: the
/// evaluation accumulator is leased first (a bad `mi` fails before any
/// work), then offline pre-training when the policy needs it, train_days
/// of online-learning days, and eval_days folded into the paper's metrics.
EvaluationResult run_scenario(Scenario& scenario);

/// Runs one household from a resolved blueprint — the fleet path: the
/// blueprint supplies the spec-shared state, `policy_seed` /
/// `household_seed` the per-household RNG streams, `prices` the shared
/// schedule and `arena` the worker's reusable scratch. The same schedule
/// as run_scenario, and bitwise equal to it on the spec with seed =
/// policy_seed and hseed = household_seed. While observability records,
/// the household's set-up (source, policy, accumulator lease and
/// pre-training) is added to `fleet.setup_ns`.
EvaluationResult run_blueprint(const ScenarioSpec& spec,
                               const ScenarioBlueprint& bp,
                               const TouSchedule& prices,
                               std::uint64_t policy_seed,
                               std::uint64_t household_seed, RunArena& arena);

/// One household of the spec through run_blueprint, borrowing the price
/// schedule (one immutable TouSchedule can serve every household on the
/// same plan). Bitwise equal to build_scenario + run_scenario.
EvaluationResult run_spec(const ScenarioSpec& spec, const TouSchedule& prices);

}  // namespace rlblh
