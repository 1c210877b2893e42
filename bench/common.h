// Shared plumbing for the figure-reproduction benches.
//
// Each bench binary reproduces one table or figure from the paper's
// evaluation section: it trains the policies involved, measures the same
// statistic the paper plots, and prints the series next to the paper's
// reported values so the shape comparison is immediate.
#pragma once

#include <cstdio>

#include "core/rlblh_policy.h"
#include "privacy/correlation.h"
#include "privacy/metrics.h"
#include "privacy/mutual_information.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace rlblh::bench {

/// Runs the spec's household through run_scenario: `train_days` of online
/// learning, then `eval_days` measured with learning and exploration
/// untouched (the paper's measure-while-running protocol).
inline EvaluationResult train_and_measure(ScenarioSpec spec, int train_days,
                                          int eval_days) {
  spec.train_days = static_cast<std::size_t>(train_days);
  spec.eval_days = static_cast<std::size_t>(eval_days);
  Scenario scenario = build_scenario(spec);
  return run_scenario(scenario);
}

/// Greedy (exploration- and learning-frozen) saving ratio of an RL-BLH
/// scenario's next `days` days; used where the paper reports the quality
/// of the *learned* policy. Restores the flags the caller had set rather
/// than force-enabling them.
inline double greedy_sr(Scenario& scenario, int days) {
  RlBlhPolicy& policy = *scenario.policy_as<RlBlhPolicy>();
  const bool learning_before = policy.learning_enabled();
  const bool exploration_before = policy.exploration_enabled();
  policy.set_learning_enabled(false);
  policy.set_exploration_enabled(false);
  SavingRatioAccumulator sr;
  scenario.run_days(static_cast<std::size_t>(days),
                    [&](std::size_t, const DayResult& day) {
                      sr.observe_day(day.usage, day.readings,
                                     scenario.prices);
                    });
  policy.set_learning_enabled(learning_before);
  policy.set_exploration_enabled(exploration_before);
  return sr.saving_ratio();
}

/// The paper's experiment-wide defaults (Section VII-A) as a scenario spec:
/// the named policy with n_D, b_M and the two seed streams set, household
/// and pricing at their registry defaults (default synthetic household,
/// SRP two-zone plan). Benches tune variants via spec.policy_params.
inline ScenarioSpec paper_spec(const char* policy, std::size_t nd,
                               double battery_capacity, std::uint64_t seed,
                               std::uint64_t household_seed) {
  ScenarioSpec spec;
  spec.policy = policy;
  spec.nd = nd;
  spec.battery_kwh = battery_capacity;
  spec.seed = seed;
  spec.hseed = household_seed;
  return spec;
}

inline void print_header(const char* what) {
  std::printf(
      "================================================================\n");
  std::printf("%s\n", what);
  std::printf(
      "================================================================\n");
}

}  // namespace rlblh::bench
