// Quickstart: protect one household with RL-BLH and report what it bought.
//
// Describes the whole run as one ScenarioSpec — the default synthetic
// household, the paper's SRP two-zone price plan, a 5 kWh battery and the
// RL-BLH controller with its paper defaults (a_M = 8 actions, alpha = 0.05,
// epsilon = 0.1, both decayed by 1/sqrt(day), REUSE + SYN heuristics) —
// trains online for a few weeks, then reports the three paper metrics —
// saving ratio, usage/reading correlation, and pairwise mutual information —
// against the unprotected meter.
#include <cstdio>

#include "core/rlblh_policy.h"
#include "sim/scenario.h"

int main() {
  using namespace rlblh;

  // 1. The run, as a spec. The same run is reachable from the CLI with
  //    --scenario "policy=rlblh;nd=15;battery=5;seed=7;hseed=42;...".
  ScenarioSpec spec;
  spec.nd = 15;            // n_D: pulse width in minutes
  spec.battery_kwh = 5.0;  // b_M in kWh
  spec.seed = 7;
  spec.hseed = 42;
  spec.train_days = 20;  // ~3 weeks of online learning
  spec.eval_days = 30;   // then a measured month

  // 2. Build and run it: components come from the scenario registry.
  Scenario scenario = build_scenario(spec);
  auto& policy = *scenario.policy_as<RlBlhPolicy>();
  const EvaluationResult rl = run_scenario(scenario);

  std::printf("RL-BLH after %zu days of online learning:\n",
              policy.days_completed() - spec.eval_days);
  std::printf("  saving ratio        : %5.1f %%\n", 100.0 * rl.saving_ratio);
  std::printf("  daily savings       : %5.2f cents (bill %.1f -> %.1f)\n",
              rl.mean_daily_savings_cents, rl.mean_daily_usage_cost_cents,
              rl.mean_daily_bill_cents);
  std::printf("  correlation (CC)    : %7.4f\n", rl.mean_cc);
  std::printf("  mutual info (MI)    : %7.4f\n", rl.normalized_mi);
  std::printf("  battery violations  : %zu\n\n", rl.battery_violations);

  // 3. One concrete day, to see the rectangular pulses.
  const DayResult day = scenario.run_day();
  std::printf("One day of meter readings (kWh per minute, every 2 hours):\n");
  for (std::size_t n = 0; n < day.readings.intervals(); n += 120) {
    std::printf("  minute %4zu: usage %.4f -> meter %.4f (battery %.2f)\n", n,
                day.usage.at(n), day.readings.at(n), day.battery_levels[n]);
  }

  std::printf("\nmaximum possible two-zone savings with this battery: "
              "%.1f cents/day\n",
              two_zone_max_daily_savings(7.04, 21.09, spec.battery_kwh));
  return 0;
}
