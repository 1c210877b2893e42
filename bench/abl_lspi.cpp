// Ablation: why the paper rejected LSPI (Section V, footnote 4).
//
// "The LSPI requires to compute the difference in features between two
// consecutive states (k, B_k) and (k+1, B_{k+1}), which is the same or can
// be very similar across k. This characteristic reduces the LSPI to an
// under-determined system of linear equations."
//
// We collect real transitions from the running controller, accumulate the
// per-action LSTD-Q normal equations, and report how close to singular each
// action's system is — measured, not cited. Actions that are only taken in
// the forced guard bands see almost no battery-level variation, which is
// exactly the rank deficiency the footnote describes.
#include <iostream>
#include <vector>

#include "bench_main.h"
#include "common.h"
#include "rl/lspi.h"
#include "util/table.h"

namespace rlblh::bench {

const char* const kBenchName = "abl_lspi";

void bench_body(BenchContext& ctx) {
  print_header("Ablation: LSTD-Q (LSPI core) near-singularity, footnote 4");

  Scenario scenario =
      build_scenario(paper_spec("rlblh", 15, 5.0, /*seed=*/7, /*hseed=*/900));
  const RlBlhPolicy& policy = *scenario.policy_as<RlBlhPolicy>();
  const TouSchedule& prices = scenario.prices;
  const RlBlhConfig& config = policy.config();
  const int kWarmupDays = ctx.days(30, 5);
  scenario.run_days(static_cast<std::size_t>(kWarmupDays));

  // Re-run days, recording (features, action, reward, next max features)
  // transitions by replaying the recorded day through the policy's own
  // decision structure: we reconstruct decisions from the readings. This
  // is one long serial chain (each day depends on the learner's state), so
  // it stays off the sweep pool; the harness still times and records it.
  const FeatureBasis basis(config.decisions_per_day(),
                           config.battery_capacity);
  std::vector<LstdSolver> solvers;
  for (std::size_t a = 0; a < config.num_actions; ++a) {
    solvers.emplace_back(FeatureBasis::kDim, 1.0);
  }

  const int kDays = ctx.days(40, 5);
  for (int d = 0; d < kDays; ++d) {
    const DayResult& day = scenario.run_day();
    const std::size_t n_d = config.decision_interval;
    for (std::size_t k = 0; k < config.decisions_per_day(); ++k) {
      const double level = day.battery_levels[k * n_d];
      const double magnitude = day.readings.at(k * n_d);
      // Recover the action index from the pulse magnitude.
      const auto action = static_cast<std::size_t>(
          magnitude / config.usage_cap *
              static_cast<double>(config.num_actions - 1) +
          0.5);
      double reward = 0.0;
      for (std::size_t i = 0; i < n_d; ++i) {
        const std::size_t n = k * n_d + i;
        reward += prices.rate(n) * (day.usage.at(n) - day.readings.at(n));
      }
      const auto phi = basis.at(k, level);
      std::vector<double> phi_next(FeatureBasis::kDim, 0.0);
      if (k + 1 < config.decisions_per_day()) {
        const double next_level = day.battery_levels[(k + 1) * n_d];
        const std::size_t greedy = policy.q().argmax(
            basis.at(k + 1, next_level),
            policy.allowed_actions(next_level));
        (void)greedy;  // LSTD-Q under the current policy's greedy successor
        const auto next = basis.at(k + 1, next_level);
        phi_next.assign(next.begin(), next.end());
      }
      solvers[action].add_sample({phi.begin(), phi.end()}, phi_next, reward);
    }
  }
  ctx.count_cells(1);
  ctx.count_days(static_cast<std::size_t>(kWarmupDays + kDays));

  TablePrinter table({"action", "samples", "min pivot", "solvable",
                      "solvable w/ ridge"});
  std::size_t singular = 0;
  for (std::size_t a = 0; a < solvers.size(); ++a) {
    const SolveResult plain = solvers[a].solve();
    const SolveResult ridged = solvers[a].solve(/*ridge=*/1e-3);
    if (!plain.solution.has_value()) ++singular;
    table.add_row({std::to_string(a), std::to_string(solvers[a].samples()),
                   TablePrinter::num(plain.min_pivot, 6),
                   plain.solution.has_value() ? "yes" : "NO",
                   ridged.solution.has_value() ? "yes" : "NO"});
  }
  table.print(std::cout);
  ctx.metric("singular_systems", static_cast<double>(singular));
  std::printf("\n%zu of %zu per-action systems are near-singular without "
              "regularization\n(collected from %d days of real operation); "
              "the paper drew the same conclusion\nand used the SGD update "
              "of Eq. (18) instead.\n", singular, solvers.size(), kDays);
}

}  // namespace rlblh::bench
