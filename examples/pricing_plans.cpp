// Cost savings under different tariff structures.
//
// The paper argues (Sections I-II) that RL-BLH handles any per-interval
// price signal, not just the two-zone plan of its evaluation: the Q-learning
// target uses the actual r_n at every interval. This example trains the same
// controller under three tariffs — the SRP two-zone plan, a three-zone
// off/semi/peak plan, and hourly real-time pricing — and reports the saving
// ratio achieved under each. Tariffs are selected by pricing-registry name,
// so switching plans changes one field of the scenario spec.
#include <cstdio>
#include <string>

#include "sim/scenario.h"

namespace {

using namespace rlblh;

void run_plan(const std::string& label, const std::string& plan,
              const SpecParams& plan_params) {
  ScenarioSpec spec;
  spec.nd = 15;
  spec.battery_kwh = 5.0;
  spec.seed = 17;
  spec.hseed = 23;
  spec.train_days = 25;
  spec.eval_days = 40;
  spec.pricing = plan;
  spec.pricing_params = plan_params;

  Scenario scenario = build_scenario(spec);
  const TouSchedule& prices = scenario.prices;
  const EvaluationResult r = run_scenario(scenario);

  std::printf("  %-12s rates %5.2f..%5.2f c/kWh | SR %5.1f %% | "
              "%6.2f cents/day | CC %7.4f\n",
              label.c_str(), prices.min_rate(), prices.max_rate(),
              100.0 * r.saving_ratio, r.mean_daily_savings_cents, r.mean_cc);
}

}  // namespace

int main() {
  using namespace rlblh;

  std::printf("RL-BLH cost savings across tariff structures "
              "(5 kWh battery, n_D = 15):\n\n");

  run_plan("two-zone", "srp", {});
  run_plan("three-zone", "tou3", {});

  SpecParams rtp;
  rtp.set("seed", 5);
  run_plan("hourly-rtp", "rtp", rtp);

  std::printf("\nThe same controller (no re-configuration) exploits "
              "whatever price spread the tariff offers.\n");
  return 0;
}
