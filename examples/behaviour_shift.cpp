// Online adaptation to a change in the household's behaviour.
//
// Section VIII of the paper argues that RL-BLH "can handle the change in
// user behavioral pattern smoothly, since it keeps updating the weights at
// every time instance", whereas table-based MDP schemes must rebuild their
// model and decision table. This example trains the controller on a
// day-worker household, then switches the same household to a night-shift
// pattern mid-run and tracks the realized saving ratio in weekly windows:
// it dips at the shift and recovers as the weights re-adapt.
#include <cstdio>

#include "meter/household_registry.h"
#include "privacy/metrics.h"
#include "sim/scenario.h"

int main() {
  using namespace rlblh;

  // The run starts as a stock scenario (default day-worker household, SRP
  // prices, RL-BLH with permanent 1/sqrt(day) decay so adaptation never
  // stalls); the behaviour change below is applied to the live trace
  // source mid-run — exactly what a spec cannot describe.
  ScenarioSpec spec;
  spec.nd = 15;
  spec.battery_kwh = 5.0;
  spec.seed = 29;
  spec.hseed = 31;
  Scenario scenario = build_scenario(spec);

  HouseholdConfig night_shift = make_household_config("default", {});
  night_shift.wake_mean = 780.0;    // wakes ~13:00
  night_shift.leave_mean = 1260.0;  // leaves for the night shift ~21:00
  night_shift.back_mean = 1380.0;   // (returns after midnight; modeled as
  night_shift.sleep_mean = 1439.0;  //  active late and asleep into the day)

  auto& household =
      static_cast<HouseholdTraceSource&>(*scenario.source).model();

  std::printf("Weekly saving ratio around a behaviour shift "
              "(night shift starts at day 43):\n\n");
  std::printf("  %-10s %-12s %-10s\n", "days", "pattern", "SR");

  const std::size_t kWeeks = 12;
  for (std::size_t week = 0; week < kWeeks; ++week) {
    if (week == 6) household.set_config(night_shift);
    SavingRatioAccumulator sr;
    for (int d = 0; d < 7; ++d) {
      const DayResult& day = scenario.run_day();
      sr.observe_day(day.usage, day.readings, scenario.prices);
    }
    std::printf("  %3zu-%-4zu   %-12s %6.1f %%\n", week * 7 + 1,
                week * 7 + 7, week < 6 ? "day-worker" : "night-shift",
                100.0 * sr.saving_ratio());
  }

  std::printf("\nNo retraining step, no model rebuild: the weights track "
              "the new pattern online.\n");
  return 0;
}
