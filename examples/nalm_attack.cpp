// NALM attack demo: how many appliance signatures survive each BLH scheme?
//
// Mounts the edge-detection load-signature attack (privacy/nalm.h) on three
// meter streams of the same household days: the raw meter (no battery), the
// low-pass flattening baseline, and RL-BLH. Ground truth comes from the
// appliance models themselves, so the detection rate is exact. This is the
// adversary of the paper's Section I/III: the drop from raw to either BLH
// scheme is the high-frequency protection both provide.
#include <cstdio>
#include <memory>

#include "baselines/policy_registry.h"
#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "meter/household_registry.h"
#include "privacy/nalm.h"
#include "privacy/occupancy_attack.h"
#include "sim/scenario.h"

namespace {

using namespace rlblh;

/// Runs one day of `usage` through a policy with its own battery and
/// returns the effective meter stream.
DayTrace meter_stream(BlhPolicy& policy, Battery& battery,
                      const DayTrace& usage, const TouSchedule& prices) {
  DayTrace readings(usage.intervals());
  policy.begin_day(prices);
  for (std::size_t n = 0; n < usage.intervals(); ++n) {
    const double x = usage.at(n);
    double effective;
    if (policy.passthrough()) {
      (void)policy.reading(n, battery.level());
      effective = x;
    } else {
      const double y = policy.reading(n, battery.level());
      effective = y + battery.step(y, x).grid_extra;
    }
    readings.set(n, effective);
    policy.observe_usage(n, x);
  }
  policy.end_day();
  return readings;
}

}  // namespace

int main() {
  using namespace rlblh;

  const double capacity = 5.0;

  // Train RL-BLH online for two weeks first (heuristics on). The warm-up
  // scenario owns the policy, so it stays in scope for the attack days.
  ScenarioSpec rl_spec;
  rl_spec.policy = "rlblh";
  rl_spec.nd = 10;
  rl_spec.battery_kwh = capacity;
  rl_spec.seed = 3;
  rl_spec.hseed = 11;
  Scenario warmup = build_scenario(rl_spec);
  const TouSchedule& prices = warmup.prices;
  auto& rlblh = *warmup.policy_as<RlBlhPolicy>();
  warmup.run_days(14);

  SpecParams lp_params;
  lp_params.set("battery", capacity);
  const std::unique_ptr<BlhPolicy> lowpass_built =
      make_policy("lowpass", lp_params);
  BlhPolicy& lowpass = *lowpass_built;
  const std::unique_ptr<BlhPolicy> raw_built = make_policy("none", {});
  BlhPolicy& raw = *raw_built;

  Battery rl_battery(capacity, capacity / 2);
  Battery lp_battery(capacity, capacity / 2);
  Battery raw_battery(capacity, capacity / 2);

  HouseholdModel household(make_household_config("default", {}), /*seed=*/99);
  const NalmConfig attack;

  NalmScore raw_score, lp_score, rl_score;
  OccupancyScore raw_occ, lp_occ, rl_occ;
  const int kDays = 10;
  for (int d = 0; d < kDays; ++d) {
    std::vector<ApplianceEvent> truth;
    Occupancy occupancy;
    const DayTrace usage = household.generate_day(&truth, &occupancy);

    const DayTrace raw_stream = meter_stream(raw, raw_battery, usage, prices);
    const DayTrace lp_stream = meter_stream(lowpass, lp_battery, usage, prices);
    const DayTrace rl_stream = meter_stream(rlblh, rl_battery, usage, prices);

    const auto fold = [&](NalmScore& acc, const DayTrace& stream) {
      const NalmScore s =
          nalm_score(nalm_detect(stream, attack), truth, attack);
      acc.true_events += s.true_events;
      acc.detected_events += s.detected_events;
      acc.matched += s.matched;
    };
    fold(raw_score, raw_stream);
    fold(lp_score, lp_stream);
    fold(rl_score, rl_stream);

    raw_occ.merge(score_activity(infer_activity(raw_stream), occupancy));
    lp_occ.merge(score_activity(infer_activity(lp_stream), occupancy));
    rl_occ.merge(score_activity(infer_activity(rl_stream), occupancy));
  }

  std::printf("NALM edge-detection attack over %d days "
              "(threshold %.3f kWh/min):\n\n",
              kDays, attack.edge_threshold);
  std::printf("  %-10s %14s %14s %14s\n", "stream", "true events",
              "detections", "recovered");
  const auto row = [](const char* name, const NalmScore& s) {
    std::printf("  %-10s %14zu %14zu %11.1f %%\n", name, s.true_events,
                s.detected_events, 100.0 * s.detection_rate());
  };
  row("raw", raw_score);
  row("low-pass", lp_score);
  row("rl-blh", rl_score);

  std::printf("\nOccupancy-inference attack (rolling-mean threshold; "
              "0.5 = chance):\n\n");
  std::printf("  %-10s %20s\n", "stream", "balanced accuracy");
  const auto occ_row = [](const char* name, const OccupancyScore& s) {
    std::printf("  %-10s %19.1f %%\n", name, 100.0 * s.balanced_accuracy());
  };
  occ_row("raw", raw_occ);
  occ_row("low-pass", lp_occ);
  occ_row("rl-blh", rl_occ);

  std::printf("\nBoth BLH schemes suppress the load signatures the raw "
              "stream exposes, and both\npush the occupancy adversary from "
              "~80%% recovery down toward chance. With a\n5 kWh battery the "
              "flattener hides the envelope well too; the schemes separate\n"
              "at smaller batteries and under the CC metric (fig5 bench).\n");
  return 0;
}
