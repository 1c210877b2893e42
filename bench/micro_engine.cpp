// Single-core hot-path benchmark: raw SimEngine day-loop throughput.
//
// Unlike fleet_scaling (which measures the parallel fleet driver), this
// bench pins the per-core days/sec of the measurement-interval loop itself
// — trace synthesis, policy dispatch, battery stepping and cost accounting
// — one policy at a time on a single thread. Per-core day rate is the
// multiplier under every sweep and fleet number, so this is the figure the
// pulse-blocked hot path is gated on.
//
// Per policy it reports:
//   <name>_days_per_sec   timing metric (exempt from the drift gate)
//   <name>_savings_cents  deterministic total over the timed window
//                         (drift-gated: the blocked engine must reproduce
//                         the per-interval engine bit for bit)
#include "bench_main.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/lowpass.h"
#include "baselines/random_pulse.h"
#include "baselines/stepping.h"
#include "battery/battery.h"
#include "common.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "sim/engine.h"
#include "util/table.h"

#include <iostream>

namespace rlblh::bench {

const char* const kBenchName = "micro_engine";

namespace {

/// One timed scenario: a policy factory plus the battery it expects.
struct Scenario {
  const char* name;
  double battery_kwh;
  std::function<std::unique_ptr<BlhPolicy>()> make_policy;
};

std::vector<Scenario> build_scenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"rlblh", 5.0, [] {
                         RlBlhConfig config;
                         config.decision_interval = 15;
                         config.battery_capacity = 5.0;
                         config.seed = 2024;
                         // Isolate the engine loop: the REUSE/SYN replay
                         // heuristics train on virtual days outside it.
                         config.enable_reuse = false;
                         config.enable_synthetic = false;
                         return std::make_unique<RlBlhPolicy>(config);
                       }});
  scenarios.push_back({"random_pulse", 5.0, [] {
                         RlBlhConfig config;
                         config.decision_interval = 15;
                         config.battery_capacity = 5.0;
                         config.seed = 2025;
                         return std::make_unique<RandomPulsePolicy>(config);
                       }});
  scenarios.push_back({"stepping", 5.0, [] {
                         SteppingConfig config;
                         config.battery_capacity = 5.0;
                         return std::make_unique<SteppingPolicy>(config);
                       }});
  scenarios.push_back({"lowpass", 5.0, [] {
                         LowPassConfig config;
                         config.battery_capacity = 5.0;
                         return std::make_unique<LowPassPolicy>(config);
                       }});
  scenarios.push_back(
      {"none", 5.0, [] { return std::make_unique<PassthroughPolicy>(); }});
  return scenarios;
}

}  // namespace

void bench_body(BenchContext& ctx) {
  print_header("Single-core SimEngine day-loop throughput per policy");

  const int kWarmupDays = ctx.days(20, 2);
  const int kTimedDays = ctx.days(3000, 60);

  TablePrinter table({"policy", "seconds", "days/sec", "savings cents"});
  for (const Scenario& scenario : build_scenarios()) {
    std::unique_ptr<BlhPolicy> policy = scenario.make_policy();
    HouseholdTraceSource source(HouseholdConfig{}, 9001);
    const TouSchedule prices = TouSchedule::srp_plan();
    Battery battery(scenario.battery_kwh, scenario.battery_kwh / 2.0);
    SimEngine engine;
    engine.run_days(source, prices, battery, *policy,
                    static_cast<std::size_t>(kWarmupDays));

    double savings_cents = 0.0;
    const auto start = std::chrono::steady_clock::now();
    engine.run_days(source, prices, battery, *policy,
                    static_cast<std::size_t>(kTimedDays),
                    [&](std::size_t, const DayResult& day) {
                      savings_cents += day.savings_cents;
                    });
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double days_per_sec =
        seconds > 0.0 ? static_cast<double>(kTimedDays) / seconds : 0.0;

    ctx.count_cells(1);
    ctx.count_days(static_cast<std::size_t>(kTimedDays));
    table.add_row({scenario.name, TablePrinter::num(seconds, 3),
                   TablePrinter::num(days_per_sec, 1),
                   TablePrinter::num(savings_cents, 3)});
    ctx.metric(std::string(scenario.name) + "_days_per_sec", days_per_sec);
    ctx.metric(std::string(scenario.name) + "_savings_cents", savings_cents);
  }
  table.print(std::cout);

  std::printf("\nSingle-threaded day loop (%d timed days per policy after "
              "%d warm-up days); savings totals are deterministic and "
              "drift-gated.\n",
              kTimedDays, kWarmupDays);
}

}  // namespace rlblh::bench
