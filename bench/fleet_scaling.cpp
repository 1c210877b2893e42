// Fleet-scaling benchmark: throughput of the chunked FleetSimulator as the
// fleet size and worker count grow, over a heterogeneous household mix.
//
// Sweeps fleet sizes (1k/10k in quick mode, plus 100k full) and times each
// at 1 worker and at 8 workers, reporting simulated days per second and
// days per second per core (timing metrics, exempt from the drift gate;
// the per-core figure is what bench_compare.py's scaling gate watches).
// The fleet aggregates SR/CC/MI are deterministic and drift-gated — the
// same numbers whichever thread count or chunk size produced them, per
// FleetSimulator's bitwise-determinism contract, which this bench also
// asserts at every size.
#include "bench_main.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "sim/fleet.h"
#include "util/table.h"

#include <iostream>

namespace rlblh::bench {

const char* const kBenchName = "fleet_scaling";

namespace {

/// A deterministic heterogeneous fleet: cycles through the registered
/// policy/household/pricing mix, `size` households total.
std::vector<ScenarioSpec> build_fleet(std::size_t size, std::size_t train_days,
                                      std::size_t eval_days) {
  const char* const mixes[] = {
      "policy=rlblh;household=default;pricing=srp;battery=5",
      "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3",
      "policy=stepping;household=night_owl;pricing=tou3;battery=5",
      "policy=rlblh;household=ev_owner;pricing=srp;battery=7",
      "policy=none;household=apartment;pricing=flat",
      "policy=random_pulse;household=vacationer;pricing=srp;battery=4",
      "policy=rlblh;household=weekday_heavy;pricing=rtp;battery=5;"
      "pricing.seed=5",
      "policy=mdp;household=default;pricing=srp;battery=3;"
      "policy.levels=16;policy.usage_levels=8",
  };
  const std::size_t n_mixes = sizeof(mixes) / sizeof(mixes[0]);
  std::vector<ScenarioSpec> fleet;
  fleet.reserve(size);
  for (std::size_t index = 0; index < size; ++index) {
    ScenarioSpec spec = ScenarioSpec::parse(mixes[index % n_mixes]);
    spec.train_days = train_days;
    spec.eval_days = eval_days;
    fleet.push_back(std::move(spec));
  }
  return fleet;
}

}  // namespace

void bench_body(BenchContext& ctx) {
  print_header(
      "Fleet scaling: heterogeneous households over size x worker threads");

  const std::size_t kTrainDays = static_cast<std::size_t>(ctx.days(2, 1));
  // Two eval days even in quick mode: the MI estimator needs more than one
  // day per household to read above zero, and mi_mean is drift-gated.
  const std::size_t kEvalDays = 2;
  const std::uint64_t kFleetSeed = 7;
  std::vector<std::size_t> sizes = {1000, 10000};
  if (!ctx.quick()) sizes.push_back(100000);

  TablePrinter table({"households", "threads", "seconds", "days/sec",
                      "days/sec/core", "SR mean %", "CC mean", "MI mean"});
  for (const std::size_t households : sizes) {
    const std::vector<ScenarioSpec> specs =
        build_fleet(households, kTrainDays, kEvalDays);
    const std::size_t days_per_run = households * (kTrainDays + kEvalDays);
    const std::string suffix = "_h" + std::to_string(households);

    FleetResult reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      FleetOptions options;
      options.threads = threads;
      options.keep_households = false;  // aggregates only: O(1) result memory
      FleetSimulator fleet(specs, options);
      const auto start = std::chrono::steady_clock::now();
      FleetResult result = fleet.run(kFleetSeed);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      const double days_per_sec =
          seconds > 0.0 ? static_cast<double>(days_per_run) / seconds : 0.0;
      const double per_core = days_per_sec / static_cast<double>(threads);
      ctx.count_cells(households);
      ctx.count_days(days_per_run);
      table.add_row({std::to_string(households), std::to_string(threads),
                     TablePrinter::num(seconds, 3),
                     TablePrinter::num(days_per_sec, 1),
                     TablePrinter::num(per_core, 1),
                     TablePrinter::num(100.0 * result.saving_ratio.mean, 1),
                     TablePrinter::num(result.mean_cc.mean, 4),
                     TablePrinter::num(result.normalized_mi.mean, 4)});
      const std::string t = "_t" + std::to_string(threads);
      ctx.metric("days_per_sec" + t + suffix, days_per_sec);
      ctx.metric("days_per_sec_per_core" + t + suffix, per_core);
      if (threads == 1) {
        reference = std::move(result);
      } else if (result.saving_ratio.mean != reference.saving_ratio.mean ||
                 result.saving_ratio.p95 != reference.saving_ratio.p95 ||
                 result.mean_cc.mean != reference.mean_cc.mean ||
                 result.normalized_mi.mean != reference.normalized_mi.mean ||
                 result.battery_violations != reference.battery_violations) {
        std::fprintf(stderr,
                     "fleet determinism violated: %zu households, %zu-thread "
                     "aggregates differ from the 1-thread run\n",
                     households, threads);
        std::exit(1);
      }
    }

    // Aggregates are thread-count independent; gate them once per size.
    ctx.metric("sr_mean" + suffix, reference.saving_ratio.mean);
    ctx.metric("sr_p95" + suffix, reference.saving_ratio.p95);
    ctx.metric("cc_mean" + suffix, reference.mean_cc.mean);
    ctx.metric("mi_mean" + suffix, reference.normalized_mi.mean);
  }
  table.print(std::cout);

  std::printf("\n%zu train + %zu eval days per household; identical "
              "aggregates at every thread count (bitwise determinism "
              "contract, asserted above at every fleet size).\n",
              kTrainDays, kEvalDays);
}

}  // namespace rlblh::bench
