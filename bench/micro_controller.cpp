// Micro-benchmarks backing the paper's embedded-feasibility argument
// (Sections I, VIII): the controller must run on "a small embedded device".
// Measures the hot paths of the RL-BLH control loop.
#include <benchmark/benchmark.h>

#include "baselines/policy_registry.h"
#include "battery/battery.h"
#include "bench_main.h"
#include "core/features.h"
#include "core/qfunction.h"
#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "meter/household_registry.h"
#include "pricing/pricing_registry.h"
#include "sim/engine.h"

namespace {

using namespace rlblh;

RlBlhConfig bench_config() {
  SpecParams params;
  params.set("nd", 15);
  params.set("battery", 5.0);
  params.set("reuse", false);
  params.set("syn", false);
  params.set("seed", 7);
  return make_rlblh_config(params);
}

void BM_FeatureBasisAt(benchmark::State& state) {
  const FeatureBasis basis(96, 5.0);
  double level = 0.0;
  for (auto _ : state) {
    level += 0.001;
    if (level > 5.0) level = 0.0;
    benchmark::DoNotOptimize(basis.at(42, level));
  }
}
BENCHMARK(BM_FeatureBasisAt);

void BM_QValue(benchmark::State& state) {
  const FeatureBasis basis(96, 5.0);
  PerActionLinearQ q(8, FeatureBasis::kDim);
  const auto features = basis.at(42, 2.5);
  std::size_t a = 0;
  for (auto _ : state) {
    a = (a + 1) % 8;
    benchmark::DoNotOptimize(q.value(features, a));
  }
}
BENCHMARK(BM_QValue);

void BM_QArgmaxAllActions(benchmark::State& state) {
  const FeatureBasis basis(96, 5.0);
  PerActionLinearQ q(8, FeatureBasis::kDim);
  const auto features = basis.at(42, 2.5);
  std::vector<std::size_t> all(8);
  for (std::size_t i = 0; i < 8; ++i) all[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.argmax(features, all));
  }
}
BENCHMARK(BM_QArgmaxAllActions);

void BM_SgdUpdate(benchmark::State& state) {
  const FeatureBasis basis(96, 5.0);
  PerActionLinearQ q(8, FeatureBasis::kDim);
  const auto features = basis.at(42, 2.5);
  for (auto _ : state) {
    q.sgd_update(3, features, 0.25, 0.005);
  }
  benchmark::DoNotOptimize(q.function(3).weights().front());
}
BENCHMARK(BM_SgdUpdate);

void BM_ControllerInterval(benchmark::State& state) {
  // One measurement interval of the full controller (decision boundaries
  // amortized in), i.e. the work per meter tick on the embedded device.
  RlBlhPolicy policy(bench_config());
  const TouSchedule prices = make_pricing("srp", {});
  HouseholdModel household(make_household_config("default", {}), 5);
  DayTrace day = household.generate_day();
  std::size_t n = 0;
  double level = 2.5;
  policy.begin_day(prices);
  for (auto _ : state) {
    const double y = policy.reading(n, level);
    const double x = day.at(n);
    level = std::min(5.0, std::max(0.0, level + y - x));
    policy.observe_usage(n, x);
    ++n;
    if (n == kIntervalsPerDay) {
      policy.end_day();
      day = household.generate_day();
      policy.begin_day(prices);
      n = 0;
    }
  }
}
BENCHMARK(BM_ControllerInterval);

void BM_TrainVirtualDay(benchmark::State& state) {
  // One replayed training day (the unit of the REUSE/SYN heuristics).
  RlBlhPolicy policy(bench_config());
  const TouSchedule prices = make_pricing("srp", {});
  const auto source = make_trace_source("default", {}, 6);
  Battery battery(5.0, 2.5);
  SimEngine engine;
  // One real day establishes the price schedule.
  engine.run_day(*source, prices, battery, policy);
  HouseholdModel household(make_household_config("default", {}), 7);
  const DayTrace day = household.generate_day();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.train_virtual_day(day.values(), 2.5));
  }
}
BENCHMARK(BM_TrainVirtualDay);

void BM_FullSimulatedDay(benchmark::State& state) {
  // A whole simulated day end to end (trace generation + control + battery).
  RlBlhPolicy policy(bench_config());
  const TouSchedule prices = make_pricing("srp", {});
  const auto source = make_trace_source("default", {}, 8);
  Battery battery(5.0, 2.5);
  SimEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run_day(*source, prices, battery, policy).savings_cents);
  }
}
BENCHMARK(BM_FullSimulatedDay);

}  // namespace

namespace rlblh::bench {

const char* const kBenchName = "micro_controller";

// The harness supplies main(); google-benchmark gets the passthrough args
// (e.g. --benchmark_filter=...) and the harness records total wall time
// into BENCH_micro_controller.json.
void bench_body(BenchContext& ctx) {
  int argc = ctx.passthrough_argc();
  benchmark::Initialize(&argc, ctx.passthrough_argv());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

}  // namespace rlblh::bench
