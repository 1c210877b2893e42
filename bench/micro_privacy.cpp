// Micro-benchmarks of the evaluation machinery: privacy metrics, the NALM
// attack, and the household trace generator. These bound how long the
// figure benches spend measuring (as opposed to simulating).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench_main.h"
#include "meter/household.h"
#include "meter/household_registry.h"
#include "privacy/correlation.h"
#include "privacy/mutual_information.h"
#include "privacy/nalm.h"

namespace {

using namespace rlblh;

DayTrace sample_day(unsigned seed) {
  HouseholdModel household(make_household_config("default", {}), seed);
  return household.generate_day();
}

void BM_HouseholdGenerateDay(benchmark::State& state) {
  HouseholdModel household(make_household_config("default", {}), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(household.generate_day().total());
  }
}
BENCHMARK(BM_HouseholdGenerateDay);

void BM_PearsonDay(benchmark::State& state) {
  const DayTrace x = sample_day(1);
  const DayTrace y = sample_day(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pearson_correlation(x, y));
  }
}
BENCHMARK(BM_PearsonDay);

/// Evaluation windows the figure benches and fleets use stay at or below
/// 120 days; BM_MiObserveDay restarts its window at this length so the
/// stored pair codes stay bounded however many iterations run.
constexpr int kObserveWindow = 120;

void BM_MiObserveDay(benchmark::State& state) {
  PairwiseMiEstimator mi(kIntervalsPerDay, 8, kDefaultUsageCap,
                         kDefaultUsageCap);
  const DayTrace x = sample_day(3);
  const DayTrace y = sample_day(4);
  for (auto _ : state) {
    if (mi.days() == kObserveWindow) {
      state.PauseTiming();
      mi.reset();
      state.ResumeTiming();
    }
    mi.observe_day(x, y);
  }
  benchmark::DoNotOptimize(mi.days());
}
BENCHMARK(BM_MiObserveDay);

/// 480 precomputed `default` household days (the usage stream) and 480
/// days of a second household (the independent reading stream).
struct WindowDays {
  std::vector<DayTrace> usage;
  std::vector<DayTrace> other;
};

const WindowDays& window_days() {
  static const WindowDays days = [] {
    WindowDays out;
    HouseholdModel usage(make_household_config("default", {}), 21);
    HouseholdModel other(make_household_config("default", {}), 22);
    for (int d = 0; d < 480; ++d) {
      out.usage.push_back(usage.generate_day());
      out.other.push_back(other.generate_day());
    }
    return out;
  }();
  return days;
}

/// Observes the first `days` window days: readings identical to the usage
/// (policy `none`) or independent of it.
void observe_window(PairwiseMiEstimator& mi, std::size_t days,
                    bool identical) {
  const WindowDays& window = window_days();
  for (std::size_t d = 0; d < days; ++d) {
    mi.observe_day(window.usage[d],
                   identical ? window.usage[d] : window.other[d]);
  }
}

/// A whole evaluation window: observe D days, then one query.
/// Args: D, identical (0/1).
void BM_MiWindow(benchmark::State& state) {
  const auto days = static_cast<std::size_t>(state.range(0));
  const bool identical = state.range(1) != 0;
  window_days();
  PairwiseMiEstimator mi(kIntervalsPerDay, 8, kDefaultUsageCap,
                         kDefaultUsageCap);
  for (auto _ : state) {
    state.PauseTiming();
    mi.reset();
    state.ResumeTiming();
    observe_window(mi, days, identical);
    benchmark::DoNotOptimize(mi.normalized_mi());
  }
}
BENCHMARK(BM_MiWindow)
    ->ArgNames({"days", "identical"})
    ->ArgsProduct({{10, 120, 480}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// The first query after D observed days (observation untimed).
/// Args: D, identical (0/1).
void BM_MiFirstQuery(benchmark::State& state) {
  const auto days = static_cast<std::size_t>(state.range(0));
  const bool identical = state.range(1) != 0;
  window_days();
  PairwiseMiEstimator mi(kIntervalsPerDay, 8, kDefaultUsageCap,
                         kDefaultUsageCap);
  for (auto _ : state) {
    state.PauseTiming();
    mi.reset();
    observe_window(mi, days, identical);
    state.ResumeTiming();
    benchmark::DoNotOptimize(mi.normalized_mi());
  }
}
BENCHMARK(BM_MiFirstQuery)
    ->ArgNames({"days", "identical"})
    ->ArgsProduct({{10, 120, 480}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_MiQuery(benchmark::State& state) {
  PairwiseMiEstimator mi(kIntervalsPerDay, 8, kDefaultUsageCap,
                         kDefaultUsageCap);
  HouseholdModel household(make_household_config("default", {}), 5);
  for (int d = 0; d < 50; ++d) {
    const DayTrace x = household.generate_day();
    mi.observe_day(x, x);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mi.normalized_mi());
  }
}
BENCHMARK(BM_MiQuery);

void BM_NalmDetectDay(benchmark::State& state) {
  const DayTrace day = sample_day(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nalm_detect(day).size());
  }
}
BENCHMARK(BM_NalmDetectDay);

}  // namespace

namespace rlblh::bench {

const char* const kBenchName = "micro_privacy";

// The harness supplies main(); google-benchmark gets the passthrough args
// and the harness records total wall time into BENCH_micro_privacy.json.
void bench_body(BenchContext& ctx) {
  int argc = ctx.passthrough_argc();
  benchmark::Initialize(&argc, ctx.passthrough_argv());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

}  // namespace rlblh::bench
