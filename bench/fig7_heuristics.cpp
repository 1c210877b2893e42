// Figure 7 reproduction: effect of each heuristic separately, n_D = 15,
// b_M = 5 kWh.
//
//  (7a) error curve with the synthetic-data heuristic only vs none,
//  (7b) error curve with the reuse heuristic only vs none,
//  (7c) saving ratio achieved by {none, reuse only, synthetic only, all}.
//
// Paper values for (7c): 4.2 / 8.0 / 13.0 / 15.6 percent — the ordering
// none < reuse < synthetic < all is the shape to reproduce.
#include "bench_main.h"
#include "common.h"
#include "util/table.h"

#include <algorithm>
#include <iostream>
#include <vector>

namespace rlblh::bench {

namespace {

struct Variant {
  const char* name;
  bool reuse;
  bool synthetic;
  double paper_sr;  // Figure 7c bar, %
};

struct Outcome {
  std::vector<double> error;  // normalized smoothed per-day error
  double sr = 0.0;            // greedy SR after training
};

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

Outcome run_variant(const Variant& variant, int train_days, int eval_days,
                    unsigned seed) {
  ScenarioSpec spec = paper_spec("rlblh", 15, 5.0, seed, 400 + seed);
  spec.policy_params.set("reuse", variant.reuse);
  spec.policy_params.set("syn", variant.synthetic);
  Scenario scenario = build_scenario(spec);
  scenario.run_days(static_cast<std::size_t>(train_days));
  Outcome out;
  out.sr = greedy_sr(scenario, eval_days);
  std::vector<double> raw;
  for (const auto& day : scenario.policy_as<RlBlhPolicy>()->day_stats()) {
    raw.push_back(day.mean_abs_td_error);
  }
  out.error = normalize(raw);
  return out;
}

std::string at_day(const std::vector<double>& series, int day) {
  const auto i = static_cast<std::size_t>(day - 1);
  return i < series.size() ? TablePrinter::num(series[i], 3) : "-";
}

}  // namespace

const char* const kBenchName = "fig7_heuristics";

void bench_body(BenchContext& ctx) {
  print_header("Figure 7: effect of each heuristic, n_D = 15, b_M = 5 kWh");

  const std::vector<Variant> variants = {
      {"no heuristic", false, false, 4.2},
      {"reuse only", true, false, 8.0},
      {"synthetic only", false, true, 13.0},
      {"all heuristics", true, true, 15.6},
  };
  const int kTrainDays = ctx.days(100, 8);
  const int kEvalDays = ctx.days(40, 4);
  const std::vector<unsigned> seeds = {7, 8, 9};

  const std::vector<Outcome> cells = ctx.sweep().run_grid(
      variants, seeds, [&](const Variant& variant, unsigned seed) {
        return run_variant(variant, kTrainDays, kEvalDays, seed);
      });
  ctx.count_cells(cells.size());
  ctx.count_days(cells.size() *
                 static_cast<std::size_t>(kTrainDays + kEvalDays));

  // Error curves from the first seed; SR averaged over all seeds, in grid
  // order.
  std::vector<double> sr_mean(variants.size(), 0.0);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      sr_mean[v] +=
          cells[v * seeds.size() + s].sr / static_cast<double>(seeds.size());
    }
  }

  std::printf("(a)(b) normalized smoothed error over the first %d days\n",
              kTrainDays);
  TablePrinter error_table({"day", "none", "reuse only", "syn only", "all"});
  for (int day : {1, 2, 4, 6, 8, 10, 15, 20, 30, 40, 60, 80, 100}) {
    if (day > kTrainDays) break;
    error_table.add_row({std::to_string(day),
                         at_day(cells[0 * seeds.size()].error, day),
                         at_day(cells[1 * seeds.size()].error, day),
                         at_day(cells[2 * seeds.size()].error, day),
                         at_day(cells[3 * seeds.size()].error, day)});
  }
  error_table.print(std::cout);

  std::printf("\n(c) saving ratio after %d training days "
              "(mean of %zu seeds, greedy evaluation)\n",
              kTrainDays, seeds.size());
  TablePrinter sr_table({"variant", "SR %", "paper SR %"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    sr_table.add_row({variants[v].name,
                      TablePrinter::num(100.0 * sr_mean[v], 1),
                      TablePrinter::num(variants[v].paper_sr, 1)});
    ctx.metric(std::string("sr_") + variants[v].name, sr_mean[v]);
  }
  sr_table.print(std::cout);
  std::printf("\nshape check: none < {reuse, synthetic} < all, as in the "
              "paper's bars.\n");
}

}  // namespace rlblh::bench
