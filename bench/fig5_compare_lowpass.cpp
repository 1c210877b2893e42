// Figure 5 reproduction: RL-BLH vs the low-pass scheme across battery
// capacities b_M in {3, 4, 5} kWh at n_D = 10.
//
//  (5a) CC  — RL-BLH hides the low-frequency shape better (paper: by about
//             an order of magnitude; here the margin is smaller, see
//             EXPERIMENTS.md).
//  (5b) MI  — both schemes leak little pairwise information; low-pass is
//             slightly better at the high-frequency metric (paper agrees:
//             "the MI of RL-BLH is slightly higher").
//  (5c) SR  — RL-BLH's savings grow with b_M by design; the low-pass
//             scheme's savings are incidental (whatever the usage/tariff
//             covariance happens to give).
#include "bench_main.h"
#include "common.h"
#include "util/table.h"

#include <iostream>
#include <vector>

namespace rlblh::bench {

const char* const kBenchName = "fig5_compare_lowpass";

void bench_body(BenchContext& ctx) {
  print_header("Figure 5: RL-BLH vs low-pass across b_M (n_D = 10)");

  const int kTrainDays = ctx.days(70, 5);
  const int kLpSettleDays = ctx.days(10, 3);
  const int kEvalDays = ctx.days(120, 4);

  struct PaperRow {
    double capacity, rl_cc, lp_cc, rl_mi, lp_mi, rl_sr, lp_sr;
  };
  // Values read off the paper's Figure 5 plots (approximate).
  const std::vector<PaperRow> paper = {
      {3.0, 0.02, 0.16, 0.03, 0.015, 0.02, -0.02},
      {4.0, 0.02, 0.12, 0.02, 0.012, 0.09, 0.00},
      {5.0, 0.02, 0.09, 0.015, 0.010, 0.15, 0.02},
  };

  // Grid: capacity-major, scheme-minor — cell 2r is RL-BLH, 2r+1 low-pass.
  const std::vector<EvaluationResult> cells =
      ctx.sweep().run(paper.size() * 2, [&](std::size_t cell) {
        const PaperRow& row = paper[cell / 2];
        const double capacity = row.capacity;
        if (cell % 2 == 0) {
          // RL-BLH, trained online with the paper's heuristics.
          return train_and_measure(
              paper_spec("rlblh", 10, capacity, /*seed=*/7, /*hseed=*/200),
              kTrainDays, kEvalDays);
        }
        return train_and_measure(
            paper_spec("lowpass", 10, capacity, /*seed=*/7, /*hseed=*/200),
            kLpSettleDays, kEvalDays);
      });
  ctx.count_cells(cells.size());
  ctx.count_days(paper.size() *
                 static_cast<std::size_t>(kTrainDays + kLpSettleDays +
                                          2 * kEvalDays));

  TablePrinter table({"b_M", "scheme", "CC", "MI", "SR %", "cents/day",
                      "paper CC", "paper SR %"});
  for (std::size_t r = 0; r < paper.size(); ++r) {
    const PaperRow& row = paper[r];
    const EvaluationResult& rl = cells[2 * r];
    const EvaluationResult& lp = cells[2 * r + 1];
    table.add_row({TablePrinter::num(row.capacity, 0), "rl-blh",
                   TablePrinter::num(rl.mean_cc, 4),
                   TablePrinter::num(rl.normalized_mi, 4),
                   TablePrinter::num(100.0 * rl.saving_ratio, 1),
                   TablePrinter::num(rl.mean_daily_savings_cents, 1),
                   TablePrinter::num(row.rl_cc, 3),
                   TablePrinter::num(100.0 * row.rl_sr, 1)});
    table.add_row({TablePrinter::num(row.capacity, 0), "low-pass",
                   TablePrinter::num(lp.mean_cc, 4),
                   TablePrinter::num(lp.normalized_mi, 4),
                   TablePrinter::num(100.0 * lp.saving_ratio, 1),
                   TablePrinter::num(lp.mean_daily_savings_cents, 1),
                   TablePrinter::num(row.lp_cc, 3),
                   TablePrinter::num(100.0 * row.lp_sr, 1)});
    const std::string suffix =
        "_bM" + std::to_string(static_cast<int>(row.capacity));
    ctx.metric("rl_cc" + suffix, rl.mean_cc);
    ctx.metric("lp_cc" + suffix, lp.mean_cc);
  }
  table.print(std::cout);
  std::printf("\nshape checks: rl CC < lp CC at every capacity; rl SR grows "
              "with b_M;\nlp MI < rl MI (low-pass is the better pure "
              "high-frequency flattener).\n");
}

}  // namespace rlblh::bench
