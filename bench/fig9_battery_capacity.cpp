// Figure 9 reproduction: privacy and cost savings as the battery capacity
// b_M varies over {3..7} kWh, at n_D = 15.
//
// Paper values: SR {2.58, 11.31, 15.54, 18.02, 22.43}%,
// CC {0.058, 0.046, 0.022, 0.014, -0.006}, MI ~flat {0.011..0.014}.
// Shapes to reproduce: SR increases with b_M, CC decreases with b_M
// (a bigger battery decouples the pulses from usage), MI roughly flat.
#include "bench_main.h"
#include "common.h"
#include "util/table.h"

#include <iostream>
#include <vector>

namespace rlblh::bench {

const char* const kBenchName = "fig9_battery_capacity";

void bench_body(BenchContext& ctx) {
  print_header("Figure 9: effect of the battery capacity b_M (n_D = 15)");

  struct PaperRow {
    double capacity, sr, cc;
  };
  const std::vector<PaperRow> paper = {{3.0, 2.58, 0.058},
                                       {4.0, 11.31, 0.046},
                                       {5.0, 15.54, 0.022},
                                       {6.0, 18.02, 0.014},
                                       {7.0, 22.43, -0.006}};

  const int kTrainDays = ctx.days(110, 6);
  const int kEvalDays = ctx.days(120, 4);
  const std::vector<unsigned> seeds = {7, 8, 9};

  // One sweep cell per (capacity, seed): train then measure, in isolation.
  const std::vector<EvaluationResult> cells = ctx.sweep().run_grid(
      paper, seeds, [&](const PaperRow& row, unsigned seed) {
        return train_and_measure(
            paper_spec("rlblh", 15, row.capacity, seed, 600 + seed),
            kTrainDays, kEvalDays);
      });
  ctx.count_cells(cells.size());
  ctx.count_days(cells.size() *
                 static_cast<std::size_t>(kTrainDays + kEvalDays));

  TablePrinter table({"b_M", "SR %", "MI", "CC", "cents/day", "paper SR %",
                      "paper CC"});
  for (std::size_t r = 0; r < paper.size(); ++r) {
    const PaperRow& row = paper[r];
    const EvaluationStats mean =
        mean_over_cells(cells, r * seeds.size(), seeds.size());
    table.add_row({TablePrinter::num(row.capacity, 0),
                   TablePrinter::num(100.0 * mean.saving_ratio.mean(), 1),
                   TablePrinter::num(mean.normalized_mi.mean(), 4),
                   TablePrinter::num(mean.mean_cc.mean(), 4),
                   TablePrinter::num(mean.mean_daily_savings_cents.mean(), 1),
                   TablePrinter::num(row.sr, 1),
                   TablePrinter::num(row.cc, 3)});
    ctx.metric("sr_bM" + std::to_string(static_cast<int>(row.capacity)),
               mean.saving_ratio.mean());
    ctx.metric("cc_bM" + std::to_string(static_cast<int>(row.capacity)),
               mean.mean_cc.mean());
  }
  table.print(std::cout);
  std::printf("\nshape checks: SR grows with b_M; CC falls with b_M; MI is "
              "roughly flat.\nA larger battery helps both goals; the paper's "
              "sizing argument follows.\n");
}

}  // namespace rlblh::bench
