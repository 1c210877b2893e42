// Ablation: hyper-parameter decay schedule (DESIGN.md "documented
// deviations").
//
// The paper decays alpha and epsilon by 1/sqrt(d) across days. The library
// additionally keeps small floors under both values and offers
// decay-by-episode as an alternative. With the exploring-start replays in
// place (the main stabilizer; see DESIGN.md), the literal day-based decay
// and the floored variant perform alike on a stationary household — the
// floors matter for *online re-adaptation* after a behaviour change, where
// a fully decayed learner cannot move its weights any more (see the
// behaviour_shift example). Decay-by-episode is measurably worse: the
// replay bursts burn through the exploration budget within days.
#include "bench_main.h"
#include "common.h"
#include "util/table.h"

#include <iostream>
#include <vector>

namespace rlblh::bench {

namespace {

struct Variant {
  const char* name;
  bool decay;
  bool by_episodes;
  double alpha_floor;
  double epsilon_floor;
};

double run_schedule(const Variant& v, unsigned seed, int train_days,
                    int eval_days) {
  ScenarioSpec spec = paper_spec("rlblh", 15, 5.0, seed, 700 + seed);
  spec.policy_params.set("decay", v.decay);
  spec.policy_params.set("decay_by_episodes", v.by_episodes);
  spec.policy_params.set("alpha_floor", v.alpha_floor);
  spec.policy_params.set("epsilon_floor", v.epsilon_floor);
  Scenario scenario = build_scenario(spec);
  scenario.run_days(static_cast<std::size_t>(train_days));
  return greedy_sr(scenario, eval_days);
}

}  // namespace

const char* const kBenchName = "abl_decay";

void bench_body(BenchContext& ctx) {
  print_header("Ablation: alpha/epsilon decay schedule (n_D = 15, b_M = 5)");

  const std::vector<Variant> variants = {
      {"paper-literal 1/sqrt(day), no floor", true, false, 0.0, 0.0},
      {"1/sqrt(day) with floors (default)", true, false, 0.005, 0.05},
      {"1/sqrt(episode) with floors", true, true, 0.005, 0.05},
      {"no decay (constant 0.05 / 0.1)", false, false, 0.0, 0.0},
  };
  const int kShortTrain = ctx.days(60, 5);
  const int kLongTrain = ctx.days(150, 10);
  const int kEvalDays = ctx.days(30, 3);
  const std::vector<unsigned> seeds = {7, 8, 9};

  // Grid: variant-major, then seed, then the two horizons — every
  // (variant, seed, horizon) triple is one independent cell.
  struct CellResult {
    double sr60 = 0.0, sr150 = 0.0;
  };
  const std::vector<CellResult> cells = ctx.sweep().run_grid(
      variants, seeds, [&](const Variant& v, unsigned seed) {
        CellResult result;
        result.sr60 = run_schedule(v, seed, kShortTrain, kEvalDays);
        result.sr150 = run_schedule(v, seed, kLongTrain, kEvalDays);
        return result;
      });
  ctx.count_cells(cells.size());
  ctx.count_days(cells.size() * static_cast<std::size_t>(
                                    kShortTrain + kLongTrain + 2 * kEvalDays));

  TablePrinter table({"schedule", "SR % @60d", "SR % @150d"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    double sr60 = 0.0, sr150 = 0.0;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      const CellResult& cell = cells[v * seeds.size() + s];
      sr60 += cell.sr60 / static_cast<double>(seeds.size());
      sr150 += cell.sr150 / static_cast<double>(seeds.size());
    }
    table.add_row({variants[v].name, TablePrinter::num(100.0 * sr60, 1),
                   TablePrinter::num(100.0 * sr150, 1)});
    ctx.metric(std::string("sr60_") + variants[v].name, sr60);
  }
  table.print(std::cout);
  std::printf("\nday-based decay (with or without floors) converges alike "
              "on a stationary\nhousehold; episode-based decay starves "
              "exploration during the replay bursts.\nFloors earn their keep "
              "when the household's behaviour changes mid-run.\n");
}

}  // namespace rlblh::bench
