// The sweep engine's central contract: parallel results are bitwise
// identical to serial results. These tests run the same small grid of real
// scenario cells serially, with 2 threads, and with more threads
// than cells, and compare every EvaluationResult field at the bit level.
#include "sim/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rlblh_policy.h"
#include "meter/household.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/scenario.h"

namespace rlblh {
namespace {

// Bit-level equality: NaN-safe and sensitive to -0.0 vs 0.0, unlike ==.
std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  static_assert(sizeof(out) == sizeof(value));
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

void expect_bitwise_equal(const EvaluationResult& a,
                          const EvaluationResult& b) {
  EXPECT_EQ(bits(a.saving_ratio), bits(b.saving_ratio));
  EXPECT_EQ(bits(a.mean_cc), bits(b.mean_cc));
  EXPECT_EQ(bits(a.normalized_mi), bits(b.normalized_mi));
  EXPECT_EQ(bits(a.mean_daily_savings_cents), bits(b.mean_daily_savings_cents));
  EXPECT_EQ(bits(a.mean_daily_bill_cents), bits(b.mean_daily_bill_cents));
  EXPECT_EQ(bits(a.mean_daily_usage_cost_cents),
            bits(b.mean_daily_usage_cost_cents));
  EXPECT_EQ(a.battery_violations, b.battery_violations);
}

// One grid cell: a full (small) train-then-measure experiment constructed
// entirely from the cell's (capacity, seed) coordinates — a pure function
// of the grid index, as SweepRunner requires.
EvaluationResult run_cell(double battery_capacity, unsigned seed) {
  ScenarioSpec spec;
  spec.nd = 15;
  spec.battery_kwh = battery_capacity;
  spec.seed = seed;
  spec.hseed = 1000 + seed;
  spec.train_days = 3;
  spec.eval_days = 2;
  Scenario scenario = build_scenario(spec);
  return run_scenario(scenario);
}

std::vector<EvaluationResult> sweep_with(std::size_t threads) {
  const std::vector<double> capacities = {3.0, 5.0};
  const std::vector<unsigned> seeds = {7, 8};
  SweepRunner runner(SweepOptions{threads});
  return runner.run_grid(capacities, seeds, [](double capacity,
                                               unsigned seed) {
    return run_cell(capacity, seed);
  });
}

TEST(SweepDeterminismTest, ParallelMatchesSerialBitwise) {
  const std::vector<EvaluationResult> serial = sweep_with(1);
  const std::vector<EvaluationResult> two = sweep_with(2);
  const std::vector<EvaluationResult> wide = sweep_with(8);  // > cells

  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(two.size(), serial.size());
  ASSERT_EQ(wide.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_bitwise_equal(serial[i], two[i]);
    expect_bitwise_equal(serial[i], wide[i]);
  }
}

TEST(SweepDeterminismTest, ReducedStatsMatchAcrossThreadCounts) {
  const std::vector<EvaluationResult> serial = sweep_with(1);
  const std::vector<EvaluationResult> parallel = sweep_with(2);
  // Per-config seed means, reduced in grid order on the calling thread.
  for (std::size_t row = 0; row < 2; ++row) {
    const EvaluationStats a = mean_over_cells(serial, row * 2, 2);
    const EvaluationStats b = mean_over_cells(parallel, row * 2, 2);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(bits(a.saving_ratio.mean()), bits(b.saving_ratio.mean()));
    EXPECT_EQ(bits(a.mean_cc.mean()), bits(b.mean_cc.mean()));
    EXPECT_EQ(bits(a.normalized_mi.mean()), bits(b.normalized_mi.mean()));
    EXPECT_EQ(a.battery_violations, b.battery_violations);
  }
}

TEST(SweepDeterminismTest, RunPreservesGridOrder) {
  SweepRunner runner(SweepOptions{4});
  const std::vector<std::size_t> results =
      runner.run(32, [](std::size_t cell) { return cell * 10; });
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 10);
  }
}

TEST(SweepDeterminismTest, LowestIndexedFailureWinsDeterministically) {
  SweepRunner runner(SweepOptions{4});
  const auto body = [](std::size_t cell) -> int {
    if (cell == 3 || cell == 7) {
      throw std::runtime_error("cell " + std::to_string(cell));
    }
    return static_cast<int>(cell);
  };
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      runner.run(16, body);
      FAIL() << "sweep with failing cells must throw";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "cell 3");
    }
  }
}

TEST(SweepDeterminismTest, ObservabilityOnMatchesOffBitwise) {
  // The instrumentation contract: recording metrics and spans only reads
  // simulation values — it never touches an Rng or feeds back into control
  // flow — so results with observability enabled are bitwise identical to
  // results with it disabled, serially and in parallel.
  obs::set_enabled(false);
  const std::vector<EvaluationResult> off_serial = sweep_with(1);
  const std::vector<EvaluationResult> off_parallel = sweep_with(2);

  obs::registry().reset();
  obs::Tracer::instance().reset();
  obs::set_enabled(true);
  const std::vector<EvaluationResult> on_serial = sweep_with(1);
  const std::vector<EvaluationResult> on_parallel = sweep_with(2);
  obs::set_enabled(false);

  ASSERT_EQ(off_serial.size(), 4u);
  ASSERT_EQ(on_serial.size(), off_serial.size());
  ASSERT_EQ(on_parallel.size(), off_serial.size());
  for (std::size_t i = 0; i < off_serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_bitwise_equal(off_serial[i], on_serial[i]);
    expect_bitwise_equal(off_serial[i], on_parallel[i]);
    expect_bitwise_equal(off_serial[i], off_parallel[i]);
  }

  // Reduced statistics agree bitwise too.
  for (std::size_t row = 0; row < 2; ++row) {
    const EvaluationStats a = mean_over_cells(off_serial, row * 2, 2);
    const EvaluationStats b = mean_over_cells(on_parallel, row * 2, 2);
    EXPECT_EQ(bits(a.saving_ratio.mean()), bits(b.saving_ratio.mean()));
    EXPECT_EQ(bits(a.normalized_mi.mean()), bits(b.normalized_mi.mean()));
  }

#if RLBLH_OBS_ENABLED
  // And recording actually happened while enabled: the simulator counted
  // its days (4 cells x 5 days x 2 runs) and the sweep timed its cells.
  EXPECT_EQ(obs::registry().counter("sim.days").value(), 2 * 4 * 5);
  EXPECT_EQ(obs::registry().counter("sweep.cells").value(), 2 * 4);
  // The cells run RL-BLH with n_D = 15 over 1440-interval days, so every
  // day went through the pulse-blocked hot path (96 blocks per day) — the
  // bitwise on==off comparison above covered the blocked loop, not the
  // per-interval fallback.
  EXPECT_EQ(obs::registry().counter("sim.blocks").value(), 2 * 4 * 5 * 96);
  EXPECT_GT(obs::registry().counter("sim.block_ns").value(), 0u);
#endif
  obs::registry().reset();
  obs::Tracer::instance().reset();
}

// A cell with both replay heuristics on: REUSE after every training day and
// a SYN round every second day. Returns the evaluation and the policy's
// checkpoint, which holds the weights, the RNG stream and the usage stats.
std::pair<EvaluationResult, std::string> run_replay_cell(unsigned seed) {
  ScenarioSpec spec;
  spec.nd = 15;
  spec.seed = seed;
  spec.hseed = 2000 + seed;
  spec.train_days = 4;
  spec.eval_days = 1;
  spec.policy_params.set("reuse_repeats", 4);
  spec.policy_params.set("syn_period", 2);
  spec.policy_params.set("syn_repeats", 4);
  Scenario scenario = build_scenario(spec);
  const EvaluationResult result = run_scenario(scenario);
  std::ostringstream checkpoint;
  scenario.policy->save_state(checkpoint);
  return {result, checkpoint.str()};
}

std::vector<std::pair<EvaluationResult, std::string>> replay_sweep(
    std::size_t threads) {
  SweepRunner runner(SweepOptions{threads});
  return runner.run(2, [](std::size_t cell) {
    return run_replay_cell(static_cast<unsigned>(11 + cell));
  });
}

TEST(SweepDeterminismTest, ReplayTimersRecordWhileResultsStayBitwise) {
  // The replay timers (rl.replay.*_ns) read the clock only while
  // observability records and never touch the Rng or the weights, so runs
  // with REUSE and SYN on stay bitwise identical — down to the checkpoint
  // bytes — with observability on and off.
  obs::set_enabled(false);
  const auto off = replay_sweep(1);

  obs::registry().reset();
  obs::Tracer::instance().reset();
  obs::set_enabled(true);
  const auto on = replay_sweep(2);
  obs::set_enabled(false);

  ASSERT_EQ(off.size(), 2u);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_bitwise_equal(off[i].first, on[i].first);
    EXPECT_EQ(off[i].second, on[i].second);
  }

#if RLBLH_OBS_ENABLED
  // Learning stays on through evaluation, so per cell: 5 days x 4 REUSE
  // replays, plus SYN rounds on days 2 and 4 (4 synthetic days each).
  EXPECT_EQ(obs::registry().counter("rl.virtual_days").value(),
            2 * (5 * 4 + 2 * 4));
  EXPECT_GT(obs::registry().counter("rl.replay.reuse_ns").value(), 0);
  EXPECT_GT(obs::registry().counter("rl.replay.syn_sample_ns").value(), 0);
  EXPECT_GT(obs::registry().counter("rl.replay.syn_train_ns").value(), 0);
#endif
  obs::registry().reset();
  obs::Tracer::instance().reset();
}

// Six households over three specs, one training and three evaluation days
// each, run as a fleet (chunked, arena-recycled accumulators).
constexpr std::size_t kEvalHouseholds = 6;
constexpr std::size_t kEvalDays = 3;

FleetResult eval_fleet(std::size_t threads) {
  const std::vector<std::string> texts = {
      "policy=lowpass;train=1;eval=3",
      "policy=rlblh;policy.reuse=0;policy.syn=0;train=1;eval=3",
      "policy=none;household=ev_owner;train=1;eval=3"};
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < kEvalHouseholds; ++i) {
    specs.push_back(ScenarioSpec::parse(texts[i % texts.size()]));
  }
  FleetOptions options;
  options.threads = threads;
  options.chunk = 2;
  return FleetSimulator(std::move(specs), options).run(17);
}

TEST(SweepDeterminismTest, EvalTimersRecordWhileResultsStayBitwise) {
  // EvaluationAccumulator counts eval.days and times observe_day and
  // result() only while observability records; it reads the day results
  // and never touches an Rng, so the fleet stays bitwise identical with
  // observability on and off.
  obs::set_enabled(false);
  const FleetResult off = eval_fleet(1);

  obs::registry().reset();
  obs::Tracer::instance().reset();
  obs::set_enabled(true);
  const FleetResult on = eval_fleet(2);
  obs::set_enabled(false);

  ASSERT_EQ(off.households.size(), kEvalHouseholds);
  ASSERT_EQ(on.households.size(), off.households.size());
  for (std::size_t i = 0; i < off.households.size(); ++i) {
    SCOPED_TRACE("household " + std::to_string(i));
    expect_bitwise_equal(off.households[i], on.households[i]);
  }

#if RLBLH_OBS_ENABLED
  EXPECT_EQ(obs::registry().counter("eval.days").value(),
            static_cast<long long>(kEvalHouseholds * kEvalDays));
  EXPECT_GT(obs::registry().counter("eval.observe_ns").value(), 0);
  EXPECT_GT(obs::registry().counter("eval.result_ns").value(), 0);
#endif
  obs::registry().reset();
  obs::Tracer::instance().reset();
}

TEST(SweepDeterminismTest, SerialRunnerRunsInline) {
  SweepRunner runner(SweepOptions{1});
  EXPECT_EQ(runner.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  const auto ids = runner.run(
      4,
      [caller](std::size_t) { return std::this_thread::get_id() == caller; });
  for (const bool on_caller : ids) EXPECT_TRUE(on_caller);
}

}  // namespace
}  // namespace rlblh
