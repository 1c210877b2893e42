// Parallel sweep engine for the figure reproductions.
//
// Every evaluation in the paper is a sweep: a grid of (configuration, seed)
// cells, each of which trains and measures one household/policy pair in
// isolation. SweepRunner fans those cells out across a fixed-size thread
// pool with a hard determinism guarantee:
//
//   parallel results are bitwise identical to serial results.
//
// The guarantee holds because (a) each cell is required to be a pure
// function of its grid index — it constructs its own household, policy and
// rlblh::Rng streams from per-cell seeds and shares no mutable state with
// other cells — and (b) results are collected into a pre-sized vector by
// grid index and reduced in grid order on the calling thread, never in
// completion order. Thread count therefore changes wall-clock time only.
#pragma once

#include <chrono>
#include <cstddef>
#include <future>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "sim/experiment.h"
#include "util/running_stats.h"
#include "util/thread_pool.h"

namespace rlblh {

/// Execution knobs for a sweep.
struct SweepOptions {
  /// Worker count; 0 resolves to ThreadPool::default_thread_count()
  /// (the RLBLH_THREADS environment variable, else the hardware).
  std::size_t threads = 0;
};

/// Runs independent grid cells across a thread pool, returning results in
/// grid order regardless of completion order.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Worker count in effect (>= 1). 1 means the serial path: cells run
  /// inline on the calling thread in grid order.
  std::size_t threads() const { return threads_; }

  /// Joins and discards the worker pool. Call before snapshotting the
  /// metrics registry: the join makes every worker-side counter increment
  /// visible to the snapshotting thread. Subsequent run() calls execute
  /// serially on the caller.
  void shutdown() { pool_.reset(); }

  /// Evaluates `fn(cell_index)` for every cell in [0, cells) and returns the
  /// results indexed by cell. `fn` must be a pure function of the index (see
  /// the file comment); it is invoked concurrently from pool workers when
  /// threads() > 1. An exception thrown by a cell is rethrown here — the one
  /// from the lowest-indexed failing cell, deterministically.
  template <typename Fn>
  auto run(std::size_t cells, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    RLBLH_OBS_SPAN("sweep.run");
    std::vector<R> results;
    results.reserve(cells);
    if (threads_ <= 1 || cells <= 1) {
      for (std::size_t i = 0; i < cells; ++i) {
        results.push_back(timed_cell(fn, i));
      }
      return results;
    }
    std::vector<std::future<R>> futures;
    futures.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      futures.push_back(
          pool_->submit([&fn, i] { return timed_cell(fn, i); }));
    }
    {
      RLBLH_OBS_SPAN("sweep.collect");
      for (std::size_t i = 0; i < cells; ++i) {
        results.push_back(futures[i].get());  // grid order, rethrows
      }
    }
    return results;
  }

  /// Declarative (config, seed) grid: evaluates `fn(config, seed)` for every
  /// pair and returns results flattened config-major — cell (c, s) lands at
  /// index c * seeds.size() + s.
  template <typename Config, typename Seed, typename Fn>
  auto run_grid(const std::vector<Config>& configs,
                const std::vector<Seed>& seeds, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const Config&, Seed>> {
    const std::size_t per_config = seeds.size();
    return run(configs.size() * per_config, [&](std::size_t cell) {
      return fn(configs[cell / per_config], seeds[cell % per_config]);
    });
  }

 private:
  /// Evaluates one cell, feeding the cell-latency histogram when
  /// observability is recording. Timing wraps the cell without touching its
  /// inputs or outputs, so determinism is unaffected.
  template <typename Fn>
  static auto timed_cell(Fn& fn, std::size_t i)
      -> std::invoke_result_t<Fn&, std::size_t> {
    if (!obs::enabled()) return fn(i);
    [[maybe_unused]] const auto start = std::chrono::steady_clock::now();
    auto result = fn(i);
    RLBLH_OBS_OBSERVE("sweep.cell_ns",
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    RLBLH_OBS_COUNT("sweep.cells", 1);
    return result;
  }

  std::size_t threads_;
  std::optional<ThreadPool> pool_;  // engaged only when threads_ > 1
};

/// Per-metric RunningStats over a set of EvaluationResults (typically the
/// seeds of one config row). Cells accumulate locally; partial accumulators
/// combine with merge() — the RunningStats parallel-combine rule — so a
/// grid-order reduction over per-cell stats is independent of which thread
/// produced each cell.
struct EvaluationStats {
  RunningStats saving_ratio;
  RunningStats mean_cc;
  RunningStats normalized_mi;
  RunningStats mean_daily_savings_cents;
  RunningStats mean_daily_bill_cents;
  RunningStats mean_daily_usage_cost_cents;
  std::size_t battery_violations = 0;

  /// Folds one cell's evaluation into the accumulator.
  void add(const EvaluationResult& result);

  /// Combines another accumulator (parallel-combine rule).
  void merge(const EvaluationStats& other);

  /// Number of evaluations folded in.
  std::size_t count() const { return saving_ratio.count(); }
};

/// Grid-order mean over a contiguous [first, first + count) slice of sweep
/// results (e.g. the seeds of one config in run_grid's config-major layout).
EvaluationStats mean_over_cells(const std::vector<EvaluationResult>& results,
                                std::size_t first, std::size_t count);

}  // namespace rlblh
