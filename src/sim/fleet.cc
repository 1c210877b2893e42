#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "sim/sweep.h"
#include "util/error.h"
#include "util/rng.h"

namespace rlblh {

namespace {

/// Key identifying a distinct price schedule: plan name plus its parameter
/// slice. Households with equal keys share one immutable TouSchedule.
std::string pricing_key(const ScenarioSpec& spec) {
  return spec.pricing + "|" + spec.pricing_params.canonical();
}

/// Key identifying a distinct spec blueprint: the canonical spec text with
/// the seed fields normalized away. run() overwrites both seeds per
/// household anyway, so specs equal up to seeds share one blueprint (a
/// pinned `policy.seed=` override lives in policy_params and survives the
/// normalization, as it must).
std::string blueprint_key(ScenarioSpec spec) {
  spec.seed = 0;
  spec.hseed.reset();
  return spec.canonical();
}

/// Lends RunArenas to chunk cells. Arenas persist across chunks — at most
/// one per concurrently running cell ever exists — and which arena a chunk
/// receives is scheduling-dependent, which is safe precisely because
/// RunArena reuse is semantically invisible (see fleet.h).
class ArenaPool {
 public:
  std::unique_ptr<RunArena> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<RunArena> arena = std::move(free_.back());
        free_.pop_back();
        return arena;
      }
    }
    return std::make_unique<RunArena>();
  }

  void release(std::unique_ptr<RunArena> arena) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(arena));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<RunArena>> free_;
};

/// Households per chunk. Explicit requests are honored (clamped to the
/// fleet); auto mode targets ~16 chunks per worker so slow chunks rebalance
/// across the pool, capped so one cell's result vector stays modest.
std::size_t resolve_chunk(std::size_t requested, std::size_t n,
                          std::size_t threads) {
  constexpr std::size_t kMaxChunk = 4096;
  if (requested != 0) return std::min(requested, n);
  if (threads <= 1) return std::min(n, kMaxChunk);
  const std::size_t slots = threads * 16;
  const std::size_t target = (n + slots - 1) / slots;
  return std::clamp(target, std::size_t{1}, kMaxChunk);
}

MetricSummary summarize(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  MetricSummary summary;
  summary.mean = sum / static_cast<double>(values.size());
  summary.p50 = fleet_quantile(values, 0.50);
  summary.p95 = fleet_quantile(values, 0.95);
  return summary;
}

}  // namespace

double fleet_quantile(std::vector<double> values, double q) {
  RLBLH_REQUIRE(!values.empty(), "fleet_quantile: need at least one value");
  RLBLH_REQUIRE(q >= 0.0 && q <= 1.0, "fleet_quantile: q must be in [0,1]");
  for (const double value : values) {
    RLBLH_REQUIRE(std::isfinite(value),
                  "fleet_quantile: values must be finite");
  }
  // One value is every quantile of itself (the single-household fleet:
  // p50 == p95 == mean == the value).
  if (values.size() == 1) return values.front();
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(position);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = position - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

FleetSimulator::FleetSimulator(std::vector<ScenarioSpec> specs,
                               FleetOptions options)
    : specs_(std::move(specs)), options_(options) {
  RLBLH_REQUIRE(!specs_.empty(),
                "FleetSimulator: need at least one household spec");
}

ScenarioSpec FleetSimulator::resolved_spec(ScenarioSpec spec,
                                           std::uint64_t fleet_seed,
                                           std::size_t index) {
  const std::uint64_t base = derive_stream_seed(fleet_seed, index);
  spec.seed = derive_stream_seed(base, 0);
  spec.hseed = derive_stream_seed(base, 1);
  return spec;
}

FleetResult FleetSimulator::run(std::uint64_t fleet_seed) {
  RLBLH_OBS_SPAN("fleet.run");
  const std::size_t n = specs_.size();
  RLBLH_OBS_GAUGE("fleet.size", n);

  // One immutable schedule per distinct pricing slice and one blueprint per
  // distinct spec (up to seeds), both built serially before the fan-out;
  // cells only read them. std::map nodes are stable, so the pointers
  // survive later insertions. Seeds never reach the pricing factory, so
  // keying on the unresolved specs is exact.
  std::map<std::string, TouSchedule> plans;
  std::vector<const TouSchedule*> plan_of(n);
  std::map<std::string, ScenarioBlueprint> blueprints;
  std::vector<const ScenarioBlueprint*> blueprint_of(n);
  for (std::size_t h = 0; h < n; ++h) {
    const std::string plan_key = pricing_key(specs_[h]);
    auto plan_it = plans.find(plan_key);
    if (plan_it == plans.end()) {
      plan_it = plans.emplace(plan_key, make_scenario_pricing(specs_[h])).first;
    }
    plan_of[h] = &plan_it->second;

    const std::string bp_key = blueprint_key(specs_[h]);
    auto bp_it = blueprints.find(bp_key);
    if (bp_it == blueprints.end()) {
      bp_it =
          blueprints.emplace(bp_key, make_scenario_blueprint(specs_[h])).first;
    }
    blueprint_of[h] = &bp_it->second;
  }
  RLBLH_OBS_GAUGE("fleet.distinct_plans", plans.size());
  RLBLH_OBS_GAUGE("fleet.distinct_blueprints", blueprints.size());

  SweepRunner runner(SweepOptions{options_.threads});
  const std::size_t chunk = resolve_chunk(options_.chunk, n, runner.threads());
  const std::size_t chunks = (n + chunk - 1) / chunk;
  RLBLH_OBS_GAUGE("fleet.chunk_size", chunk);
  RLBLH_OBS_GAUGE("fleet.chunks", chunks);

  ArenaPool arenas;
  std::vector<std::vector<EvaluationResult>> chunk_results =
      runner.run(chunks, [&](std::size_t c) {
        RLBLH_OBS_SPAN("fleet.chunk");
        const std::size_t first = c * chunk;
        const std::size_t last = std::min(first + chunk, n);
        std::unique_ptr<RunArena> arena = arenas.acquire();
        std::vector<EvaluationResult> results(last - first);
        std::size_t days = 0;
        for (std::size_t h = first; h < last; ++h) {
          const std::uint64_t base = derive_stream_seed(fleet_seed, h);
          results[h - first] = run_blueprint(
              specs_[h], *blueprint_of[h], *plan_of[h],
              /*policy_seed=*/derive_stream_seed(base, 0),
              /*household_seed=*/derive_stream_seed(base, 1), *arena);
          days += specs_[h].train_days + specs_[h].eval_days;
        }
        arenas.release(std::move(arena));
        RLBLH_OBS_COUNT("fleet.households", last - first);
        RLBLH_OBS_COUNT("fleet.days", days);
        return results;
      });
  runner.shutdown();  // make worker-side counters visible to snapshots

  // Fold in grid order: chunk-major, household-ascending inside each chunk
  // — exactly household order, so the aggregates match the per-household
  // formulation bit for bit.
  FleetResult result;
  std::vector<double> sr;
  std::vector<double> cc;
  std::vector<double> mi;
  sr.reserve(n);
  cc.reserve(n);
  mi.reserve(n);
  if (options_.keep_households) result.households.reserve(n);
  for (std::vector<EvaluationResult>& chunk_result : chunk_results) {
    for (EvaluationResult& household : chunk_result) {
      sr.push_back(household.saving_ratio);
      cc.push_back(household.mean_cc);
      mi.push_back(household.normalized_mi);
      result.battery_violations += household.battery_violations;
      if (options_.keep_households) result.households.push_back(household);
    }
    chunk_result.clear();
    chunk_result.shrink_to_fit();  // stream, don't hold two copies of O(N)
  }
  result.saving_ratio = summarize(sr);
  result.mean_cc = summarize(cc);
  result.normalized_mi = summarize(mi);
  return result;
}

}  // namespace rlblh
