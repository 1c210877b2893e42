// Fleet workloads: a household mix through FleetSimulator::run.
//
// Untraced: a cold warm-up run (one household per blueprint, set-up time),
// then repeated runs of the whole fleet at one worker per core until the
// time is up. Every repetition must reproduce the first bit for bit, and
// one household per blueprint is re-run through the plain run_spec path.
//
// Traced (--trace 1): the first households run again one after another
// through the public per-household calls FleetSimulator uses
// (make_blueprint_source, make_policy, pretrain_if_needed,
// SimEngine::run_days, EvaluationAccumulator), with forwarding decorators
// around the trace source and the policy that time each call. Each traced
// result must equal the fleet's bit for bit.
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/policy_registry.h"
#include "core/rlblh_policy.h"
#include "harness.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace rlblh::perfbench {
namespace {

struct FleetShape {
  std::vector<std::string> mix;  ///< one spec per blueprint
  std::size_t train_days = 0;
  std::size_t eval_days = 0;
  std::size_t households = 0;  ///< cycles through the mix
  std::size_t traced = 0;      ///< prefix of households the traced pass runs
};

// fleet_rl: the three rlblh specs of fleet_scaling's mix with the paper's
// REUSE/SYN heuristics. 30 train + 5 eval days put every household through
// the whole REUSE window and three SYN rounds (3500 virtual days), so RL
// replay dominates; five eval days keep the MI estimate non-zero.
//
// fleet_eval: the full eight-spec mix with replay off, 2 train + 10 eval
// days, so evaluation, per-household set-up, synthesis and the day loop
// carry the cost and replay is absent.
FleetShape fleet_shape(const std::string& workload, bool tiny) {
  FleetShape shape;
  if (workload == "fleet_rl") {
    shape.mix = {
        "policy=rlblh;household=default;pricing=srp;battery=5",
        "policy=rlblh;household=ev_owner;pricing=srp;battery=7",
        "policy=rlblh;household=weekday_heavy;pricing=rtp;battery=5;"
        "pricing.seed=5",
    };
    shape.train_days = 30;
    shape.eval_days = 5;
    shape.households = tiny ? 3 : 24;
    shape.traced = tiny ? 3 : 6;
  } else {
    const std::string no_replay = ";policy.reuse=0;policy.syn=0";
    shape.mix = {
        "policy=rlblh;household=default;pricing=srp;battery=5" + no_replay,
        "policy=lowpass;household=weekday_heavy;pricing=tou2;battery=3",
        "policy=stepping;household=night_owl;pricing=tou3;battery=5",
        "policy=rlblh;household=ev_owner;pricing=srp;battery=7" + no_replay,
        "policy=none;household=apartment;pricing=flat",
        "policy=random_pulse;household=vacationer;pricing=srp;battery=4",
        "policy=rlblh;household=weekday_heavy;pricing=rtp;battery=5;"
        "pricing.seed=5" +
            no_replay,
        "policy=mdp;household=default;pricing=srp;battery=3;"
        "policy.levels=16;policy.usage_levels=8",
    };
    shape.train_days = 2;
    shape.eval_days = 10;
    shape.households = tiny ? 8 : 2048;
    shape.traced = tiny ? 8 : 256;
  }
  return shape;
}

std::vector<ScenarioSpec> fleet_specs(const FleetShape& shape,
                                      std::size_t households) {
  std::vector<ScenarioSpec> specs;
  specs.reserve(households);
  for (std::size_t h = 0; h < households; ++h) {
    ScenarioSpec spec = ScenarioSpec::parse(shape.mix[h % shape.mix.size()]);
    spec.train_days = shape.train_days;
    spec.eval_days = shape.eval_days;
    specs.push_back(std::move(spec));
  }
  return specs;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_result(const EvaluationResult& a, const EvaluationResult& b) {
  return same_bits(a.saving_ratio, b.saving_ratio) &&
         same_bits(a.mean_cc, b.mean_cc) &&
         same_bits(a.normalized_mi, b.normalized_mi) &&
         same_bits(a.mean_daily_savings_cents, b.mean_daily_savings_cents) &&
         same_bits(a.mean_daily_bill_cents, b.mean_daily_bill_cents) &&
         same_bits(a.mean_daily_usage_cost_cents,
                   b.mean_daily_usage_cost_cents) &&
         a.battery_violations == b.battery_violations;
}

/// CPU time consumed so far by every thread of this process.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU time of one FleetSimulator::run, with its result.
struct TimedRun {
  FleetResult result;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

TimedRun timed_fleet_run(const std::vector<ScenarioSpec>& specs,
                         std::size_t workers, std::uint64_t seed) {
  FleetOptions options;
  options.threads = workers;
  FleetSimulator fleet(specs, options);
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  TimedRun run;
  run.result = fleet.run(seed);
  run.seconds = seconds_between(start, Clock::now());
  run.cpu_seconds = process_cpu_seconds() - cpu_start;
  return run;
}

// --- traced pass ----------------------------------------------------------

/// Time and work per layer, summed over the traced households.
struct LayerTimes {
  double setup_s = 0.0;          ///< source + policy + pretrain + accumulator
  double run_days_s = 0.0;       ///< SimEngine::run_days, callees included
  double next_day_s = 0.0;       ///< TraceSource::next_day_into
  double decide_s = 0.0;         ///< fill_block (pulse width > 1 only)
  double observe_s = 0.0;        ///< observe_block (pulse width > 1 only)
  std::size_t blocks = 0;
  double end_day_s = 0.0;        ///< end_day on days without replay
  std::size_t plain_days = 0;
  double replay_s = 0.0;         ///< end_day on days that replayed
  std::size_t virtual_days = 0;
  std::size_t expected_virtual_days = 0;  ///< from each policy's config
  double observe_day_s = 0.0;    ///< EvaluationAccumulator::observe_day
  std::size_t eval_days = 0;
  double result_s = 0.0;         ///< EvaluationAccumulator::result
  std::size_t days = 0;
  std::size_t households = 0;
};

double since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Forwards every call to the wrapped source, timing next_day_into (the
/// only call the scalar engine makes).
class TimedSource final : public TraceSource {
 public:
  TimedSource(TraceSource& inner, LayerTimes& times)
      : inner_(inner), times_(times) {}

  DayTrace next_day() override { return inner_.next_day(); }
  void next_day_into(DayTrace& out) override {
    const auto start = Clock::now();
    inner_.next_day_into(out);
    times_.next_day_s += since(start);
    ++times_.days;
  }
  void next_day_into_lane(TraceLane out) override {
    inner_.next_day_into_lane(out);
  }
  std::size_t intervals() const override { return inner_.intervals(); }
  double usage_cap() const override { return inner_.usage_cap(); }

 private:
  TraceSource& inner_;
  LayerTimes& times_;
};

/// Forwards every call to the wrapped policy. end_day is always timed and
/// split by whether the policy replayed virtual days; the block hooks are
/// timed only for pulse widths above 1, since timing a per-interval call
/// would cost more than the call.
class TimedPolicy final : public BlhPolicy {
 public:
  TimedPolicy(BlhPolicy& inner, LayerTimes& times)
      : inner_(inner),
        times_(times),
        rl_(dynamic_cast<RlBlhPolicy*>(&inner)),
        time_blocks_(inner.pulse_width() > 1) {}

  void begin_day(const TouSchedule& prices) override {
    inner_.begin_day(prices);
  }
  double reading(std::size_t n, double battery_level) override {
    return inner_.reading(n, battery_level);
  }
  void observe_usage(std::size_t n, double usage) override {
    inner_.observe_usage(n, usage);
  }
  void end_day() override {
    const std::size_t before = rl_ != nullptr ? rl_->episodes_completed() : 0;
    const auto start = Clock::now();
    inner_.end_day();
    const double elapsed = since(start);
    std::size_t replayed = 0;
    if (rl_ != nullptr && rl_->learning_enabled()) {
      replayed = rl_->episodes_completed() - before - 1;
    }
    if (replayed > 0) {
      times_.replay_s += elapsed;
      times_.virtual_days += replayed;
    } else {
      times_.end_day_s += elapsed;
      ++times_.plain_days;
    }
  }
  std::size_t pulse_width() const override { return inner_.pulse_width(); }
  double fill_block(std::size_t n0, std::size_t width,
                    double battery_level) override {
    if (!time_blocks_) return inner_.fill_block(n0, width, battery_level);
    const auto start = Clock::now();
    const double y = inner_.fill_block(n0, width, battery_level);
    times_.decide_s += since(start);
    ++times_.blocks;
    return y;
  }
  void observe_block(std::size_t n0, ConstTraceLane usage) override {
    if (!time_blocks_) return inner_.observe_block(n0, usage);
    const auto start = Clock::now();
    inner_.observe_block(n0, usage);
    times_.observe_s += since(start);
  }
  std::string_view name() const override { return inner_.name(); }
  bool checkpointable() const override { return inner_.checkpointable(); }
  void save_state(std::ostream& out) const override { inner_.save_state(out); }
  void load_state(std::istream& in) override { inner_.load_state(in); }
  bool passthrough() const override { return inner_.passthrough(); }

 private:
  BlhPolicy& inner_;
  LayerTimes& times_;
  RlBlhPolicy* rl_;
  bool time_blocks_;
};

/// Virtual days RL-BLH replays over `days` real days (paper Algorithm 1:
/// t_R replays of each of the first d_R days, t_G synthetic days every d_G
/// days up to d_MG).
std::size_t expected_virtual_days(const RlBlhConfig& config,
                                  std::size_t days) {
  std::size_t total = 0;
  for (std::size_t d = 1; d <= days; ++d) {
    if (config.enable_reuse && d <= config.reuse_days) {
      total += config.reuse_repeats;
    }
    if (config.enable_synthetic && config.synthetic_period > 0 &&
        d % config.synthetic_period == 0 && d <= config.synthetic_last_day) {
      total += config.synthetic_repeats;
    }
  }
  return total;
}

/// One household through the public calls FleetSimulator's run_blueprint
/// makes, in the same order, with every layer timed.
EvaluationResult traced_household(const ScenarioSpec& spec,
                                  const ScenarioBlueprint& bp,
                                  const TouSchedule& prices,
                                  std::uint64_t fleet_seed, std::size_t index,
                                  RunArena& arena, LayerTimes& times) {
  const std::uint64_t base = derive_stream_seed(fleet_seed, index);
  const std::uint64_t policy_seed = derive_stream_seed(base, 0);
  const std::uint64_t household_seed = derive_stream_seed(base, 1);

  auto start = Clock::now();
  std::unique_ptr<TraceSource> source =
      make_blueprint_source(spec, bp, household_seed);
  SpecParams bag = bp.policy_bag;
  if (!bp.policy_seed_pinned) bag.set("seed", policy_seed);
  std::unique_ptr<BlhPolicy> policy = make_policy(spec.policy, bag);
  pretrain_if_needed(FleetSimulator::resolved_spec(spec, fleet_seed, index),
                     prices, *policy);
  times.setup_s += since(start);

  if (const auto* rl = dynamic_cast<const RlBlhPolicy*>(policy.get())) {
    times.expected_virtual_days += expected_virtual_days(
        rl->config(), spec.train_days + spec.eval_days);
  }
  TimedSource timed_source(*source, times);
  TimedPolicy timed_policy(*policy, times);
  Battery battery(spec.battery_kwh, spec.battery_kwh / 2.0);
  SimEngine& engine = arena.engine();
  if (spec.train_days > 0) {
    start = Clock::now();
    engine.run_days(timed_source, prices, battery, timed_policy,
                    spec.train_days);
    times.run_days_s += since(start);
  }
  start = Clock::now();
  EvaluationAccumulator& accumulator = arena.accumulator(
      source->intervals(), spec.mi_levels, source->usage_cap());
  times.setup_s += since(start);

  start = Clock::now();
  engine.run_days(timed_source, prices, battery, timed_policy, spec.eval_days,
                  [&](std::size_t, const DayResult& day) {
                    const auto observe_start = Clock::now();
                    accumulator.observe_day(day, prices);
                    times.observe_day_s += since(observe_start);
                    ++times.eval_days;
                  });
  times.run_days_s += since(start);

  start = Clock::now();
  EvaluationResult result = accumulator.result();
  times.result_s += since(start);
  ++times.households;
  return result;
}

/// Per-layer metrics of the traced pass. `untraced_1w_s` is the 1-worker
/// FleetSimulator wall of the traced households.
void add_layer_metrics(Report& report, const LayerTimes& t, double traced_s,
                       double untraced_1w_s) {
  const auto per = [](double total, std::size_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const double callees = t.next_day_s + t.decide_s + t.observe_s +
                         t.end_day_s + t.replay_s + t.observe_day_s;
  auto& m = report.metrics;
  m["sim.setup_us"] = 1e6 * per(t.setup_s, t.households);
  m["meter.next_day_us"] = 1e6 * per(t.next_day_s, t.days);
  m["core.decide_ns"] = 1e9 * per(t.decide_s, t.blocks);
  m["core.observe_ns"] = 1e9 * per(t.observe_s, t.blocks);
  m["core.end_day_us"] = 1e6 * per(t.end_day_s, t.plain_days);
  m["core.replay_us_per_virtual_day"] = 1e6 * per(t.replay_s, t.virtual_days);
  m["core.virtual_days"] =
      per(static_cast<double>(t.virtual_days), t.households);
  m["sim.kernel_us"] = 1e6 * per(t.run_days_s - callees, t.days);
  m["privacy.observe_day_us"] = 1e6 * per(t.observe_day_s, t.eval_days);
  m["privacy.result_us"] = 1e6 * per(t.result_s, t.households);
  m["trace.overhead"] = traced_s / untraced_1w_s - 1.0;

  // Shares of the traced wall, for reading the layer split at a glance.
  const double kernel_s = t.run_days_s - callees;
  std::fprintf(stderr,
               "traced %zu households, %.3f s (untraced 1 worker %.3f s)\n"
               "  share  setup %.3f  next_day %.3f  decide+observe %.3f  "
               "end_day %.3f  replay %.3f  kernel %.3f  observe_day %.3f  "
               "result %.3f\n",
               t.households, traced_s, untraced_1w_s, t.setup_s / traced_s,
               t.next_day_s / traced_s, (t.decide_s + t.observe_s) / traced_s,
               t.end_day_s / traced_s, t.replay_s / traced_s,
               kernel_s / traced_s, t.observe_day_s / traced_s,
               t.result_s / traced_s);
}

}  // namespace

Report run_fleet(const Args& args) {
  const FleetShape shape = fleet_shape(args.workload, args.tiny);
  const std::size_t workers =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::vector<ScenarioSpec> specs =
      fleet_specs(shape, shape.households);
  const std::size_t days_per_household = shape.train_days + shape.eval_days;
  Report report;

  // Cold warm-up: one household per blueprint at the workload's worker
  // count pays for first-touch costs (worker arenas, MI tables, caches).
  const TimedRun warm =
      timed_fleet_run(fleet_specs(shape, shape.mix.size()), workers, args.seed);
  report.setup_s.push_back(warm.seconds);
  if (args.setup_only) {
    report.attempted = shape.mix.size();
    return report;
  }

  // Timed repetitions of the whole fleet.
  std::vector<double> walls;
  std::vector<double> cpu_seconds;
  FleetResult first;
  const auto deadline_start = Clock::now();
  do {
    TimedRun run = timed_fleet_run(specs, workers, args.seed);
    walls.push_back(run.seconds);
    cpu_seconds.push_back(run.cpu_seconds);
    report.attempted += specs.size();
    if (walls.size() == 1) {
      first = std::move(run.result);
      continue;
    }
    for (std::size_t h = 0; h < specs.size(); ++h) {
      if (!same_result(run.result.households[h], first.households[h])) {
        ++report.failed;
        report.errors.push_back("repetition " + std::to_string(walls.size()) +
                                " differs at household " + std::to_string(h));
      }
    }
  } while (seconds_between(deadline_start, Clock::now()) < args.seconds);
  report.metrics["peak_rss_mb"] = peak_rss_mb();
  std::fprintf(stderr, "%s: %zu households x %zu days, %zu workers, walls",
               args.workload.c_str(), specs.size(), days_per_household,
               workers);
  for (const double wall : walls) std::fprintf(stderr, " %.3f", wall);
  std::fprintf(stderr, " s\n");

  // Throughput over the whole timed window; the step/close service times
  // are CPU time, so workers idling at the end of a repetition do not count.
  const double household_days =
      static_cast<double>(specs.size() * days_per_household);
  double timed_s = 0.0;
  for (const double wall : walls) timed_s += wall;
  std::vector<double> per_day_us;
  std::vector<double> per_household_ms;
  for (const double cpu : cpu_seconds) {
    per_day_us.push_back(1e6 * cpu / household_days);
    per_household_ms.push_back(1e3 * cpu / static_cast<double>(specs.size()));
  }
  report.metrics["household_days_per_s"] =
      household_days * static_cast<double>(walls.size()) / timed_s;
  report.metrics["step_p50_us"] = median(per_day_us);
  report.metrics["close_p50_ms"] = median(per_household_ms);
  report.metrics["close_tail_ms"] = quantile(per_household_ms, 1.0);

  // Reference aggregates, printed exactly for run.py to compare.
  const auto add_summary = [&](const std::string& name,
                               const MetricSummary& s) {
    report.exact[name + ".mean"] = exact_double(s.mean);
    report.exact[name + ".p50"] = exact_double(s.p50);
    report.exact[name + ".p95"] = exact_double(s.p95);
  };
  add_summary("sr", first.saving_ratio);
  add_summary("cc", first.mean_cc);
  add_summary("mi", first.normalized_mi);
  report.exact["violations"] = std::to_string(first.battery_violations);

  // Independent path: one household per blueprint through run_spec.
  for (std::size_t h = 0; h < shape.mix.size(); ++h) {
    const ScenarioSpec spec =
        FleetSimulator::resolved_spec(specs[h], args.seed, h);
    const EvaluationResult direct =
        run_spec(spec, make_scenario_pricing(spec));
    if (!same_result(direct, first.households[h])) {
      ++report.failed;
      report.errors.push_back("household " + std::to_string(h) +
                              " differs from run_spec");
    }
  }

  if (!args.trace) return report;

  // Traced pass over the first households, one after another.
  const std::vector<ScenarioSpec> traced_specs(
      specs.begin(), specs.begin() + static_cast<long>(shape.traced));
  const TimedRun one_worker = timed_fleet_run(traced_specs, 1, args.seed);
  // Shared per-blueprint state is built once, as FleetSimulator does before
  // its fan-out, so it is not per-household set-up.
  std::vector<ScenarioBlueprint> blueprints;
  std::vector<TouSchedule> plans;
  for (std::size_t i = 0; i < shape.mix.size(); ++i) {
    blueprints.push_back(make_scenario_blueprint(specs[i]));
    plans.push_back(make_scenario_pricing(specs[i]));
  }
  LayerTimes times;
  RunArena arena;
  const auto traced_start = Clock::now();
  for (std::size_t h = 0; h < traced_specs.size(); ++h) {
    const std::size_t mix_index = h % shape.mix.size();
    const EvaluationResult traced = traced_household(
        traced_specs[h], blueprints[mix_index], plans[mix_index], args.seed, h,
        arena, times);
    if (!same_result(traced, first.households[h])) {
      ++report.failed;
      report.errors.push_back("traced household " + std::to_string(h) +
                              " differs from the fleet run");
    }
  }
  const double traced_s = seconds_between(traced_start, Clock::now());
  if (times.virtual_days != times.expected_virtual_days) {
    ++report.failed;
    report.errors.push_back(
        "replayed " + std::to_string(times.virtual_days) +
        " virtual days, config implies " +
        std::to_string(times.expected_virtual_days));
  }
  add_layer_metrics(report, times, traced_s, one_worker.seconds);
  // The 1-worker wall of the traced prefix, scaled to the whole fleet.
  const double full_1w_s = one_worker.seconds *
                           static_cast<double>(specs.size()) /
                           static_cast<double>(traced_specs.size());
  report.metrics["sim.fleet_efficiency"] =
      full_1w_s / (static_cast<double>(workers) * median(walls));
  return report;
}

}  // namespace rlblh::perfbench
