// simulate_cli — a command-line front end over the whole library.
//
// Runs any registered battery policy against a registered household preset
// (or a replayed CSV trace) under a registered tariff, reports the paper's
// three metrics, and can persist/restore learned RL-BLH weights. A whole
// run is one scenario-registry spec string; the legacy flags survive as
// overrides applied on top of the spec.
//
//   simulate_cli [--scenario "policy=rlblh;household=weekday_heavy;..."]
//                [--list]
//                [--policy rl-blh|low-pass|stepping|random|mdp|none]
//                [--plan srp|flat|three-zone|tou2|rtp]
//                [--battery KWH] [--nd MINUTES] [--seed N]
//                [--train DAYS] [--eval DAYS]
//                [--fleet N] [--threads T]
//                [--trace-in usage.csv] [--trace-out day.csv]
//                [--load-weights w.txt] [--save-weights w.txt]
//                [--check-invariants] [--obs [--obs-out run.json]]
//
// Examples:
//   simulate_cli                                  # paper defaults
//   simulate_cli --scenario "policy=lowpass;battery=3"
//   simulate_cli --list                           # registered components
//   simulate_cli --train 60 --save-weights w.txt  # learn, persist
//   simulate_cli --train 0 --load-weights w.txt   # deploy learned weights
//   simulate_cli --fleet 1000 --threads 4         # 1000 households
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <iostream>

#include "baselines/policy_registry.h"
#include "core/rlblh_policy.h"
#include "core/serialize.h"
#include "meter/household_registry.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/metrics_dump.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "pricing/pricing_registry.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "util/csv.h"

namespace {

using namespace rlblh;

struct Options {
  std::string scenario;
  bool list = false;
  std::optional<std::string> policy;
  std::optional<std::string> plan;
  std::optional<double> battery;
  std::optional<std::size_t> nd;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> train;
  std::optional<std::size_t> eval;
  std::size_t fleet = 0;
  std::size_t threads = 0;
  std::string trace_in;
  std::string trace_out;
  std::string load_weights;
  std::string save_weights;
  bool check_invariants = false;
  bool obs = false;
  std::string obs_out;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--scenario SPEC] [--list]\n"
               "          [--policy rl-blh|low-pass|stepping|random|mdp|none]\n"
               "          [--plan srp|flat|three-zone|tou2|rtp]\n"
               "          [--battery KWH]\n"
               "          [--nd MINUTES] [--seed N] [--train DAYS]\n"
               "          [--eval DAYS] [--fleet N] [--threads T]\n"
               "          [--trace-in usage.csv]\n"
               "          [--trace-out day.csv] [--load-weights w.txt]\n"
               "          [--save-weights w.txt] [--check-invariants]\n"
               "          [--obs] [--obs-out run.json]\n"
               "SPEC is `key=value;...` — e.g. \"policy=rlblh;"
               "household=weekday_heavy;pricing=tou2;battery=13.5\";\n"
               "dotted keys (policy.alpha=0.01, pricing.rate=11, "
               "household.scale=1.2) reach the component factories.\n"
               "--fleet N runs N households of the resolved spec through\n"
               "FleetSimulator (per-household seeds derived from --seed).\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    if (flag == "--scenario") {
      options.scenario = value();
    } else if (flag == "--list") {
      options.list = true;
    } else if (flag == "--policy") {
      options.policy = value();
    } else if (flag == "--plan") {
      options.plan = value();
    } else if (flag == "--battery") {
      options.battery = std::stod(value());
    } else if (flag == "--nd") {
      options.nd = std::stoul(value());
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--train") {
      options.train = std::stoul(value());
    } else if (flag == "--eval") {
      options.eval = std::stoul(value());
    } else if (flag == "--fleet") {
      options.fleet = std::stoul(value());
    } else if (flag == "--threads") {
      options.threads = std::stoul(value());
    } else if (flag == "--trace-in") {
      options.trace_in = value();
    } else if (flag == "--trace-out") {
      options.trace_out = value();
    } else if (flag == "--load-weights") {
      options.load_weights = value();
    } else if (flag == "--save-weights") {
      options.save_weights = value();
    } else if (flag == "--check-invariants") {
      options.check_invariants = true;
    } else if (flag == "--obs") {
      options.obs = true;
    } else if (flag == "--obs-out") {
      options.obs = true;
      options.obs_out = value();
    } else {
      usage_and_exit(argv[0]);
    }
  }
  return options;
}

void print_component_list() {
  const auto print = [](const char* family,
                        const std::vector<std::string>& names) {
    std::printf("%s:", family);
    for (const auto& name : names) std::printf(" %s", name.c_str());
    std::printf("\n");
  };
  print("policies", policy_names());
  print("households", household_names());
  print("pricing plans", pricing_names());
  std::printf("\nspec grammar: key=value;key2=value2 with top-level keys\n"
              "  policy household pricing battery nd seed hseed train eval "
              "mi\nand dotted component parameters "
              "(policy.alpha, household.scale, pricing.rate, ...).\n");
}

/// The effective spec: the --scenario string (or defaults), with any
/// explicit legacy flags layered on top.
ScenarioSpec resolve_spec(const Options& options) {
  ScenarioSpec spec = options.scenario.empty()
                          ? ScenarioSpec{}
                          : ScenarioSpec::parse(options.scenario);
  if (options.policy.has_value()) spec.policy = *options.policy;
  if (options.plan.has_value()) spec.pricing = *options.plan;
  if (options.battery.has_value()) spec.battery_kwh = *options.battery;
  if (options.nd.has_value()) spec.nd = *options.nd;
  if (options.seed.has_value()) spec.seed = *options.seed;
  if (options.train.has_value()) spec.train_days = *options.train;
  if (options.eval.has_value()) spec.eval_days = *options.eval;
  if (!options.trace_in.empty()) {
    spec.household = "csv";
    spec.household_params.set("path", options.trace_in);
  }
  // The rtp plan has always drawn its block rates from the run seed unless
  // told otherwise.
  if (spec.pricing == "rtp" && !spec.pricing_params.has("seed")) {
    spec.pricing_params.set("seed", spec.seed);
  }
  return spec;
}

bool pulse_shaped_policy(const std::string& name) {
  return name == "rlblh" || name == "rl-blh" || name == "random_pulse" ||
         name == "random-pulse" || name == "random";
}

/// --fleet N: N households of the resolved spec through FleetSimulator.
/// FleetSimulator re-seeds every household from (--seed, index), so the
/// fleet is reproducible from the same one number as the single run.
int run_fleet(const Options& options, const ScenarioSpec& spec) {
  FleetOptions run;
  run.threads = options.threads;
  run.keep_households = false;
  FleetSimulator fleet(std::vector<ScenarioSpec>(options.fleet, spec), run);

  std::printf("fleet of %zu x [%s] | threads %zu\n", fleet.size(),
              spec.canonical().c_str(), options.threads);
  const FleetResult r = fleet.run(spec.seed);
  std::printf("over %zu evaluation day(s) per household:\n", spec.eval_days);
  std::printf("  saving ratio : mean %6.2f %% | p50 %6.2f %% | p95 %6.2f %%\n",
              100.0 * r.saving_ratio.mean, 100.0 * r.saving_ratio.p50,
              100.0 * r.saving_ratio.p95);
  std::printf("  CC           : mean %7.4f | p50 %7.4f | p95 %7.4f\n",
              r.mean_cc.mean, r.mean_cc.p50, r.mean_cc.p95);
  std::printf("  MI           : mean %7.4f | p50 %7.4f | p95 %7.4f\n",
              r.normalized_mi.mean, r.normalized_mi.p50, r.normalized_mi.p95);
  std::printf("  violations   : %zu\n", r.battery_violations);
  return 0;
}

/// One household of the resolved spec through run_scenario: optional
/// pre-trained weights, the spec's train/eval schedule, trace/weight export.
int run_single(const Options& options, const ScenarioSpec& spec) {
  Scenario scenario = build_scenario(spec);
  const TouSchedule& prices = scenario.prices;

  if (!options.trace_in.empty()) {
    std::printf("replaying %zu day(s) from %s\n",
                dynamic_cast<CsvTraceSource&>(*scenario.source).day_count(),
                options.trace_in.c_str());
  }
  if (!options.load_weights.empty()) {
    auto* rl = scenario.policy_as<RlBlhPolicy>();
    if (rl == nullptr) {
      std::fprintf(stderr, "--load-weights needs the rlblh policy\n");
      return 2;
    }
    rl->q() = load_weights_file(options.load_weights);
    std::printf("loaded weights from %s\n", options.load_weights.c_str());
  }
  std::printf("policy %s | plan %s | battery %.1f kWh | n_D %zu\n",
              std::string(scenario.policy->name()).c_str(),
              spec.pricing.c_str(), spec.battery_kwh, spec.nd);

  if (options.check_invariants) {
    // Pulse-shaped policies get the full Section II/III-B suite; the
    // non-pulse baselines (and passthrough) get the bound and accounting
    // checks only. The engine then fails fast on the first bad day.
    const bool pulse_shaped = pulse_shaped_policy(spec.policy);
    InvariantCheckConfig check;
    check.battery_capacity = spec.battery_kwh;
    check.usage_cap = pulse_shaped ? kDefaultUsageCap : 0.0;
    check.decision_interval = pulse_shaped ? spec.nd : 0;
    check.expect_feasible = pulse_shaped;
    scenario.arena.engine().enable_invariant_checks(check);
    std::printf("invariant checks: on (%s profile)\n",
                pulse_shaped ? "pulse" : "bounds-only");
  }

  const EvaluationResult r = [&] {
    RLBLH_OBS_SPAN("cli.run");
    return run_scenario(scenario);
  }();
  if (spec.train_days > 0) {
    std::printf("trained %zu day(s)\n", spec.train_days);
  }
  std::printf("over %zu evaluation day(s):\n", spec.eval_days);
  std::printf("  saving ratio : %6.2f %%\n", 100.0 * r.saving_ratio);
  std::printf("  daily savings: %6.2f cents (bill %.1f of %.1f)\n",
              r.mean_daily_savings_cents, r.mean_daily_bill_cents,
              r.mean_daily_usage_cost_cents);
  std::printf("  CC           : %7.4f\n", r.mean_cc);
  std::printf("  MI           : %7.4f\n", r.normalized_mi);
  std::printf("  violations   : %zu\n", r.battery_violations);

  if (!options.trace_out.empty()) {
    const DayResult& day = scenario.run_day();
    CsvTable table;
    table.header = {"n", "rate", "usage_kwh", "reading_kwh", "battery_kwh"};
    for (std::size_t n = 0; n < day.usage.intervals(); ++n) {
      table.rows.push_back({static_cast<double>(n), prices.rate(n),
                            day.usage.at(n), day.readings.at(n),
                            day.battery_levels[n]});
    }
    write_csv_file(options.trace_out, table);
    std::printf("wrote one day of traces to %s\n",
                options.trace_out.c_str());
  }

  if (!options.save_weights.empty()) {
    auto* rl = scenario.policy_as<RlBlhPolicy>();
    if (rl == nullptr) {
      std::fprintf(stderr, "--save-weights needs the rlblh policy\n");
      return 2;
    }
    save_weights_file(options.save_weights, rl->q());
    std::printf("saved weights to %s\n", options.save_weights.c_str());
  }

  return 0;
}

/// Writes the run manifest (--obs / --obs-out) for either run shape.
int write_run_manifest(const Options& options, const ScenarioSpec& spec,
                       int argc, char** argv) {
  obs::RunInfo info;
  info.name = "simulate_cli";
  info.command.assign(argv, argv + argc);
  info.config = {
      {"policy", spec.policy},
      {"household", spec.household},
      {"plan", spec.pricing},
      {"battery_kwh", std::to_string(spec.battery_kwh)},
      {"nd", std::to_string(spec.nd)},
      {"seed", std::to_string(spec.seed)},
      {"train_days", std::to_string(spec.train_days)},
      {"eval_days", std::to_string(spec.eval_days)},
      {"scenario", spec.canonical()},
  };
  if (options.fleet > 0) {
    info.config.emplace_back("fleet", std::to_string(options.fleet));
    info.config.emplace_back("threads", std::to_string(options.threads));
  }
  const std::string path = options.obs_out.empty()
                               ? obs::default_manifest_path(info.name)
                               : options.obs_out;
  if (!obs::write_manifest_file(path, info)) return 1;
  std::printf("wrote run manifest to %s\n", path.c_str());
  obs::dump_all(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  if (const char* env = std::getenv("RLBLH_OBS_OUT")) {
    if (env[0] != '\0') options.obs = true;
  }
  try {
    if (options.list) {
      print_component_list();
      return 0;
    }
    if (options.obs) {
      obs::registry().reset();
      obs::Tracer::instance().reset();
      obs::set_enabled(true);
    }
    const ScenarioSpec spec = resolve_spec(options);
    if (options.fleet > 0) {
      if (!options.trace_out.empty() || !options.load_weights.empty() ||
          !options.save_weights.empty() || options.check_invariants) {
        std::fprintf(stderr, "--fleet is incompatible with --trace-out, "
                             "--load/save-weights and --check-invariants\n");
        return 2;
      }
    }
    const int status = options.fleet > 0 ? run_fleet(options, spec)
                                         : run_single(options, spec);
    if (status != 0 || !options.obs) return status;
    return write_run_manifest(options, spec, argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
