// Fleet: run many households at once.
//
// Builds a fleet of ScenarioSpecs (a repeating mix of policies, household
// presets and pricing plans, or N copies of one --scenario spec), runs it
// through FleetSimulator, and prints the fleet aggregates. The worker
// thread count is a plain flag, so this is also the quickest way to see the
// fleet's determinism contract in action: every thread count produces
// bitwise-identical aggregates, only the wall clock moves.
//
//   fleet [--households N] [--train DAYS] [--eval DAYS] [--seed N]
//         [--threads T] [--scenario SPEC]
//
// Examples:
//   fleet --households 1000 --threads 8
//   fleet --scenario "policy=lowpass;battery=3" --households 64
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/fleet.h"
#include "sim/scenario.h"

namespace {

using namespace rlblh;

struct Options {
  std::size_t households = 256;
  std::size_t train_days = 5;
  std::size_t eval_days = 5;
  std::uint64_t seed = 7;
  std::size_t threads = 0;  // 0: ThreadPool default
  std::string scenario;     // empty: the built-in heterogeneous mix
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--households N] [--train DAYS] [--eval DAYS]\n"
               "          [--seed N] [--threads T] [--scenario SPEC]\n",
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
    if (flag == "--households") {
      options.households = std::stoul(value());
    } else if (flag == "--train") {
      options.train_days = std::stoul(value());
    } else if (flag == "--eval") {
      options.eval_days = std::stoul(value());
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--threads") {
      options.threads = std::stoul(value());
    } else if (flag == "--scenario") {
      options.scenario = value();
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (options.households == 0) usage_and_exit(argv[0]);
  return options;
}

/// N copies of --scenario share one blueprint; the built-in mix cycles
/// through four.
std::vector<ScenarioSpec> build_fleet(const Options& options) {
  static const char* const kMixes[] = {
      "policy=rlblh;household=default;pricing=srp;battery=5",
      "policy=rlblh;household=ev_owner;pricing=srp;battery=7",
      "policy=lowpass;household=apartment;pricing=flat;battery=3",
      "policy=random_pulse;household=weekday_heavy;pricing=srp;battery=4",
  };
  const std::size_t n_mixes = sizeof(kMixes) / sizeof(kMixes[0]);
  std::vector<ScenarioSpec> fleet;
  fleet.reserve(options.households);
  for (std::size_t index = 0; index < options.households; ++index) {
    ScenarioSpec spec =
        options.scenario.empty()
            ? ScenarioSpec::parse(kMixes[index % n_mixes])
            : ScenarioSpec::parse(options.scenario);
    spec.train_days = options.train_days;
    spec.eval_days = options.eval_days;
    fleet.push_back(std::move(spec));
  }
  return fleet;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    FleetOptions run;
    run.threads = options.threads;
    run.keep_households = false;  // aggregates only

    FleetSimulator fleet(build_fleet(options), run);
    std::printf("fleet: %zu households, %zu+%zu days, seed %llu, "
                "threads %zu\n",
                fleet.size(), options.train_days, options.eval_days,
                static_cast<unsigned long long>(options.seed),
                options.threads);

    const auto start = std::chrono::steady_clock::now();
    const FleetResult result = fleet.run(options.seed);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const double simulated_days =
        static_cast<double>(fleet.size()) *
        static_cast<double>(options.train_days + options.eval_days);

    std::printf("  wall               : %.3f s (%.0f household-days/s)\n",
                seconds, seconds > 0.0 ? simulated_days / seconds : 0.0);
    std::printf("  saving ratio       : mean %5.1f %% | p50 %5.1f %% | "
                "p95 %5.1f %%\n",
                100.0 * result.saving_ratio.mean,
                100.0 * result.saving_ratio.p50,
                100.0 * result.saving_ratio.p95);
    std::printf("  correlation (CC)   : mean %7.4f | p50 %7.4f | "
                "p95 %7.4f\n",
                result.mean_cc.mean, result.mean_cc.p50, result.mean_cc.p95);
    std::printf("  mutual info (MI)   : mean %7.4f | p50 %7.4f | "
                "p95 %7.4f\n",
                result.normalized_mi.mean, result.normalized_mi.p50,
                result.normalized_mi.p95);
    std::printf("  battery violations : %zu\n", result.battery_violations);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
