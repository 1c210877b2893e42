// perfbench — the measuring half of the repository benchmark.
//
//   perfbench --workload fleet_rl --seed 3 --seconds 10 --trace 0
//   perfbench --workload serve_meters --seed 3 --seconds 10 --trace 1
//             --daemon .bench_build/perfbench_daemon --dir .bench_build/run
//
// Runs one workload and prints one JSON line of raw metrics; run.py turns
// it into the benchmark's result. Exit codes: 0 ran (the line says whether
// the outputs were correct), 2 usage error, 1 the workload could not run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--setup-only] [--daemon PATH] "
               "[--dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using rlblh::perfbench::Args;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (arg == "--daemon" && has_value) {
      args.daemon = argv[++i];
    } else if (arg == "--dir" && has_value) {
      args.dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0.0) return usage();
  try {
    rlblh::perfbench::Report report;
    if (args.workload == "fleet_rl" || args.workload == "fleet_eval") {
      report = rlblh::perfbench::run_fleet(args);
    } else if (args.workload == "serve_meters" ||
               args.workload == "serve_midnight") {
      if (args.daemon.empty() || args.dir.empty()) return usage();
      report = rlblh::perfbench::run_serve(args);
    } else {
      return usage();
    }
    rlblh::perfbench::print_report(report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
