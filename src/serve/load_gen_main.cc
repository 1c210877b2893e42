// load_gen — drives simulated households against a running rlblh_serve.
//
//   load_gen --endpoint unix:/tmp/rlblh.sock --households 50 --days 2
//
// Deterministic per-household usage streams (see serve/load_gen.h), client
// RTT percentiles on stdout, optional JSON for scripts. Exit 0 only when
// every household reached the target day count.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "core/registry.h"
#include "serve/load_gen.h"
#include "util/error.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --endpoint unix:PATH|tcp:PORT [--households N] [--days D]\n"
      "          [--spec SCENARIO] [--seed-base S] [--batch INTERVALS]\n"
      "          [--threads T] [--no-final-checkpoint] [--json PATH]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rlblh::serve::LoadGenConfig config;
  std::string json_path;
  // Numeric flags take digits only (parse_u64): "-1" or "2x" is a usage
  // error, not a wrapped or truncated value.
  const auto number = [&](int& i, auto& out) {
    const auto value =
        i + 1 < argc ? rlblh::parse_u64(argv[++i]) : std::nullopt;
    if (value) out = *value;
    return value.has_value();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--endpoint" && has_value) {
      config.endpoint = argv[++i];
    } else if (arg == "--households") {
      if (!number(i, config.households)) return usage(argv[0]);
    } else if (arg == "--days") {
      if (!number(i, config.days)) return usage(argv[0]);
    } else if (arg == "--spec" && has_value) {
      config.base_spec = argv[++i];
    } else if (arg == "--seed-base") {
      if (!number(i, config.seed_base)) return usage(argv[0]);
    } else if (arg == "--batch") {
      if (!number(i, config.batch_intervals)) return usage(argv[0]);
    } else if (arg == "--threads") {
      if (!number(i, config.threads)) return usage(argv[0]);
    } else if (arg == "--no-final-checkpoint") {
      config.final_checkpoint = false;
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (config.endpoint.empty()) return usage(argv[0]);

  try {
    const rlblh::serve::LoadGenResult result = rlblh::serve::run_load(config);
    const double p50 = result.rtt_quantile(0.50);
    const double p99 = result.rtt_quantile(0.99);
    const double steps_per_sec =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.intervals_sent) / result.wall_seconds
            : 0.0;
    std::printf("load_gen: %zu households, %zu days, %zu intervals, "
                "%zu frames, %zu reconnects, %zu draining waits\n",
                result.households, result.days_completed,
                result.intervals_sent, result.frames_sent,
                result.reconnects, result.draining_waits);
    std::printf("load_gen: %.2f s wall, %.0f intervals/s, "
                "rtt p50 %.1f us, p99 %.1f us\n",
                result.wall_seconds, steps_per_sec, p50, p99);
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "load_gen: cannot write '%s'\n",
                     json_path.c_str());
        return 1;
      }
      out << "{\n"
          << "  \"households\": " << result.households << ",\n"
          << "  \"days_completed\": " << result.days_completed << ",\n"
          << "  \"intervals_sent\": " << result.intervals_sent << ",\n"
          << "  \"frames_sent\": " << result.frames_sent << ",\n"
          << "  \"reconnects\": " << result.reconnects << ",\n"
          << "  \"draining_waits\": " << result.draining_waits << ",\n"
          << "  \"wall_seconds\": " << result.wall_seconds << ",\n"
          << "  \"intervals_per_sec\": " << steps_per_sec << ",\n"
          << "  \"rtt_p50_us\": " << p50 << ",\n"
          << "  \"rtt_p99_us\": " << p99 << "\n"
          << "}\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load_gen: %s\n", e.what());
    return 1;
  }
}
