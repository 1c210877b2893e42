// Shared pieces of the benchmark harness: the command line, clocks,
// quantiles, peak memory and the one-line JSON report.
#pragma once

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/fleet.h"

namespace rlblh::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Options every workload receives.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;         ///< self-test size: same code, small inputs
  bool setup_only = false;   ///< fleet: run only the cold warm-up
  std::string daemon;        ///< serve: path of the daemon host binary
  std::string dir;           ///< serve: scratch directory for this run
};

/// What a workload hands back to main(): metrics by name plus the
/// correctness tally, printed as one JSON line.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> exact;  ///< values compared verbatim
  std::vector<double> setup_s;               ///< one sample per set-up
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

/// The fleet aggregates' linear-interpolation quantile (q in [0, 1]), with
/// 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : fleet_quantile(std::move(values), q);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set of this process in MB, from /proc/self/status VmHWM;
/// 0 when unavailable.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

/// Exact text of a double: shortest form that reads back to the same bits.
inline std::string exact_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Prints the report as one JSON line on stdout.
inline void print_report(const Report& report) {
  std::string line = "{\"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": " +
            (std::isfinite(value) ? exact_double(value) : std::string("null"));
  }
  line += "}, \"exact\": {";
  first = true;
  for (const auto& [name, value] : report.exact) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": \"" + value + "\"";
  }
  line += "}, \"setup_s\": [";
  for (std::size_t i = 0; i < report.setup_s.size(); ++i) {
    if (i > 0) line += ", ";
    line += exact_double(report.setup_s[i]);
  }
  line += "], \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + json_escape(report.errors[i]) + "\"";
  }
  line += "]}\n";
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

Report run_fleet(const Args& args);
Report run_serve(const Args& args);

}  // namespace rlblh::perfbench
