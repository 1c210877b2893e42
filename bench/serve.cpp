// Serving-path benchmark: in-process rlblh_serve daemons on unix sockets,
// driven by the same clients CI's serve-smoke job runs out of process.
// Two legs:
//
//   1. Metering throughput — the load generator drives a fleet against the
//      daemon: end-to-end household-days/sec through the frame protocol,
//      engine stepping, and per-day checkpoint writes, plus per-interval
//      step latency.
//   2. Connection sweep — how many concurrently-open connections the daemon
//      sustains with a bounded ping p99.
//
// Headline metrics:
//   serve_households_per_core        leg 1 household-days/sec per thread
//   serve_intervals_per_sec          leg 1 intervals ingested per second
//   step_latency_p50_us / _p99_us    leg 1 frame RTT / intervals-per-frame
//   serve_conns_sustained_eventloop  leg 2 conns admitted + answering
//   serve_conn_p99_ms_eventloop      leg 2 ping p99 across open conns
//
// Throughput/timing figures are machine measurements, exempt from the
// strict drift gate and covered by the wall budget; the sustained
// connection count is a capacity measurement gated by compare_serve in
// bench_compare.py (at least the baseline's count, at p99 <=
// --serve-p99-bound-ms).
#include "bench_main.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/load_gen.h"
#include "serve/net.h"
#include "serve/server.h"
#include "util/error.h"

namespace rlblh::bench {

const char* const kBenchName = "serve";

namespace {

namespace fs = std::filesystem;
using namespace rlblh::serve;

/// Nearest-rank p-quantile of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  return values[rank];
}

// --- leg 2: connection sweep --------------------------------------------

struct SweepResult {
  std::size_t sustained = 0;  ///< conns admitted AND answering a ping
  double p99_ms = 0.0;        ///< ping p99 with all conns held open
};

/// Opens up to `target` connections against `endpoint`, each completing a
/// Hello, then pings every open connection (Stats round-trip) while all of
/// them are held open. A connection past the daemon's admission cap is
/// closed without a reply, which surfaces as a transport error and ends
/// the ramp — so `sustained` measures the daemon, not the target.
SweepResult sweep_connections(const std::string& endpoint,
                              std::size_t target) {
  constexpr std::uint64_t kHousehold = 1;
  const std::string spec = "policy=rlblh;seed=1";
  std::vector<std::unique_ptr<ServeClient>> conns;
  conns.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    auto client = std::make_unique<ServeClient>(
        endpoint, /*backoff_seed=*/0x5eedu + i);
    try {
      client->connect(/*max_attempts=*/1);
      client->hello(kHousehold, spec);
    } catch (const DataError&) {
      break;  // admission cap reached (or the daemon is saturated)
    }
    conns.push_back(std::move(client));
  }

  SweepResult result;
  std::vector<double> rtt_ms;
  rtt_ms.reserve(conns.size());
  for (auto& client : conns) {
    try {
      client->stats(kHousehold);
    } catch (const DataError&) {
      continue;  // admitted but unable to answer: not sustained
    }
    rtt_ms.push_back(
        std::chrono::duration<double, std::milli>(client->last_rtt())
            .count());
  }
  result.sustained = rtt_ms.size();
  result.p99_ms = quantile(std::move(rtt_ms), 0.99);
  return result;
}

ServeConfig daemon_config(const fs::path& scratch, const std::string& tag) {
  ServeConfig config;
  config.listen = "unix:" + (scratch / (tag + ".sock")).string();
  config.checkpoint_dir = (scratch / (tag + "_ckpt")).string();
  return config;
}

}  // namespace

void bench_body(BenchContext& ctx) {
  std::printf("Serving path: in-process daemons + clients over unix "
              "sockets\n\n");
  raise_fd_limit();

  const fs::path scratch = fs::absolute("serve_bench_scratch");
  fs::remove_all(scratch);
  fs::create_directories(scratch);

  // --- leg 1: load_gen metering throughput ------------------------------
  {
    ServeConfig server_config = daemon_config(scratch, "throughput");
    ServeServer server(server_config);
    server.start();

    LoadGenConfig load;
    load.endpoint = server.endpoint();
    load.households = static_cast<std::size_t>(ctx.days(16, 6));
    load.days = static_cast<std::size_t>(ctx.days(4, 2));
    load.seed_base = 1;
    load.threads = std::max<std::size_t>(ctx.threads(), 1);
    const LoadGenResult result = run_load(load);
    server.stop();

    ctx.count_cells(result.households);
    ctx.count_days(result.days_completed);

    const double wall = result.wall_seconds > 0.0 ? result.wall_seconds : 1e-9;
    const double intervals_per_sec =
        static_cast<double>(result.intervals_sent) / wall;
    const double household_days_per_sec =
        static_cast<double>(result.days_completed) / wall;
    const double per_core =
        household_days_per_sec / static_cast<double>(load.threads);
    // Frame RTT divided by the frame's interval count: the per-reading cost
    // of the full path (protocol, socket, engine step, ack).
    const double batch = static_cast<double>(load.batch_intervals);
    const double p50_us = result.rtt_quantile(0.50) / batch;
    const double p99_us = result.rtt_quantile(0.99) / batch;

    std::printf("[throughput] %zu households x %zu days, %zu client "
                "threads\n", result.households, load.days, load.threads);
    std::printf("[throughput] intervals/sec %.0f, household-days/s/core "
                "%.1f, step p50 %.3f us, p99 %.3f us\n\n",
                intervals_per_sec, per_core, p50_us, p99_us);

    ctx.metric("serve_households_per_core", per_core);
    ctx.metric("serve_intervals_per_sec", intervals_per_sec);
    ctx.metric("step_latency_p50_us", p50_us);
    ctx.metric("step_latency_p99_us", p99_us);
  }

  // --- leg 2: sustained connections -------------------------------------
  {
    const std::size_t target = static_cast<std::size_t>(ctx.days(3072, 384));
    ServeServer server(daemon_config(scratch, "sweep"));
    server.start();
    const SweepResult sweep = sweep_connections(server.endpoint(), target);
    server.stop();

    std::printf("[conns] %zu sustained (target %zu), ping p99 %.3f ms\n\n",
                sweep.sustained, target, sweep.p99_ms);

    ctx.metric("serve_conns_sustained_eventloop",
               static_cast<double>(sweep.sustained));
    ctx.metric("serve_conn_p99_ms_eventloop", sweep.p99_ms);
  }

  fs::remove_all(scratch);
}

}  // namespace rlblh::bench
