// rlblh_serve — the online metering daemon.
//
//   rlblh_serve --listen unix:/tmp/rlblh.sock --checkpoint-dir /var/lib/rlblh
//
// Accepts households over the serve/protocol.h frame protocol, steps each
// one's policy as readings arrive, and checkpoints at day boundaries so a
// restart resumes bitwise-identically (DESIGN.md §15). SIGTERM/SIGINT
// trigger a graceful drain: stop accepting, finish in-flight frames,
// persist every household's newest completed day, exit 0 — or 1 when any
// checkpoint failed to save while serving or draining. With --obs the
// drained daemon writes an rlblh-run-v1 manifest (RUN_serve.json, or the
// RLBLH_OBS_OUT path).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "core/registry.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "util/error.h"

namespace {

// Signal flag + self-pipe: the handler only writes a byte; the main thread
// blocks on the pipe, so shutdown needs no polling loop.
volatile std::sig_atomic_t g_signaled = 0;
int g_wake_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  g_signaled = 1;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = write(g_wake_pipe[1], &byte, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --checkpoint-dir DIR [--listen unix:PATH|tcp:PORT]"
               " [--checkpoint-period DAYS] [--shards N]"
               " [--max-connections N] [--obs]\n"
               "  DAYS >= 1; N <= %zu shards (0 = auto)\n",
               argv0, rlblh::serve::kMaxShards);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rlblh::serve::ServeConfig config;
  bool obs_on = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--listen" && has_value) {
      config.listen = argv[++i];
    } else if (arg == "--checkpoint-dir" && has_value) {
      config.checkpoint_dir = argv[++i];
    } else if (arg == "--checkpoint-period" && has_value) {
      const auto days = rlblh::parse_u64(argv[++i]);
      if (!days || *days == 0) return usage(argv[0]);
      config.checkpoint_period_days = *days;
    } else if (arg == "--shards" && has_value) {
      const auto shards = rlblh::parse_u64(argv[++i]);
      if (!shards || *shards > rlblh::serve::kMaxShards) return usage(argv[0]);
      config.shards = *shards;
    } else if (arg == "--max-connections" && has_value) {
      const auto conns = rlblh::parse_u64(argv[++i]);
      if (!conns) return usage(argv[0]);
      config.max_connections = *conns;
    } else if (arg == "--obs") {
      obs_on = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.checkpoint_dir.empty()) return usage(argv[0]);
  if (obs_on) rlblh::obs::set_enabled(true);

  if (pipe(g_wake_pipe) != 0) {
    std::fprintf(stderr, "rlblh_serve: cannot create signal pipe\n");
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    rlblh::serve::ServeServer server(config);
    server.start();
    // Scripts wait for this line; keep the format stable.
    std::printf("rlblh_serve listening on %s\n", server.endpoint().c_str());
    std::fflush(stdout);

    char byte = 0;
    while (!g_signaled) {
      const ssize_t n = read(g_wake_pipe[0], &byte, 1);
      if (n > 0 || (n < 0 && errno != EINTR)) break;
    }
    std::printf("rlblh_serve draining (%zu households, %zu days, "
                "%zu checkpoints)\n",
                server.household_count(), server.days_completed(),
                server.checkpoints_written());
    std::fflush(stdout);
    server.stop();
    if (obs_on) {
      rlblh::obs::RunInfo info;
      info.name = "serve";
      info.command.assign(argv, argv + argc);
      info.config = {{"listen", server.endpoint()},
                     {"checkpoint_dir", config.checkpoint_dir},
                     {"checkpoint_period_days",
                      std::to_string(config.checkpoint_period_days)}};
      const std::string path = rlblh::obs::default_manifest_path(info.name);
      if (rlblh::obs::write_manifest_file(path, info)) {
        std::printf("rlblh_serve wrote run manifest to %s\n", path.c_str());
      }
    }
    if (server.checkpoint_failures() != 0) {
      std::printf("rlblh_serve stopped with %zu failed checkpoints\n",
                  server.checkpoint_failures());
      return 1;
    }
    std::printf("rlblh_serve stopped cleanly\n");
    return 0;
  } catch (const rlblh::DataError& e) {
    std::fprintf(stderr, "rlblh_serve: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlblh_serve: %s\n", e.what());
    return 1;
  }
}
