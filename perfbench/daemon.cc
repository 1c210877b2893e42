// perfbench_daemon — the metering daemon the serve workloads measure.
//
//   perfbench_daemon --listen unix:PATH --checkpoint-dir DIR
//
// The same ServeServer rlblh_serve runs, with rlblh_serve's default
// configuration (event loop, automatic shard count, batch stepping on,
// a checkpoint at every day close). On SIGTERM it drains like rlblh_serve
// and then prints one line of server counters and its own peak resident
// memory, which rlblh_serve does not report.
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "harness.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_signaled = 0;
int g_wake_pipe[2] = {-1, -1};

extern "C" void on_signal(int) {
  g_signaled = 1;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = write(g_wake_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  rlblh::serve::ServeConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--listen") {
      config.listen = argv[i + 1];
    } else if (arg == "--checkpoint-dir") {
      config.checkpoint_dir = argv[i + 1];
    } else {
      std::fprintf(stderr, "perfbench_daemon: unknown argument %s\n",
                   arg.c_str());
      return 2;
    }
  }
  if (config.checkpoint_dir.empty() || pipe(g_wake_pipe) != 0) return 2;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  // Drain and exit with the harness that started us, however it ends.
  const pid_t parent = getppid();
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (getppid() != parent) return 1;
  try {
    rlblh::serve::ServeServer server(config);
    server.start();
    std::printf("listening on %s\n", server.endpoint().c_str());
    std::fflush(stdout);
    char byte = 0;
    while (!g_signaled) {
      const ssize_t n = read(g_wake_pipe[0], &byte, 1);
      if (n > 0 || (n < 0 && errno != EINTR)) break;
    }
    server.stop();
    std::printf("stats days=%zu batch_days=%zu checkpoints=%zu "
                "households=%zu peak_rss_mb=%.6f\n",
                server.days_completed(), server.batch_days_completed(),
                server.checkpoints_written(), server.household_count(),
                rlblh::perfbench::peak_rss_mb());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_daemon: %s\n", e.what());
    return 1;
  }
}
