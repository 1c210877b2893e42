// The rlblh_serve daemon core (DESIGN.md §15).
//
// ServeServer accepts connections on one endpoint, speaks the
// serve/protocol.h frame protocol, and drives one HouseholdSession per
// household id. One epoll reactor thread owns all sockets
// (serve/reactor.h) and hands decoded frames to session-sharded workers
// (serve/shard.h): households hash to a fixed shard, per-session state is
// single-writer, and each shard handles its frames one at a time in
// arrival order. Scales to tens of thousands of connections.
//
// Durability: every completed day whose index hits the checkpoint period is
// persisted through CheckpointStore (written, fsynced, renamed, directory
// fsynced) before the ack for the closing frame is sent, so an acked
// day_completed=1 is on disk. A failed save answers the frame with
// Error{kInternal} instead and is retried at the next close or the drain.
// A SIGKILL between acks loses at most the open (unacked) day, which the
// client replays on reconnect — the kill/restart differential test asserts
// the resumed trajectory is bitwise-identical to an uninterrupted one.
//
// stop() is the SIGTERM path: stop accepting, wake every connection, let
// in-flight frames finish, checkpoint every household with unsaved
// completed days (counting, not throwing, the saves that fail), then
// return. abort_without_checkpoint() simulates a crash for tests (sockets
// die, nothing new is written).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/checkpoint.h"
#include "serve/reactor.h"
#include "serve/shard.h"

namespace rlblh::serve {

/// Most session shards a server runs (each is one worker thread).
inline constexpr std::size_t kMaxShards = 256;

struct ServeConfig {
  std::string listen = "tcp:0";     ///< unix:PATH or tcp:PORT (0 = pick)
  std::string checkpoint_dir;       ///< required; created when missing
  std::size_t checkpoint_period_days = 1;  ///< persist every Nth day close
  std::size_t shards = 0;           ///< session shards; 0 = auto
  std::size_t max_connections = 0;  ///< 0 = default (65536)
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds + listens and spawns the serving threads. Throws DataError when
  /// the endpoint cannot be bound.
  void start();

  /// Graceful drain (idempotent): see file comment.
  void stop();

  /// Crash simulation for restart tests: tears the sockets down and joins
  /// the threads WITHOUT the drain checkpoint pass, so on-disk state is
  /// exactly what the periodic checkpointing had already written.
  void abort_without_checkpoint();

  /// Resolved endpoint (e.g. "tcp:41732" after tcp:0). Valid after start().
  const std::string& endpoint() const { return endpoint_; }

  /// Live household count.
  std::size_t household_count() const;

  /// Counters for tests and the drain log line.
  std::size_t connections_accepted() const { return connections_.load(); }
  std::size_t connections_rejected() const { return rejected_.load(); }
  std::size_t malformed_frames() const { return malformed_.load(); }
  std::size_t days_completed() const { return days_completed_.load(); }
  std::size_t checkpoints_written() const { return checkpoints_.load(); }
  /// Saves that failed, while serving and in the drain.
  std::size_t checkpoint_failures() const {
    return checkpoint_failures_.load();
  }
  /// Checkpoint files moved aside as corrupt on Hello.
  std::size_t checkpoints_corrupt() const { return store_.corrupt_count(); }
  /// Always 0: every day closes through its own session's stream engine.
  /// Kept because perfbench_daemon prints it.
  std::size_t batch_days_completed() const { return 0; }

  /// The effective connection admission cap for this config.
  std::size_t effective_max_connections() const;

 private:
  void close_listener();
  void route_payload(std::shared_ptr<Conn> conn,
                     std::vector<std::uint8_t>&& payload);

  ServeConfig config_;
  CheckpointStore store_;
  std::string endpoint_;
  int listen_fd_ = -1;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::unique_ptr<Reactor> reactor_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::size_t> connections_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> malformed_{0};
  std::atomic<std::size_t> days_completed_{0};
  std::atomic<std::size_t> checkpoints_{0};
  std::atomic<std::size_t> checkpoint_failures_{0};
};

}  // namespace rlblh::serve
