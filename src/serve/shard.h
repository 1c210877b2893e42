// Session shard: the single-writer worker of the daemon.
//
// The reactor hashes every frame's household id to a fixed shard, so one
// worker thread owns each session outright — per-session state needs no
// lock, and each household's frames are processed in arrival order (the
// same determinism argument as the fleet executor's chunk wall: one writer
// per household, households never mix).
//
// Sessions run deferred (serve/session.h): a mid-day Readings frame only
// validates and buffers, and a day-closing frame is finalized inline —
// finalize_day_stream(), then the durable checkpoint, then the ack — before
// the shard handles its next frame. A shard's replies therefore leave in
// the order its frames arrived. A checkpoint that cannot be written is
// answered with Error{kInternal} in place of the ack (an ack would claim
// the day is on disk); the session stays in memory with its last saved
// day unchanged, so the next close or the drain retries the save.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/checkpoint.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/session.h"

namespace rlblh::serve {

class Shard {
 public:
  struct Config {
    CheckpointStore* store = nullptr;
    Reactor* reactor = nullptr;
    std::size_t checkpoint_period_days = 1;
    std::atomic<bool>* draining = nullptr;
    std::atomic<std::size_t>* malformed = nullptr;
    std::atomic<std::size_t>* days_completed = nullptr;
    std::atomic<std::size_t>* checkpoints = nullptr;
    std::atomic<std::size_t>* checkpoint_failures = nullptr;
  };

  explicit Shard(Config config);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();

  /// Queues one decoded frame payload (reactor thread). Frames from one
  /// connection arrive in order and stay in order.
  void post(std::shared_ptr<Conn> conn, std::vector<std::uint8_t>&& payload);

  /// Asks the worker to exit. With `drain_queue` the worker first processes
  /// everything already queued (graceful stop); without, the queue is
  /// discarded (crash simulation). Call join() afterwards.
  void stop(bool drain_queue);
  void join();

  /// Number of sessions this shard owns (worker must be stopped or idle).
  std::size_t session_count() const;

  /// Iterates the owned sessions after join() (drain checkpoint pass).
  void for_each_session(
      const std::function<void(HouseholdSession&, std::size_t&)>& fn);

 private:
  struct Item {
    std::shared_ptr<Conn> conn;
    std::vector<std::uint8_t> payload;
  };

  struct Entry {
    std::unique_ptr<HouseholdSession> session;
    std::size_t checkpointed_days = 0;
  };

  void run();
  /// Handles one frame; appends the reply frame to `out`.
  void handle(const std::vector<std::uint8_t>& payload,
              std::vector<std::uint8_t>& out);
  void handle_hello(const HelloMsg& hello, std::vector<std::uint8_t>& out);
  /// Closes the session's fully buffered day, checkpoints it when the
  /// period says so, and counts it. Returns false after encoding the Error
  /// of a failed checkpoint into `out`.
  bool close_day(Entry& entry, std::vector<std::uint8_t>& out);
  /// Saves the entry's session and counts it; on failure encodes
  /// Error{kInternal} into `out`, counts the failure and returns false.
  bool checkpoint(Entry& entry, std::vector<std::uint8_t>& out);
  /// The entry for `id`, or nullptr after encoding kUnknownHousehold.
  Entry* find(std::uint64_t id, std::vector<std::uint8_t>& out);

  Config config_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Entry>> sessions_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Item> queue_;
  bool stop_requested_ = false;
  bool drain_on_stop_ = true;
  std::thread thread_;
};

/// The household -> shard hash (splitmix64 finalizer): uncorrelated with
/// sequential id assignment so fleets spread evenly.
std::size_t shard_for_household(std::uint64_t id, std::size_t nshards);

}  // namespace rlblh::serve
