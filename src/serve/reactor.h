// Epoll reactor of the metering daemon (DESIGN.md §15).
//
// One event-loop thread owns every socket: it accepts, reads non-blocking,
// reassembles frames with the existing FrameReader, and hands each decoded
// payload to a deliver callback (the server routes it to a session shard by
// household id). Replies flow the other way: shard threads call send()
// which writes directly when the socket accepts it and otherwise parks the
// bytes in the connection's outbuf and arms EPOLLOUT for the reactor to
// flush — the reactor never blocks on a slow peer, a shard never blocks on
// a socket.
//
// Ownership rules that keep this safe without a lock around the loop:
//   - only the reactor thread touches the epoll set membership, the
//     FrameReader, and fd close;
//   - Conn objects are shared_ptr so a shard holding a queued frame can
//     outlive the socket; `dead` flips (under write_mu) before the fd
//     closes, and send() checks it under the same mutex, so no shard can
//     write to a recycled fd;
//   - EPOLLOUT arm/disarm decisions are always made under the conn's
//     write_mu, which serializes the shard-side MOD against the
//     reactor-side MOD.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"

namespace rlblh::serve {

/// One reactor-owned connection. Shards hold shared_ptrs; the reactor
/// alone closes the fd.
struct Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}

  const int fd;
  FrameReader reader;  ///< reactor thread only

  std::mutex write_mu;
  std::vector<std::uint8_t> outbuf;  ///< unsent reply bytes (write_mu)
  bool want_write = false;           ///< EPOLLOUT armed (write_mu)
  bool close_after_flush = false;    ///< drop once outbuf drains (write_mu)
  bool dead = false;                 ///< fd closed/closing (write_mu)
};

class Reactor {
 public:
  struct Config {
    int listen_fd = -1;              ///< bound+listening; reactor borrows it
    std::size_t max_connections = 0; ///< admit at most this many at once
    /// Complete frame payload from a connection, in arrival order.
    std::function<void(std::shared_ptr<Conn>, std::vector<std::uint8_t>&&)>
        deliver;
    std::atomic<std::size_t>* connections_accepted = nullptr;
    std::atomic<std::size_t>* connections_rejected = nullptr;
    std::atomic<std::size_t>* malformed_frames = nullptr;
    std::atomic<bool>* draining = nullptr;
  };

  explicit Reactor(Config config);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawns the event-loop thread. Throws DataError when epoll setup fails.
  void start();

  /// Signals the loop to exit (it closes every connection) and joins it.
  void stop();

  /// Asks the loop to shutdown() every live connection so blocked peers
  /// see EOF; the loop then reaps them. Callable from any thread.
  void shutdown_conns();

  /// Queues `size` bytes of reply for the connection; writes directly when
  /// the socket accepts it. Thread-safe; silently drops when the
  /// connection died (the peer is gone — there is nobody to tell).
  void send(const std::shared_ptr<Conn>& conn, const std::uint8_t* data,
            std::size_t size);

  /// Live (admitted, not yet closed) connection count.
  std::size_t live_connections() const { return live_.load(); }

 private:
  void loop();
  void accept_ready();
  void read_ready(const std::shared_ptr<Conn>& conn);
  void write_ready(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void wake();

  Config config_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: stop/shutdown requests
  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::size_t> live_{0};
  std::thread thread_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< loop thread
};

}  // namespace rlblh::serve
