#include "serve/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "obs/obs.h"
#include "serve/net.h"
#include "util/error.h"

namespace rlblh::serve {

namespace {
/// Receive buffer shared by every read_ready call (one reactor thread).
constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr int kMaxEvents = 256;
}  // namespace

Reactor::Reactor(Config config) : config_(std::move(config)) {}

Reactor::~Reactor() {
  stop();
  if (epoll_fd_ >= 0) close_quietly(epoll_fd_);
  if (wake_fd_ >= 0) close_quietly(wake_fd_);
}

void Reactor::start() {
  RLBLH_REQUIRE(epoll_fd_ < 0, "serve reactor: start() called twice");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw DataError("serve reactor: epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) throw DataError("serve reactor: eventfd failed");
  set_nonblocking(config_.listen_fd);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = config_.listen_fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, config_.listen_fd, &ev) < 0) {
    throw DataError("serve reactor: cannot watch the listen socket");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw DataError("serve reactor: cannot watch the wake eventfd");
  }
  thread_ = std::thread([this] { loop(); });
}

void Reactor::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::stop() {
  stop_.store(true);
  wake();
  if (thread_.joinable()) thread_.join();
}

void Reactor::shutdown_conns() {
  shutdown_requested_.store(true);
  wake();
}

void Reactor::loop() {
  std::vector<epoll_event> events(kMaxEvents);
  while (!stop_.load()) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(), kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (shutdown_requested_.exchange(false)) {
      // Drain request: blocked peers see EOF, the loop reaps the closes.
      for (auto& [fd, conn] : conns_) ::shutdown(fd, SHUT_RDWR);
    }
    if (stop_.load()) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == config_.listen_fd) {
        accept_ready();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this wake batch
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) write_ready(conn);
      if ((events[i].events & EPOLLIN) != 0) read_ready(conn);
    }
  }
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->dead = true;
    close_quietly(fd);
  }
  conns_.clear();
  live_.store(0);
}

void Reactor::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(config_.listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error: wait for the next wake
    if ((config_.draining != nullptr && config_.draining->load()) ||
        (config_.max_connections != 0 &&
         live_.load() >= config_.max_connections)) {
      if (config_.connections_rejected != nullptr) {
        config_.connections_rejected->fetch_add(1);
      }
      close_quietly(fd);
      continue;
    }
    auto conn = std::make_shared<Conn>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close_quietly(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    live_.fetch_add(1);
    if (config_.connections_accepted != nullptr) {
      config_.connections_accepted->fetch_add(1);
    }
    RLBLH_OBS_COUNT("serve.connections", 1);
  }
}

void Reactor::read_ready(const std::shared_ptr<Conn>& conn) {
  static thread_local std::vector<std::uint8_t> chunk(kRecvChunk);
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk.data(), chunk.size(), 0);
    if (n == 0) {  // orderly close
      close_conn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(conn);
      return;
    }
    conn->reader.append(chunk.data(), static_cast<std::size_t>(n));
    try {
      std::vector<std::uint8_t> payload;
      while (conn->reader.take(payload)) {
        config_.deliver(conn, std::move(payload));
        payload = {};
      }
    } catch (const DataError&) {
      // Length prefix over the limit: framing is lost, drop the peer after
      // telling it why.
      if (config_.malformed_frames != nullptr) {
        config_.malformed_frames->fetch_add(1);
      }
      RLBLH_OBS_COUNT("serve.malformed_frames", 1);
      std::vector<std::uint8_t> out;
      encode_error(out,
                   {ErrorCode::kMalformedFrame, "unrecoverable framing error"});
      send(conn, out.data(), out.size());
      bool flushed;
      {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        flushed = conn->outbuf.empty();
        conn->close_after_flush = true;
      }
      if (flushed) close_conn(conn);
      return;
    }
    if (static_cast<std::size_t>(n) < chunk.size()) break;
  }
}

void Reactor::write_ready(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->dead) return;
    std::size_t sent = 0;
    while (sent < conn->outbuf.size()) {
      const ssize_t n =
          ::send(conn->fd, conn->outbuf.data() + sent,
                 conn->outbuf.size() - sent, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN keeps EPOLLOUT armed; hard errors surface as events
      }
      sent += static_cast<std::size_t>(n);
    }
    conn->outbuf.erase(conn->outbuf.begin(),
                       conn->outbuf.begin() + static_cast<long>(sent));
    if (conn->outbuf.empty() && conn->want_write) {
      conn->want_write = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      close_now = conn->close_after_flush;
    }
  }
  if (close_now) close_conn(conn);
}

void Reactor::send(const std::shared_ptr<Conn>& conn, const std::uint8_t* data,
                   std::size_t size) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->dead || conn->close_after_flush) return;
  std::size_t sent = 0;
  if (conn->outbuf.empty()) {
    // Fast path: the socket usually swallows a reply whole.
    while (sent < size) {
      const ssize_t n = ::send(conn->fd, data + sent, size - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return;  // peer is gone; the reactor reaps it via EPOLLERR/HUP
      }
      sent += static_cast<std::size_t>(n);
    }
    if (sent == size) return;
  }
  conn->outbuf.insert(conn->outbuf.end(), data + sent, data + size);
  if (!conn->want_write) {
    conn->want_write = true;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void Reactor::close_conn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->dead) return;
    conn->dead = true;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close_quietly(conn->fd);
  conns_.erase(conn->fd);
  live_.fetch_sub(1);
}

}  // namespace rlblh::serve
