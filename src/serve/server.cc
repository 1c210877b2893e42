#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "serve/net.h"
#include "util/error.h"

namespace rlblh::serve {

namespace {
/// Default admission cap: the reactor's per-connection cost is one fd plus
/// a small struct, so this is a backstop rather than a tuning knob.
constexpr std::size_t kDefaultMaxConnections = 65536;
}  // namespace

ServeServer::ServeServer(ServeConfig config)
    : config_(std::move(config)), store_(config_.checkpoint_dir) {
  RLBLH_REQUIRE(config_.checkpoint_period_days >= 1,
                "serve: checkpoint period must be >= 1 day");
  RLBLH_REQUIRE(config_.shards <= kMaxShards,
                "serve: at most " + std::to_string(kMaxShards) + " shards");
}

ServeServer::~ServeServer() { stop(); }

std::size_t ServeServer::effective_max_connections() const {
  return config_.max_connections != 0 ? config_.max_connections
                                      : kDefaultMaxConnections;
}

void ServeServer::start() {
  RLBLH_REQUIRE(listen_fd_ < 0, "serve: start() called twice");
  listen_fd_ = listen_endpoint(config_.listen, &endpoint_);
  raise_fd_limit();
  std::size_t nshards = config_.shards;
  if (nshards == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    nshards = std::max<std::size_t>(1, std::min<std::size_t>(4, hw / 2));
  }
  Reactor::Config rc;
  rc.listen_fd = listen_fd_;
  rc.max_connections = effective_max_connections();
  rc.deliver = [this](std::shared_ptr<Conn> conn,
                      std::vector<std::uint8_t>&& payload) {
    route_payload(std::move(conn), std::move(payload));
  };
  rc.connections_accepted = &connections_;
  rc.connections_rejected = &rejected_;
  rc.malformed_frames = &malformed_;
  rc.draining = &draining_;
  reactor_ = std::make_unique<Reactor>(rc);
  for (std::size_t i = 0; i < nshards; ++i) {
    Shard::Config sc;
    sc.store = &store_;
    sc.reactor = reactor_.get();
    sc.checkpoint_period_days = config_.checkpoint_period_days;
    sc.draining = &draining_;
    sc.malformed = &malformed_;
    sc.days_completed = &days_completed_;
    sc.checkpoints = &checkpoints_;
    sc.checkpoint_failures = &checkpoint_failures_;
    shards_.push_back(std::make_unique<Shard>(sc));
  }
  for (auto& shard : shards_) shard->start();
  reactor_->start();
}

void ServeServer::route_payload(std::shared_ptr<Conn> conn,
                                std::vector<std::uint8_t>&& payload) {
  // Every server-bound message carries its u64 household id at payload
  // offset 2 (after version + type), which is what lets the reactor route
  // without decoding. Short payloads cannot be valid server-bound frames;
  // they go to shard 0, whose decoder answers them with an error reply.
  std::uint64_t id = 0;
  if (payload.size() >= 10) {
    for (std::size_t i = 0; i < 8; ++i) {
      id |= static_cast<std::uint64_t>(payload[2 + i]) << (8 * i);
    }
  }
  shards_[shard_for_household(id, shards_.size())]->post(std::move(conn),
                                                         std::move(payload));
}

std::size_t ServeServer::household_count() const {
  std::size_t count = 0;
  for (const auto& shard : shards_) count += shard->session_count();
  return count;
}

void ServeServer::close_listener() {
  if (listen_fd_ >= 0) {
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    unlink_endpoint(endpoint_.empty() ? config_.listen : endpoint_);
  }
}

void ServeServer::stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true);
  if (reactor_ != nullptr) {
    // In-flight frames finish: the reactor drains its sockets and joins
    // first, then each shard empties what was already queued.
    reactor_->shutdown_conns();
    reactor_->stop();
  }
  for (auto& shard : shards_) shard->stop(/*drain_queue=*/true);
  for (auto& shard : shards_) shard->join();
  close_listener();
  // Drain checkpoint: persist every household whose completed days are
  // newer than its last save. Households mid-day keep their last
  // day-boundary checkpoint — the client replays the open day. A failed
  // save is counted and the pass goes on to the next household.
  for (auto& shard : shards_) {
    shard->for_each_session(
        [this](HouseholdSession& s, std::size_t& checkpointed_days) {
          if (!s.day_open() && s.days_completed() > checkpointed_days) {
            try {
              store_.save(s);
            } catch (const std::exception&) {
              checkpoint_failures_.fetch_add(1);
              RLBLH_OBS_COUNT("serve.checkpoint_failures", 1);
              return;
            }
            checkpointed_days = s.days_completed();
            checkpoints_.fetch_add(1);
            RLBLH_OBS_COUNT("serve.checkpoints", 1);
          }
        });
  }
}

void ServeServer::abort_without_checkpoint() {
  if (stopped_.exchange(true)) return;
  draining_.store(true);
  if (reactor_ != nullptr) reactor_->stop();
  for (auto& shard : shards_) shard->stop(/*drain_queue=*/false);
  for (auto& shard : shards_) shard->join();
  close_listener();
}

}  // namespace rlblh::serve
