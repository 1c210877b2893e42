#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "sim/scenario.h"
#include "util/error.h"

namespace rlblh::serve {

std::size_t shard_for_household(std::uint64_t id, std::size_t nshards) {
  // splitmix64 finalizer: full-avalanche, so sequential fleet ids spread.
  std::uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % nshards);
}

Shard::Shard(Config config) : config_(std::move(config)) {}

void Shard::start() {
  thread_ = std::thread([this] { run(); });
}

void Shard::post(std::shared_ptr<Conn> conn,
                 std::vector<std::uint8_t>&& payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Item{std::move(conn), std::move(payload)});
  }
  cv_.notify_one();
}

void Shard::stop(bool drain_queue) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    drain_on_stop_ = drain_queue;
  }
  cv_.notify_one();
}

void Shard::join() {
  if (thread_.joinable()) thread_.join();
}

std::size_t Shard::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void Shard::for_each_session(
    const std::function<void(HouseholdSession&, std::size_t&)>& fn) {
  for (auto& [id, entry] : sessions_) {
    fn(*entry->session, entry->checkpointed_days);
  }
}

void Shard::run() {
  std::vector<Item> items;
  std::vector<std::uint8_t> out;
  for (;;) {
    bool stopping;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_requested_ || !queue_.empty(); });
      stopping = stop_requested_;
      if (stopping && !drain_on_stop_) return;  // crash simulation
      items.swap(queue_);
    }
    for (Item& item : items) {
      out.clear();
      handle(item.payload, out);
      config_.reactor->send(item.conn, out.data(), out.size());
    }
    items.clear();
    // After a graceful stop the reactor has already joined, so nothing can
    // enqueue behind the swap we just drained.
    if (stopping) return;
  }
}

Shard::Entry* Shard::find(std::uint64_t id, std::vector<std::uint8_t>& out) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    encode_error(out, {ErrorCode::kUnknownHousehold,
                       "no session for id " + std::to_string(id)});
    return nullptr;
  }
  return it->second.get();
}

void Shard::handle(const std::vector<std::uint8_t>& payload,
                   std::vector<std::uint8_t>& out) {
  Frame frame;
  try {
    frame = decode_payload(payload.data(), payload.size());
  } catch (const DataError& e) {
    // A malformed body inside an intact frame: reject it, keep the
    // connection — framing is still synchronized.
    config_.malformed->fetch_add(1);
    RLBLH_OBS_COUNT("serve.malformed_frames", 1);
    encode_error(out, {ErrorCode::kMalformedFrame, e.what()});
    return;
  }
  RLBLH_OBS_COUNT("serve.frames", 1);

  switch (frame.type) {
    case MessageType::kHello:
      handle_hello(frame.hello, out);
      return;
    case MessageType::kReadings: {
      const std::uint64_t id = frame.readings.household_id;
      Entry* entry = find(id, out);
      if (entry == nullptr) return;
      const auto t0 = std::chrono::steady_clock::now();
      HouseholdSession& s = *entry->session;
      bool day_done = false;
      try {
        day_done = s.apply_readings(
            frame.readings.day, frame.readings.first_interval,
            std::span<const double>(frame.readings.values));
      } catch (const ConfigError& e) {
        encode_error(out, {ErrorCode::kOutOfOrder, e.what()});
        return;
      }
      RLBLH_OBS_COUNT("serve.readings", frame.readings.values.size());
      if (day_done && !close_day(*entry, out)) return;
      ReadingsAckMsg ack;
      ack.household_id = id;
      ack.day = static_cast<std::uint32_t>(s.days_completed());
      ack.next_interval = static_cast<std::uint32_t>(s.next_interval());
      ack.day_completed = day_done ? 1 : 0;
      encode_readings_ack(out, ack);
      if (!day_done) {
        const auto dt = std::chrono::steady_clock::now() - t0;
        [[maybe_unused]] const double us =
            std::chrono::duration<double, std::micro>(dt).count() /
            static_cast<double>(std::max<std::size_t>(
                frame.readings.values.size(), 1));
        RLBLH_OBS_OBSERVE("serve.step_latency_us", us);
      }
      return;
    }
    case MessageType::kCheckpoint: {
      const std::uint64_t id = frame.checkpoint.household_id;
      Entry* entry = find(id, out);
      if (entry == nullptr) return;
      HouseholdSession& s = *entry->session;
      if (s.day_open()) {
        encode_error(out, {ErrorCode::kOutOfOrder,
                           "cannot checkpoint mid-day (finish the day "
                           "first)"});
        return;
      }
      if (!checkpoint(*entry, out)) return;
      CheckpointAckMsg ack;
      ack.household_id = id;
      ack.days_completed = static_cast<std::uint32_t>(s.days_completed());
      encode_checkpoint_ack(out, ack);
      return;
    }
    case MessageType::kStats: {
      const std::uint64_t id = frame.stats.household_id;
      Entry* entry = find(id, out);
      if (entry == nullptr) return;
      HouseholdSession& s = *entry->session;
      // A mid-day Stats must report the stepped battery level, so the
      // buffered part of the open day streams through the engine now (the
      // day then finishes via the stream path — state is already bitwise
      // the eager path's).
      s.flush_pending_to_stream();
      StatsAckMsg ack;
      ack.household_id = id;
      ack.days_completed = static_cast<std::uint32_t>(s.days_completed());
      ack.savings_cents = s.savings_cents();
      ack.bill_cents = s.bill_cents();
      ack.usage_cost_cents = s.usage_cost_cents();
      ack.battery_level_kwh = s.battery_level();
      encode_stats_ack(out, ack);
      return;
    }
    case MessageType::kBye: {
      ByeAckMsg ack;
      ack.household_id = frame.bye.household_id;
      encode_bye_ack(out, ack);
      return;
    }
    default:
      // Server-bound protocol only; acks arriving here are client bugs.
      config_.malformed->fetch_add(1);
      encode_error(out, {ErrorCode::kMalformedFrame,
                         "unexpected message type on server"});
      return;
  }
}

void Shard::handle_hello(const HelloMsg& hello,
                         std::vector<std::uint8_t>& out) {
  if (config_.draining->load()) {
    encode_error(out, {ErrorCode::kDraining, "server is draining"});
    return;
  }
  const std::uint64_t id = hello.household_id;
  // Any exception while the session is built or restored answers this
  // Hello with an Error and leaves the shard serving: a spec can name
  // sizes no allocator satisfies, a checkpoint file can be damaged.
  std::unique_ptr<HouseholdSession> fresh;
  const bool resumed = config_.store->exists(id);
  if (resumed) {
    try {
      fresh = config_.store->load(id);
    } catch (const std::exception& e) {
      encode_error(out, {ErrorCode::kInternal, e.what()});
      return;
    }
  }
  try {
    if (!resumed) {
      fresh = std::make_unique<HouseholdSession>(id, hello.spec);
    } else if (ScenarioSpec::parse(hello.spec).canonical() !=
               fresh->spec_text()) {
      // The client must agree on what this household is.
      encode_error(out, {ErrorCode::kBadSpec,
                         "spec does not match the checkpoint for id " +
                             std::to_string(id)});
      return;
    }
  } catch (const std::exception& e) {
    encode_error(out, {ErrorCode::kBadSpec, e.what()});
    return;
  }
  fresh->set_deferred(true);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->session = std::move(fresh);
    entry->checkpointed_days = entry->session->days_completed();
    std::lock_guard<std::mutex> lock(mu_);
    it = sessions_.emplace(id, std::move(entry)).first;
  }
  // An id that is already live (client reconnected before we noticed the
  // old socket die) keeps its in-memory session — it is strictly newer
  // than any checkpoint.
  const HouseholdSession& s = *it->second->session;
  HelloAckMsg ack;
  ack.household_id = id;
  ack.days_completed = static_cast<std::uint32_t>(s.days_completed());
  ack.next_interval = static_cast<std::uint32_t>(s.next_interval());
  ack.day_open = s.day_open() ? 1 : 0;
  ack.resumed = resumed ? 1 : 0;
  encode_hello_ack(out, ack);
  RLBLH_OBS_COUNT("serve.hellos", 1);
}

bool Shard::close_day(Entry& entry, std::vector<std::uint8_t>& out) {
  HouseholdSession& s = *entry.session;
  s.finalize_day_stream();
  config_.days_completed->fetch_add(1);
  RLBLH_OBS_COUNT("serve.days_completed", 1);
  // Persist before acking: an acked closed day is on disk.
  return s.days_completed() % config_.checkpoint_period_days != 0 ||
         checkpoint(entry, out);
}

bool Shard::checkpoint(Entry& entry, std::vector<std::uint8_t>& out) {
  HouseholdSession& s = *entry.session;
  try {
    config_.store->save(s);
  } catch (const std::exception& e) {
    config_.checkpoint_failures->fetch_add(1);
    RLBLH_OBS_COUNT("serve.checkpoint_failures", 1);
    encode_error(out, {ErrorCode::kInternal,
                       std::string("checkpoint failed: ") + e.what()});
    return false;
  }
  entry.checkpointed_days = s.days_completed();
  config_.checkpoints->fetch_add(1);
  RLBLH_OBS_COUNT("serve.checkpoints", 1);
  return true;
}

}  // namespace rlblh::serve
