// Serve workloads: households stream hourly Readings frames (60 one-minute
// readings, 24 frames a day) to the metering daemon over a unix socket.
//
// Every run starts from a warm restart: day 0 of every household is served
// by a first daemon, which is then drained; set-up is a fresh daemon on the
// same checkpoint directory up to the last Hello acked resumed=1, timed
// several times. Then:
//
//   serve_meters    open loop, independent meters at a fixed offered rate,
//                   day boundaries staggered evenly across households; each
//                   frame is timed from the moment it was due.
//   serve_midnight  closed loop: each connection sends one frame per
//                   household per virtual hour and waits for the acks, all
//                   connections in step, so every household closes its day
//                   in the same round (the midnight burst).
//
// Afterwards every household's Stats must equal, bit for bit, an in-process
// replay of the frames it was sent. The traced pass (--trace 1) replays the
// same frames through the public serve calls on deferred sessions, timing
// each layer.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <bit>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "meter/trace.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "sim/scenario.h"
#include "util/error.h"
#include "util/rng.h"

extern char** environ;

namespace rlblh::perfbench {
namespace {

namespace fs = std::filesystem;
using serve::MessageType;

constexpr std::size_t kIntervalsPerFrame = 60;
constexpr std::size_t kFramesPerDay = kIntervalsPerDay / kIntervalsPerFrame;

// The open-loop offered rate, frozen as an absolute number: about a quarter
// of serve_midnight's capacity (1 400-1 900 frames/s) on the shared 4-core
// machine the benchmark was defined on. Closer to half of it the shards
// are busy with checkpoints so much of the time that the mid-day median
// sits on the boundary between frames that wait behind a checkpoint and
// frames that do not, and jumps between runs whenever the machine slows.
// It must not follow the machine or later commits, or a faster daemon
// would simply be offered more load.
constexpr double kMetersFramesPerSecond = 400.0;

// serve_meters' timed phase is split into this many equal windows for the
// latency medians (serve_midnight uses one window per virtual day).
constexpr double kMetersWindows = 5.0;

// A run whose generator sent its 99th-percentile frame later than this is
// invalid: the latencies would measure the client, not the daemon. A
// keeping-up generator is a few hundred us late at p99; a whole-machine
// stall of a few ms now and then is not a reason to discard a run, while a
// generator that falls behind grows its lag far past this.
constexpr double kGenLagBoundUs = 10000.0;

/// Replay off: the serve workloads measure the daemon, not RL training.
const char* const kPresets[] = {
    "policy=rlblh;household=default;pricing=srp;battery=5;"
    "policy.reuse=0;policy.syn=0",
    "policy=rlblh;household=ev_owner;pricing=srp;battery=7;"
    "policy.reuse=0;policy.syn=0",
    "policy=rlblh;household=weekday_heavy;pricing=rtp;battery=5;"
    "pricing.seed=5;policy.reuse=0;policy.syn=0",
};

struct ServeShape {
  std::size_t households = 0;
  std::size_t connections = 0;
  bool open_loop = false;
  double rate = 0.0;             ///< open loop: offered frames per second
  std::size_t restarts = 0;      ///< warm restarts timed for setup_s
  std::size_t days = 0;          ///< closed loop: timed days per household
};

ServeShape serve_shape(const Args& args) {
  ServeShape shape;
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  shape.connections = std::min<std::size_t>(4, cores);
  shape.households = args.tiny ? 24 : 96;
  shape.open_loop = args.workload == "serve_meters";
  shape.rate = args.tiny ? 100.0 : kMetersFramesPerSecond;
  shape.restarts = args.tiny ? 2 : 3;
  // A fixed number of days rather than "until the time is up": checkpoints
  // grow with every day served, so a run that fit in more days would
  // measure larger checkpoints. 0.8 days per second of --seconds lasts
  // about --seconds on a 4-core machine.
  shape.days = args.tiny ? 2
                         : static_cast<std::size_t>(
                               std::ceil(std::max(1.0, 0.8 * args.seconds)));
  return shape;
}

/// One Readings frame of a household's stream, encoded before any clock.
struct Packet {
  std::uint32_t day = 0;
  std::uint32_t first = 0;
  bool closes = false;
  std::vector<std::uint8_t> bytes;  ///< whole frame, length prefix included
};

struct Household {
  std::uint64_t id = 0;
  std::string spec;
  std::vector<Packet> stream;
  std::size_t sent = 0;  ///< frames of `stream` sent so far
  std::size_t phase = 0; ///< open loop: hour of day the timed phase starts at
};

/// Appends `days` days of the household's usage to its stream.
void build_stream(Household& household, std::size_t days) {
  const ScenarioSpec spec = ScenarioSpec::parse(household.spec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);
  DayTrace trace(kIntervalsPerDay);
  serve::ReadingsMsg msg;
  msg.household_id = household.id;
  for (std::size_t d = 0; d < days; ++d) {
    source->next_day_into(trace);
    for (std::size_t f = 0; f < kFramesPerDay; ++f) {
      Packet packet;
      packet.day = static_cast<std::uint32_t>(d);
      packet.first = static_cast<std::uint32_t>(f * kIntervalsPerFrame);
      packet.closes = f + 1 == kFramesPerDay;
      msg.day = packet.day;
      msg.first_interval = packet.first;
      const double* values = trace.values().data() + packet.first;
      msg.values.assign(values, values + kIntervalsPerFrame);
      serve::encode_readings(packet.bytes, msg);
      household.stream.push_back(std::move(packet));
    }
  }
}

/// The decoded body of an encoded frame.
serve::Frame decode_packet(const std::vector<std::uint8_t>& bytes) {
  return serve::decode_payload(bytes.data() + 4, bytes.size() - 4);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// True when `reply` is the ack the daemon owes for `packet`.
bool is_ack_for(const serve::Frame& reply, std::uint64_t id,
                const Packet& packet) {
  if (reply.type != MessageType::kReadingsAck) return false;
  const serve::ReadingsAckMsg& ack = reply.readings_ack;
  if (ack.household_id != id) return false;
  if (packet.closes) {
    return ack.day == packet.day + 1 && ack.next_interval == 0 &&
           ack.day_completed == 1;
  }
  return ack.day == packet.day &&
         ack.next_interval == packet.first + kIntervalsPerFrame &&
         ack.day_completed == 0;
}

/// Household id a reply is about (0 for replies that carry none).
std::uint64_t reply_household(const serve::Frame& reply) {
  switch (reply.type) {
    case MessageType::kHelloAck: return reply.hello_ack.household_id;
    case MessageType::kReadingsAck: return reply.readings_ack.household_id;
    case MessageType::kStatsAck: return reply.stats_ack.household_id;
    default: return 0;
  }
}

// --- processes and sockets -------------------------------------------------

/// The daemon host process. Killed and reaped on destruction unless stop()
/// drained it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& endpoint,
         const std::string& checkpoint_dir, const std::string& log_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> words = {binary, "--listen", endpoint,
                                      "--checkpoint-dir", checkpoint_dir};
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw DataError("cannot start " + binary + ": " + std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      wait_exit();
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain), then waits for a clean exit.
  void stop() {
    kill(pid_, SIGTERM);
    const int status = wait_exit();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw DataError("daemon did not drain cleanly");
    }
  }

 private:
  int wait_exit() {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

  pid_t pid_ = -1;
};

/// One client connection: blocking sends, timed receives, frame reassembly.
class Connection {
 public:
  /// Connects, retrying while the daemon is still starting.
  Connection(const std::string& endpoint, Clock::time_point deadline) {
    for (;;) {
      try {
        fd_ = serve::connect_endpoint(endpoint);
        return;
      } catch (const DataError&) {
        if (Clock::now() > deadline) throw;
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
  }
  ~Connection() { serve::close_quietly(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::vector<std::uint8_t>& bytes) {
    serve::send_all(fd_, bytes.data(), bytes.size());
  }

  /// Waits up to `timeout` for bytes and appends every complete reply to
  /// `out`. Throws when the daemon closed the connection.
  void receive(Clock::duration timeout, std::vector<serve::Frame>& out) {
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout)
               .count());
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw DataError("poll failed");
    if (ready <= 0) return;
    const std::size_t got = serve::recv_some(fd_, buffer_, sizeof(buffer_));
    if (got == 0) throw DataError("daemon closed the connection");
    reader_.append(buffer_, got);
    while (reader_.take(payload_)) {
      out.push_back(serve::decode_payload(payload_.data(), payload_.size()));
    }
  }

 private:
  int fd_ = -1;
  serve::FrameReader reader_;
  std::vector<std::uint8_t> payload_;
  std::uint8_t buffer_[1 << 16];
};

using Connections = std::vector<std::unique_ptr<Connection>>;

Connections connect_all(const std::string& endpoint, std::size_t count) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  Connections conns;
  for (std::size_t c = 0; c < count; ++c) {
    conns.push_back(std::make_unique<Connection>(endpoint, deadline));
  }
  return conns;
}

/// Untimed exchange: sends requests[c] on connection c (all connections
/// first), then collects one reply per request. Returns each connection's
/// replies in arrival order.
std::vector<std::vector<serve::Frame>> round_trip(
    Connections& conns,
    const std::vector<std::vector<const std::vector<std::uint8_t>*>>&
        requests) {
  for (std::size_t c = 0; c < conns.size(); ++c) {
    for (const auto* bytes : requests[c]) conns[c]->send(*bytes);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  std::vector<std::vector<serve::Frame>> replies(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    while (replies[c].size() < requests[c].size()) {
      if (Clock::now() > deadline) throw DataError("daemon stopped replying");
      conns[c]->receive(std::chrono::milliseconds(100), replies[c]);
    }
  }
  return replies;
}

// --- phases ------------------------------------------------------------------

struct Workload {
  ServeShape shape;
  std::vector<Household> households;
  std::string endpoint;
  std::string checkpoint_dir;
  std::string daemon_binary;
  std::string log_path;
};

std::size_t conn_of(std::size_t h, std::size_t connections) {
  return h % connections;
}

/// Hellos every household; counts acks that do not report `days` completed
/// days with the expected resume flag.
std::size_t hello_all(Workload& w, Connections& conns, bool resumed,
                      std::size_t days) {
  std::vector<std::vector<std::uint8_t>> hellos(w.households.size());
  std::vector<std::vector<const std::vector<std::uint8_t>*>> requests(
      conns.size());
  for (std::size_t h = 0; h < w.households.size(); ++h) {
    serve::encode_hello(hellos[h], {w.households[h].id, w.households[h].spec});
    requests[conn_of(h, conns.size())].push_back(&hellos[h]);
  }
  std::size_t bad = 0;
  for (const auto& replies : round_trip(conns, requests)) {
    for (const serve::Frame& reply : replies) {
      if (reply.type != MessageType::kHelloAck ||
          reply.hello_ack.resumed != (resumed ? 1 : 0) ||
          reply.hello_ack.days_completed != days ||
          reply.hello_ack.day_open != 0) {
        ++bad;
      }
    }
  }
  return bad;
}

/// Sends, untimed, frame `sent` of every household that still needs
/// frames before `until(h)`, one frame per household per round.
template <typename Until>
std::size_t advance(Workload& w, Connections& conns, Until until) {
  std::size_t bad = 0;
  for (;;) {
    std::vector<std::vector<const std::vector<std::uint8_t>*>> requests(
        conns.size());
    std::vector<std::size_t> moved;
    for (std::size_t h = 0; h < w.households.size(); ++h) {
      Household& household = w.households[h];
      if (household.sent >= until(h)) continue;
      requests[conn_of(h, conns.size())].push_back(
          &household.stream[household.sent].bytes);
      moved.push_back(h);
    }
    if (moved.empty()) return bad;
    const auto replies = round_trip(conns, requests);
    for (const std::size_t h : moved) {
      Household& household = w.households[h];
      bool acked = false;
      for (const serve::Frame& reply : replies[conn_of(h, conns.size())]) {
        if (reply_household(reply) == household.id) {
          acked = is_ack_for(reply, household.id,
                             household.stream[household.sent]);
        }
      }
      if (!acked) ++bad;
      ++household.sent;
    }
  }
}

/// Latency samples, by window of the timed phase, and tallies of one timed
/// connection thread.
struct Tally {
  std::vector<std::vector<double>> midday_us;
  std::vector<std::vector<double>> close_us;
  std::vector<double> lag_us;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Clock::time_point last_reply{};
  std::string error;
};

/// Matches arriving replies against the household's outstanding frames
/// (each household's frames are answered in order).
struct Outstanding {
  struct Entry {
    const Packet* packet;
    Clock::time_point since;
    std::size_t window;
  };
  std::vector<std::deque<Entry>> by_household;
  std::size_t count = 0;

  void settle(const Workload& w, const serve::Frame& reply,
              Clock::time_point now, Tally& tally) {
    const std::uint64_t id = reply_household(reply);
    const std::size_t h = static_cast<std::size_t>(id - 1);
    if (id == 0 || h >= by_household.size() || by_household[h].empty()) {
      ++tally.failed;  // an Error frame or a reply nobody asked for
      return;
    }
    const Entry entry = by_household[h].front();
    by_household[h].pop_front();
    --count;
    tally.last_reply = now;
    if (!is_ack_for(reply, w.households[h].id, *entry.packet)) {
      ++tally.failed;
      return;
    }
    const double us =
        std::chrono::duration<double, std::micro>(now - entry.since).count();
    auto& samples = entry.packet->closes ? tally.close_us : tally.midday_us;
    if (samples.size() <= entry.window) samples.resize(entry.window + 1);
    samples[entry.window].push_back(us);
  }
};

/// One due frame of the open-loop schedule.
struct Due {
  double at_s;
  std::size_t household;
};

/// Open loop on one connection: sends each frame when due (late frames
/// immediately), reads acks in between, times each ack from the due time.
/// Samples go to window floor(due / window_s).
void open_loop(Workload& w, Connection& conn, const std::vector<Due>& due,
               Clock::time_point t0, double window_s, Tally& tally) {
  Outstanding pending;
  pending.by_household.resize(w.households.size());
  std::vector<serve::Frame> replies;
  const auto to_time = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point end = to_time(due.empty() ? 0.0 : due.back().at_s);
  const Clock::time_point give_up = end + std::chrono::seconds(30);
  std::size_t next = 0;
  while (next < due.size() || pending.count > 0) {
    Clock::time_point now = Clock::now();
    while (next < due.size() && to_time(due[next].at_s) <= now) {
      Household& household = w.households[due[next].household];
      const Packet& packet = household.stream[household.sent++];
      const Clock::time_point at = to_time(due[next].at_s);
      tally.lag_us.push_back(
          std::chrono::duration<double, std::micro>(now - at).count());
      pending.by_household[due[next].household].push_back(
          {&packet, at, static_cast<std::size_t>(due[next].at_s / window_s)});
      ++pending.count;
      ++tally.attempted;
      conn.send(packet.bytes);
      ++next;
      now = Clock::now();
    }
    if (now > give_up) break;
    const Clock::time_point wake =
        next < due.size() ? to_time(due[next].at_s) : give_up;
    replies.clear();
    conn.receive(wake - now, replies);
    const Clock::time_point got = Clock::now();
    for (const serve::Frame& reply : replies) {
      pending.settle(w, reply, got, tally);
    }
  }
  tally.failed += pending.count;  // never acked
}

/// Closed loop on one connection: per virtual hour, one frame for each of
/// its households, then wait for their acks; all connections keep step.
/// Each virtual day is one sample window.
template <typename Barrier>
void closed_loop(Workload& w, Connection& conn,
                 const std::vector<std::size_t>& mine, Barrier& step,
                 const bool& keep_going, Tally& tally) {
  Outstanding pending;
  pending.by_household.resize(w.households.size());
  std::vector<serve::Frame> replies;
  try {
    for (std::size_t day = 0; keep_going; ++day) {
      for (std::size_t hour = 0; hour < kFramesPerDay; ++hour) {
        for (const std::size_t h : mine) {
          Household& household = w.households[h];
          const Packet& packet = household.stream[household.sent++];
          pending.by_household[h].push_back({&packet, Clock::now(), day});
          ++pending.count;
          ++tally.attempted;
          conn.send(packet.bytes);
        }
        const Clock::time_point give_up =
            Clock::now() + std::chrono::seconds(60);
        while (pending.count > 0 && Clock::now() < give_up) {
          replies.clear();
          conn.receive(std::chrono::milliseconds(100), replies);
          const Clock::time_point got = Clock::now();
          for (const serve::Frame& reply : replies) {
            pending.settle(w, reply, got, tally);
          }
        }
        tally.failed += pending.count;
        for (auto& queue : pending.by_household) queue.clear();
        pending.count = 0;
        step.arrive_and_wait();
      }
    }
  } catch (...) {
    step.arrive_and_drop();  // let the other connections finish
    throw;
  }
}

/// Runs `body(c)` on one thread per connection, keeping the first error.
template <typename Body>
void on_threads(std::size_t count, std::vector<Tally>& tallies, Body body) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (const std::exception& e) {
        tallies[c].error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tally& tally : tallies) {
    if (!tally.error.empty()) throw DataError(tally.error);
  }
}

/// Counters the daemon prints when it drains.
struct DaemonStats {
  std::size_t days = 0;
  std::size_t batch_days = 0;
  double peak_rss_mb = 0.0;
};

DaemonStats read_daemon_stats(const std::string& log_path) {
  std::ifstream in(log_path);
  std::string line;
  DaemonStats stats;
  while (std::getline(in, line)) {
    std::size_t checkpoints = 0;
    std::size_t households = 0;
    if (std::sscanf(line.c_str(),
                    "stats days=%zu batch_days=%zu checkpoints=%zu "
                    "households=%zu peak_rss_mb=%lf",
                    &stats.days, &stats.batch_days, &checkpoints, &households,
                    &stats.peak_rss_mb) == 5) {
      return stats;
    }
  }
  throw DataError("daemon printed no stats line");
}

/// The in-process reference: an eager session fed the frames the daemon
/// was sent.
std::unique_ptr<serve::HouseholdSession> replay(const Household& household) {
  auto session =
      std::make_unique<serve::HouseholdSession>(household.id, household.spec);
  for (std::size_t k = 0; k < household.sent; ++k) {
    const serve::Frame frame = decode_packet(household.stream[k].bytes);
    session->apply_readings(frame.readings.day, frame.readings.first_interval,
                            frame.readings.values);
  }
  return session;
}

bool stats_match(const serve::StatsAckMsg& stats,
                 const serve::HouseholdSession& session) {
  return stats.days_completed == session.days_completed() &&
         same_bits(stats.savings_cents, session.savings_cents()) &&
         same_bits(stats.bill_cents, session.bill_cents()) &&
         same_bits(stats.usage_cost_cents, session.usage_cost_cents()) &&
         same_bits(stats.battery_level_kwh, session.battery_level());
}

// --- traced pass ---------------------------------------------------------------

struct ServeLayers {
  double decode_s = 0.0;
  double encode_s = 0.0;
  double buffer_s = 0.0;
  double close_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double bytes = 0.0;
  std::size_t frames = 0;
  std::size_t midday = 0;
  std::size_t closes = 0;
  std::size_t loads = 0;
};

/// One frame through the calls a shard makes for it, timed per layer.
void traced_frame(serve::HouseholdSession& session,
                  const serve::CheckpointStore& store, const Packet& packet,
                  ServeLayers& layers) {
  auto start = Clock::now();
  const serve::Frame frame = decode_packet(packet.bytes);
  layers.decode_s += seconds_between(start, Clock::now());
  start = Clock::now();
  const bool closed = session.apply_readings(frame.readings.day,
                                             frame.readings.first_interval,
                                             frame.readings.values);
  if (closed) {
    session.finalize_day_stream();
    layers.close_s += seconds_between(start, Clock::now());
    ++layers.closes;
    start = Clock::now();
    store.save(session);
    layers.save_s += seconds_between(start, Clock::now());
    layers.bytes += static_cast<double>(fs::file_size(store.path_for(session.id())));
  } else {
    layers.buffer_s += seconds_between(start, Clock::now());
    ++layers.midday;
  }
  start = Clock::now();
  serve::ReadingsAckMsg ack;
  ack.household_id = session.id();
  ack.day = static_cast<std::uint32_t>(session.days_completed());
  ack.next_interval = static_cast<std::uint32_t>(session.next_interval());
  ack.day_completed = closed ? 1 : 0;
  std::vector<std::uint8_t> out;
  serve::encode_readings_ack(out, ack);
  layers.encode_s += seconds_between(start, Clock::now());
  ++layers.frames;
}

/// Replays the run's frames in-process on deferred sessions: day 0 and a
/// restore from checkpoints untimed and timed respectively, then every
/// later frame in the order the generator sent them.
std::vector<std::unique_ptr<serve::HouseholdSession>> traced_replay(
    const Workload& w, const std::vector<std::size_t>& order,
    const std::string& dir, ServeLayers& layers) {
  fs::remove_all(dir);
  serve::CheckpointStore store(dir);
  std::vector<std::unique_ptr<serve::HouseholdSession>> sessions;
  ServeLayers untimed;
  for (const Household& household : w.households) {
    auto session = std::make_unique<serve::HouseholdSession>(household.id,
                                                             household.spec);
    session->set_deferred(true);
    for (std::size_t k = 0; k < kFramesPerDay; ++k) {
      traced_frame(*session, store, household.stream[k], untimed);
    }
  }
  for (const Household& household : w.households) {
    const auto start = Clock::now();
    auto session = store.load(household.id);
    layers.load_s += seconds_between(start, Clock::now());
    ++layers.loads;
    session->set_deferred(true);
    sessions.push_back(std::move(session));
  }
  std::vector<std::size_t> cursor(w.households.size(), kFramesPerDay);
  for (const std::size_t h : order) {
    traced_frame(*sessions[h], store, w.households[h].stream[cursor[h]++],
                 layers);
  }
  for (auto& session : sessions) session->flush_pending_to_stream();
  fs::remove_all(dir);
  return sessions;
}

}  // namespace

Report run_serve(const Args& args) {
  Workload w;
  w.shape = serve_shape(args);
  const ServeShape& shape = w.shape;
  fs::remove_all(args.dir);
  fs::create_directories(args.dir);
  w.endpoint = "unix:" + args.dir + "/daemon.sock";
  w.checkpoint_dir = args.dir + "/checkpoints";
  w.daemon_binary = args.daemon;
  w.log_path = args.dir + "/daemon.log";

  // Households and their pre-encoded frame streams.
  const std::size_t n = shape.households;
  const std::size_t timed_frames =
      shape.open_loop
          ? static_cast<std::size_t>(std::ceil(args.seconds * shape.rate))
          : 0;
  w.households.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    Household& household = w.households[h];
    household.id = h + 1;
    household.spec = std::string(kPresets[h % 3]) + ";seed=" +
                     std::to_string(derive_stream_seed(args.seed, h) >> 16);
    std::size_t days = 1 + shape.days;
    if (shape.open_loop) {
      household.phase = h % kFramesPerDay;
      const std::size_t own = (timed_frames + n - 1 - h) / n;
      days = 1 + (household.phase + own + kFramesPerDay - 1) / kFramesPerDay;
    }
    build_stream(household, days);
  }

  Report report;
  // Day 0 on a first daemon, drained so every household is checkpointed.
  {
    Daemon daemon(w.daemon_binary, w.endpoint, w.checkpoint_dir, w.log_path);
    Connections conns = connect_all(w.endpoint, shape.connections);
    std::size_t bad = hello_all(w, conns, /*resumed=*/false, 0);
    bad += advance(w, conns, [](std::size_t) { return kFramesPerDay; });
    if (bad != 0) throw DataError("day 0 was not served cleanly");
    conns.clear();
    daemon.stop();
  }

  // Warm restarts: a fresh daemon on the same checkpoints, up to the last
  // Hello acked resumed=1. The last one stays up for the timed phase.
  std::unique_ptr<Daemon> daemon;
  Connections conns;
  for (std::size_t r = 0; r < shape.restarts; ++r) {
    if (daemon != nullptr) {
      conns.clear();
      daemon->stop();
    }
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(w.daemon_binary, w.endpoint,
                                      w.checkpoint_dir, w.log_path);
    conns = connect_all(w.endpoint, shape.connections);
    if (hello_all(w, conns, /*resumed=*/true, 1) != 0) {
      throw DataError("warm restart did not resume every household");
    }
    report.setup_s.push_back(seconds_between(start, Clock::now()));
  }

  // Generation order of every frame after day 0, for the traced replay.
  std::vector<std::size_t> order;
  if (shape.open_loop) {
    // Lead-in, untimed: household h advances to hour `phase` of day 1, so
    // day closes spread evenly over the timed phase.
    for (std::size_t hour = 0; hour + 1 < kFramesPerDay; ++hour) {
      for (std::size_t h = 0; h < n; ++h) {
        if (w.households[h].phase > hour) order.push_back(h);
      }
    }
    if (advance(w, conns, [&](std::size_t h) {
          return kFramesPerDay + w.households[h].phase;
        }) != 0) {
      throw DataError("lead-in frames were not acked");
    }
  }

  std::vector<Tally> tallies(shape.connections);
  Clock::time_point t0;
  Clock::time_point t_end;
  std::size_t midnight_days = 0;
  if (shape.open_loop) {
    // Frame g goes to household g mod n, due at g / rate.
    std::vector<std::vector<Due>> due(shape.connections);
    for (std::size_t g = 0; g < timed_frames; ++g) {
      const std::size_t h = g % n;
      due[conn_of(h, shape.connections)].push_back(
          {static_cast<double>(g) / shape.rate, h});
      order.push_back(h);
    }
    const double window_s =
        static_cast<double>(timed_frames) / shape.rate / kMetersWindows;
    t0 = Clock::now() + std::chrono::milliseconds(20);
    on_threads(shape.connections, tallies, [&](std::size_t c) {
      open_loop(w, *conns[c], due[c], t0, window_s, tallies[c]);
    });
    t_end = t0;
    for (const Tally& tally : tallies) t_end = std::max(t_end, tally.last_reply);
  } else {
    std::vector<std::vector<std::size_t>> mine(shape.connections);
    for (std::size_t h = 0; h < n; ++h) {
      mine[conn_of(h, shape.connections)].push_back(h);
    }
    bool keep_going = true;
    std::size_t hours = 0;
    t0 = Clock::now();
    // Runs once per virtual hour, while every connection waits.
    const auto on_hour = [&]() noexcept {
      if (++hours % kFramesPerDay != 0) return;
      ++midnight_days;
      t_end = Clock::now();
      keep_going = midnight_days < shape.days;
    };
    std::barrier step(static_cast<std::ptrdiff_t>(shape.connections),
                      on_hour);
    on_threads(shape.connections, tallies, [&](std::size_t c) {
      closed_loop(w, *conns[c], mine[c], step, keep_going, tallies[c]);
    });
    for (std::size_t d = 0; d < midnight_days; ++d) {
      for (std::size_t hour = 0; hour < kFramesPerDay; ++hour) {
        for (std::size_t h = 0; h < n; ++h) order.push_back(h);
      }
    }
  }

  // Final Stats of every household against the in-process replay.
  std::vector<std::vector<std::uint8_t>> stats_requests(n);
  std::vector<std::vector<const std::vector<std::uint8_t>*>> requests(
      shape.connections);
  for (std::size_t h = 0; h < n; ++h) {
    serve::encode_stats(stats_requests[h], {w.households[h].id});
    requests[conn_of(h, shape.connections)].push_back(&stats_requests[h]);
  }
  std::vector<serve::StatsAckMsg> stats(n);
  std::vector<bool> have_stats(n, false);
  for (const auto& replies : round_trip(conns, requests)) {
    for (const serve::Frame& reply : replies) {
      const std::uint64_t id = reply_household(reply);
      if (reply.type == MessageType::kStatsAck && id >= 1 && id <= n) {
        stats[id - 1] = reply.stats_ack;
        have_stats[id - 1] = true;
      }
    }
  }
  conns.clear();
  daemon->stop();
  daemon.reset();
  const DaemonStats daemon_stats = read_daemon_stats(w.log_path);

  Tally all;
  const auto merge = [](std::vector<std::vector<double>>& into,
                        const std::vector<std::vector<double>>& from) {
    if (into.size() < from.size()) into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
      into[i].insert(into[i].end(), from[i].begin(), from[i].end());
    }
  };
  for (Tally& tally : tallies) {
    merge(all.midday_us, tally.midday_us);
    merge(all.close_us, tally.close_us);
    all.lag_us.insert(all.lag_us.end(), tally.lag_us.begin(),
                      tally.lag_us.end());
    all.attempted += tally.attempted;
    all.failed += tally.failed;
  }
  std::size_t middays = 0;
  std::size_t closes = 0;
  for (const auto& window : all.midday_us) middays += window.size();
  for (const auto& window : all.close_us) closes += window.size();
  report.attempted = all.attempted;
  report.failed = all.failed;
  for (std::size_t h = 0; h < n; ++h) {
    const Household& household = w.households[h];
    const std::size_t timed = household.sent - kFramesPerDay -
                              (shape.open_loop ? household.phase : 0);
    if (!have_stats[h] || !stats_match(stats[h], *replay(household))) {
      report.failed += timed;
      report.errors.push_back("household " + std::to_string(household.id) +
                              " final Stats differ from the replay");
    }
  }

  const double lag_p99_us = quantile(all.lag_us, 0.99);
  if (shape.open_loop && lag_p99_us > kGenLagBoundUs) {
    throw DataError("invalid run: the generator sent its p99 frame " +
                    std::to_string(lag_p99_us) + " us late (bound " +
                    std::to_string(kGenLagBoundUs) + " us)");
  }
  const double wall = seconds_between(t0, t_end);
  const double household_days =
      shape.open_loop ? static_cast<double>(closes)
                      : static_cast<double>(midnight_days * n);
  auto& m = report.metrics;
  m["household_days_per_s"] = household_days / wall;
  // Each latency is the median over the windows of the timed phase of that
  // window's percentile, so a stall of the whole machine (a writeback
  // burst, another tenant) moves one window, not the run.
  const auto windowed = [](const std::vector<std::vector<double>>& windows,
                           double q) {
    std::vector<double> per_window;
    for (const auto& samples : windows) {
      if (!samples.empty()) per_window.push_back(quantile(samples, q));
    }
    return median(per_window);
  };
  m["step_p50_us"] = windowed(all.midday_us, 0.50);
  m["close_p50_ms"] = windowed(all.close_us, 0.50) / 1e3;
  m["close_tail_ms"] = windowed(all.close_us, 0.95) / 1e3;
  m["peak_rss_mb"] = daemon_stats.peak_rss_mb;
  std::fprintf(stderr,
               "%s: %zu mid-day acks, %zu day-close acks in %zu windows, "
               "%.3f s\n",
               args.workload.c_str(), middays, closes, all.midday_us.size(),
               wall);

  if (args.trace) {
    ServeLayers layers;
    const auto sessions =
        traced_replay(w, order, args.dir + "/traced_checkpoints", layers);
    for (std::size_t h = 0; h < n; ++h) {
      if (!have_stats[h] || !stats_match(stats[h], *sessions[h])) {
        ++report.failed;
        report.errors.push_back("traced household " + std::to_string(h + 1) +
                                " differs from the daemon");
      }
    }
    const auto per = [](double total, std::size_t count) {
      return count > 0 ? total / static_cast<double>(count) : 0.0;
    };
    m["serve.decode_us"] = 1e6 * per(layers.decode_s, layers.frames);
    m["serve.encode_us"] = 1e6 * per(layers.encode_s, layers.frames);
    m["serve.buffer_us"] = 1e6 * per(layers.buffer_s, layers.midday);
    m["serve.close_us"] = 1e6 * per(layers.close_s, layers.closes);
    m["serve.checkpoint_save_ms"] = 1e3 * per(layers.save_s, layers.closes);
    m["serve.checkpoint_bytes"] = per(layers.bytes, layers.closes);
    m["serve.checkpoint_load_ms"] = 1e3 * per(layers.load_s, layers.loads);
    m["serve.transport_us"] = m["step_p50_us"] - m["serve.decode_us"] -
                              m["serve.buffer_us"] - m["serve.encode_us"];
    m["serve.batch_close_share"] =
        daemon_stats.days > 0 ? static_cast<double>(daemon_stats.batch_days) /
                                    static_cast<double>(daemon_stats.days)
                              : 0.0;
    m["serve.gen_lag_p99_us"] = shape.open_loop ? lag_p99_us : 0.0;
    const double in_process = layers.decode_s + layers.encode_s +
                              layers.buffer_s + layers.close_s +
                              layers.save_s;
    std::fprintf(stderr,
                 "traced %zu frames in process, %.3f s\n"
                 "  share  decode %.3f  buffer %.3f  close %.3f  "
                 "checkpoint_save %.3f  encode %.3f\n",
                 layers.frames, in_process, layers.decode_s / in_process,
                 layers.buffer_s / in_process, layers.close_s / in_process,
                 layers.save_s / in_process, layers.encode_s / in_process);
  }
  fs::remove_all(args.dir);
  return report;
}

}  // namespace rlblh::perfbench
