// In-process daemon tests: protocol round-trips over a real unix socket,
// malformed-frame handling, reconnect/resume semantics, the load generator
// end to end, and the headline differentials — the daemon's acks and
// checkpoint files equal, byte for byte, those of direct eager
// HouseholdSessions fed the same days, including after a crash (no drain
// checkpoint) mid-day and a restart.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "meter/trace.h"
#include "serve/checkpoint.h"
#include "serve/client.h"
#include "serve/load_gen.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sim/scenario.h"
#include "util/error.h"

namespace rlblh::serve {
namespace {

constexpr const char* kSpec = "policy=rlblh;seed=21";

std::string unique_dir(const std::string& tag) {
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) /
      ("rlblh_server_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(path);
  return path.string();
}

/// A started server on a unix socket under its own scratch directory.
struct TestDaemon {
  explicit TestDaemon(const std::string& tag) {
    dir = unique_dir(tag);
    config.listen = "unix:" + dir + "/sock";
    config.checkpoint_dir = dir + "/ckpt";
    server = std::make_unique<ServeServer>(config);
    server->start();
  }

  /// A fresh server over the same checkpoint dir (the restart path).
  void restart() {
    server = std::make_unique<ServeServer>(config);
    server->start();
  }

  std::string dir;
  ServeConfig config;
  std::unique_ptr<ServeServer> server;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Sends one day of `trace` through the client in `chunk`-interval frames,
/// starting at `first` (for replaying a partially-acked day).
void send_day(ServeClient& client, std::uint64_t id, std::uint32_t day,
              const DayTrace& trace, std::uint32_t first = 0,
              std::size_t chunk = 480) {
  const std::vector<double>& values = trace.values();
  for (std::size_t n0 = first; n0 < values.size(); n0 += chunk) {
    const std::size_t width = std::min(chunk, values.size() - n0);
    const std::vector<double> slice(values.begin() + n0,
                                    values.begin() + n0 + width);
    const ReadingsAckMsg ack = client.send_readings(
        id, day, static_cast<std::uint32_t>(n0), slice);
    EXPECT_EQ(ack.household_id, id);
  }
}

TEST(ServeServerTest, ResolvesEphemeralTcpEndpoint) {
  ServeConfig config;
  config.listen = "tcp:0";
  config.checkpoint_dir = unique_dir("tcp0") + "/ckpt";
  ServeServer server(config);
  server.start();
  EXPECT_NE(server.endpoint(), "tcp:0");
  EXPECT_EQ(server.endpoint().rfind("tcp:", 0), 0u);
  server.stop();
}

TEST(ServeServerTest, HelloReadingsStatsByeRoundTrip) {
  TestDaemon daemon("roundtrip");
  ServeClient client(daemon.server->endpoint(), 1);
  client.connect();

  const HelloAckMsg hello = client.hello(7, kSpec);
  EXPECT_EQ(hello.household_id, 7u);
  EXPECT_EQ(hello.days_completed, 0u);
  EXPECT_EQ(hello.day_open, 0);
  EXPECT_EQ(hello.resumed, 0);

  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);
  send_day(client, 7, 0, source->next_day());

  const StatsAckMsg stats = client.stats(7);
  EXPECT_EQ(stats.days_completed, 1u);
  EXPECT_GT(stats.usage_cost_cents, 0.0);

  // The day-close checkpoint (period 1) was written before the ack.
  CheckpointStore store(daemon.config.checkpoint_dir);
  EXPECT_TRUE(store.exists(7));
  EXPECT_EQ(daemon.server->days_completed(), 1u);
  EXPECT_GE(daemon.server->checkpoints_written(), 1u);

  const ByeAckMsg bye = client.bye(7);
  EXPECT_EQ(bye.household_id, 7u);
  daemon.server->stop();
}

/// Expects `request` to be answered with Error{code}.
template <typename Request>
void expect_error(ErrorCode code, Request&& request) {
  try {
    request();
    ADD_FAILURE() << "expected ServeRequestError";
  } catch (const ServeRequestError& error) {
    EXPECT_EQ(error.code(), code) << error.what();
  }
}

// A checkpoint that cannot be written must not take the daemon down, and
// must not be acked: the closing frame and a Checkpoint request get
// Error{kInternal}, the session stays in memory, and every other household
// keeps being served.
TEST(ServeServerTest, FailedCheckpointAnswersErrorAndKeepsServing) {
  TestDaemon daemon("ckpt_fail");
  ServeClient client(daemon.server->endpoint(), 11);
  client.connect();
  client.hello(7, kSpec);
  std::filesystem::remove_all(daemon.config.checkpoint_dir);

  std::unique_ptr<TraceSource> source =
      make_scenario_source(ScenarioSpec::parse(kSpec));
  const std::vector<double> values = source->next_day().values();
  const std::vector<double> head(values.begin(), values.end() - 480);
  const std::vector<double> tail(values.end() - 480, values.end());
  EXPECT_EQ(client.send_readings(7, 0, 0, head).next_interval, head.size());
  expect_error(ErrorCode::kInternal, [&] {
    client.send_readings(7, 0, static_cast<std::uint32_t>(head.size()), tail);
  });
  EXPECT_EQ(daemon.server->checkpoint_failures(), 1u);
  EXPECT_EQ(daemon.server->checkpoints_written(), 0u);
  // The day closed in memory; only its ack was withheld.
  EXPECT_EQ(client.stats(7).days_completed, 1u);
  expect_error(ErrorCode::kInternal, [&] { client.checkpoint(7); });
  EXPECT_EQ(daemon.server->checkpoint_failures(), 2u);

  // A second household on the same connection is served normally.
  const HelloAckMsg hello = client.hello(8, kSpec);
  EXPECT_EQ(hello.resumed, 0);
  EXPECT_EQ(client.send_readings(8, 0, 0, head).next_interval, head.size());
  EXPECT_EQ(client.stats(8).days_completed, 0u);

  // The drain retries household 7 (its day is unsaved), counts the
  // failure, and stops cleanly; the destructor throws nothing either.
  daemon.server->stop();
  EXPECT_EQ(daemon.server->checkpoint_failures(), 3u);
  EXPECT_EQ(daemon.server->days_completed(), 1u);
}

// A damaged checkpoint answers its Hello with Error{kInternal}, is moved to
// h<id>.ckpt.corrupt and counted, and the next Hello starts afresh.
TEST(ServeServerTest, CorruptCheckpointAnswersHelloWithErrorThenStartsFresh) {
  HouseholdSession direct(50, kSpec);
  std::unique_ptr<TraceSource> source =
      make_scenario_source(ScenarioSpec::parse(kSpec));
  direct.apply_readings(0, 0, source->next_day().values());
  const std::string image = direct.save();
  std::string flipped = image;
  flipped[image.size() / 3] = static_cast<char>(flipped[image.size() / 3] ^ 4);
  std::string version = image;
  version[8] = 3;
  const std::vector<std::string> damaged = {
      "rlblh-serve-household v1\nid 50\nspec policy=rlblh;seed=21\n",
      image.substr(0, image.size() / 2),
      image.substr(0, image.size() - 1),
      flipped,
      version,
  };

  TestDaemon daemon("corrupt_hello");
  const CheckpointStore store(daemon.config.checkpoint_dir);
  ServeClient client(daemon.server->endpoint(), 12);
  client.connect();
  for (std::size_t k = 0; k < damaged.size(); ++k) {
    SCOPED_TRACE("case " + std::to_string(k));
    const std::uint64_t id = 50 + k;
    {
      std::ofstream out(store.path_for(id), std::ios::binary);
      out << damaged[k];
    }
    expect_error(ErrorCode::kInternal, [&] { client.hello(id, kSpec); });
    EXPECT_FALSE(store.exists(id));
    EXPECT_TRUE(read_file(store.path_for(id) + ".corrupt") == damaged[k]);
    EXPECT_EQ(daemon.server->checkpoints_corrupt(), k + 1);
    const HelloAckMsg fresh = client.hello(id, kSpec);
    EXPECT_EQ(fresh.resumed, 0);
    EXPECT_EQ(fresh.days_completed, 0u);
  }
  daemon.server->stop();
  EXPECT_EQ(daemon.server->checkpoint_failures(), 0u);
}

TEST(ServeServerTest, RejectsBadSpecAndUnknownHousehold) {
  TestDaemon daemon("rejects");
  ServeClient client(daemon.server->endpoint(), 2);
  client.connect();

  try {
    client.hello(1, "policy=does-not-exist");
    FAIL() << "expected ServeRequestError";
  } catch (const ServeRequestError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBadSpec);
  }

  try {
    client.send_readings(55, 0, 0, {0.5});
    FAIL() << "expected ServeRequestError";
  } catch (const ServeRequestError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnknownHousehold);
  }

  // The connection survives both rejections.
  const HelloAckMsg hello = client.hello(1, kSpec);
  EXPECT_EQ(hello.household_id, 1u);
  daemon.server->stop();
}

TEST(ServeServerTest, OutOfOrderReadingsRejectedWithoutStateDamage) {
  TestDaemon daemon("out_of_order");
  ServeClient client(daemon.server->endpoint(), 3);
  client.connect();
  client.hello(4, kSpec);

  std::vector<double> chunk(10, 0.5);
  client.send_readings(4, 0, 0, chunk);
  try {
    client.send_readings(4, 0, 99, chunk);  // cursor gap
    FAIL() << "expected ServeRequestError";
  } catch (const ServeRequestError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kOutOfOrder);
  }
  // The cursor is where the last accepted frame left it.
  const ReadingsAckMsg ack = client.send_readings(4, 0, 10, chunk);
  EXPECT_EQ(ack.next_interval, 20u);
  daemon.server->stop();
}

TEST(ServeServerTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  TestDaemon daemon("malformed");
  const int fd = connect_endpoint(daemon.server->endpoint());

  // A well-framed payload with a bogus version byte.
  std::vector<std::uint8_t> frame;
  encode_bye(frame, ByeMsg{1});
  frame[4] = kProtocolVersion + 9;
  send_all(fd, frame.data(), frame.size());

  FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::uint8_t buffer[4096];
  while (!reader.take(payload)) {
    const std::size_t got = recv_some(fd, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u) << "server closed instead of answering";
    reader.append(buffer, got);
  }
  Frame decoded = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(decoded.type, MessageType::kError);
  EXPECT_EQ(decoded.error.code, ErrorCode::kMalformedFrame);
  EXPECT_EQ(daemon.server->malformed_frames(), 1u);

  // Same connection still speaks the protocol.
  frame.clear();
  encode_hello(frame, HelloMsg{11, kSpec});
  send_all(fd, frame.data(), frame.size());
  while (!reader.take(payload)) {
    const std::size_t got = recv_some(fd, buffer, sizeof(buffer));
    ASSERT_GT(got, 0u);
    reader.append(buffer, got);
  }
  decoded = decode_payload(payload.data(), payload.size());
  EXPECT_EQ(decoded.type, MessageType::kHelloAck);

  close_quietly(fd);
  daemon.server->stop();
}

TEST(ServeServerTest, OversizedLengthPrefixDropsConnection) {
  TestDaemon daemon("oversized");
  const int fd = connect_endpoint(daemon.server->endpoint());

  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &huge, 4);
  send_all(fd, prefix, 4);

  // The server answers with an Error frame and then closes; keep reading
  // until orderly EOF.
  std::uint8_t buffer[4096];
  std::size_t total = 0;
  while (true) {
    std::size_t got = 0;
    try {
      got = recv_some(fd, buffer, sizeof(buffer));
    } catch (const DataError&) {
      break;  // reset is also an acceptable teardown
    }
    if (got == 0) break;
    total += got;
  }
  EXPECT_GT(total, 0u);  // at least the Error frame arrived
  close_quietly(fd);
  daemon.server->stop();
}

TEST(ServeServerTest, ConnectionCapRejectsTheExcessConnection) {
  TestDaemon daemon("conn_cap");
  daemon.server->stop();
  daemon.config.max_connections = 2;
  daemon.restart();
  EXPECT_EQ(daemon.server->effective_max_connections(), 2u);

  const int a = connect_endpoint(daemon.server->endpoint());
  const int b = connect_endpoint(daemon.server->endpoint());
  // Both admitted connections must speak the protocol before the third
  // connects, so the accept side has registered them.
  for (const int fd : {a, b}) {
    std::vector<std::uint8_t> frame;
    encode_bye(frame, ByeMsg{9});
    send_all(fd, frame.data(), frame.size());
    FrameReader reader;
    std::vector<std::uint8_t> payload;
    std::uint8_t buffer[256];
    while (!reader.take(payload)) {
      const std::size_t got = recv_some(fd, buffer, sizeof(buffer));
      ASSERT_GT(got, 0u);
      reader.append(buffer, got);
    }
    EXPECT_EQ(decode_payload(payload.data(), payload.size()).type,
              MessageType::kByeAck);
  }

  // The over-cap connection is closed without a reply.
  const int c = connect_endpoint(daemon.server->endpoint());
  std::uint8_t buffer[64];
  std::size_t got = 1;
  try {
    got = recv_some(c, buffer, sizeof(buffer));
  } catch (const DataError&) {
    got = 0;  // reset counts as closed
  }
  EXPECT_EQ(got, 0u);
  EXPECT_GE(daemon.server->connections_rejected(), 1u);

  close_quietly(a);
  close_quietly(b);
  close_quietly(c);
  daemon.server->stop();
}

TEST(ServeServerTest, ConnectRetriesCountFailures) {
  // Nothing listens here; connect must back off and eventually throw.
  const std::string dead = "unix:" + unique_dir("dead") + "/sock";
  ServeClient client(dead, 4, std::chrono::milliseconds(1),
                     std::chrono::milliseconds(2));
  EXPECT_THROW(client.connect(3), DataError);
  EXPECT_EQ(client.failed_attempts(), 3u);
  EXPECT_FALSE(client.connected());
}

TEST(ServeServerTest, MidDayReconnectResumesFromLiveCursor) {
  TestDaemon daemon("mid_day_cursor");
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);
  const DayTrace day0 = source->next_day();

  ServeClient first(daemon.server->endpoint(), 5);
  first.connect();
  first.hello(21, kSpec);
  const std::vector<double> head(day0.values().begin(),
                                 day0.values().begin() + 480);
  first.send_readings(21, 0, 0, head);
  first.disconnect();

  // A new connection resumes against the live (in-memory) mid-day session.
  ServeClient second(daemon.server->endpoint(), 6);
  second.connect();
  const HelloAckMsg hello = second.hello(21, kSpec);
  EXPECT_EQ(hello.days_completed, 0u);
  EXPECT_EQ(hello.day_open, 1);
  EXPECT_EQ(hello.next_interval, 480u);

  send_day(second, 21, 0, day0, 480);
  const StatsAckMsg stats = second.stats(21);
  EXPECT_EQ(stats.days_completed, 1u);

  // Reconnecting with a different spec for the same id is rejected.
  try {
    second.hello(21, "policy=rlblh;seed=99");
    FAIL() << "expected ServeRequestError";
  } catch (const ServeRequestError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBadSpec);
  }
  daemon.server->stop();
}

TEST(ServeServerTest, LoadGenDrivesFleetEndToEnd) {
  TestDaemon daemon("load_gen");
  LoadGenConfig config;
  config.endpoint = daemon.server->endpoint();
  config.households = 3;
  config.days = 2;
  config.seed_base = 100;
  config.threads = 2;
  const LoadGenResult result = run_load(config);

  EXPECT_EQ(result.households, 3u);
  EXPECT_EQ(result.days_completed, 6u);
  EXPECT_EQ(daemon.server->days_completed(), 6u);
  EXPECT_EQ(daemon.server->household_count(), 3u);
  EXPECT_GT(result.intervals_sent, 0u);
  EXPECT_GT(result.frames_sent, 0u);
  EXPECT_GT(result.rtt_quantile(0.5), 0.0);
  EXPECT_GE(result.rtt_quantile(0.99), result.rtt_quantile(0.5));

  daemon.server->stop();
  CheckpointStore store(daemon.config.checkpoint_dir);
  for (std::uint64_t id = 100; id < 103; ++id) {
    EXPECT_TRUE(store.exists(id)) << "household " << id;
  }
}

/// The payload of one encoded frame (what FrameReader::take hands back):
/// the frame minus its 4-byte length prefix.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

// A load_gen fleet against the daemon leaves, for every household, exactly
// the checkpoint file a direct eager session fed the same days writes.
TEST(ServeServerTest, LoadGenCheckpointsMatchDirectSessionsByteForByte) {
  LoadGenConfig load;
  load.households = 4;
  load.days = 2;
  load.seed_base = 300;
  load.threads = 2;

  TestDaemon daemon("load_gen_direct");
  load.endpoint = daemon.server->endpoint();
  run_load(load);
  daemon.server->stop();

  const CheckpointStore store(daemon.config.checkpoint_dir);
  for (std::size_t h = 0; h < load.households; ++h) {
    const std::string spec = household_spec(load, h);
    const std::uint64_t id = load.seed_base + h;
    HouseholdSession direct(id, spec);
    std::unique_ptr<TraceSource> source =
        make_scenario_source(ScenarioSpec::parse(spec));
    for (std::uint32_t d = 0; d < load.days; ++d) {
      direct.apply_readings(d, 0, source->next_day().values());
    }
    EXPECT_TRUE(read_file(store.path_for(id)) == direct.save())
        << "household " << id;
  }
}

std::string pipelined_spec(std::uint64_t id) {
  return "policy=rlblh;seed=" + std::to_string(id);
}

/// Pipelines a Hello, `days` whole-day Readings frames and a trailing Stats
/// for each household [base, base+n) over ONE connection, every frame
/// written before any reply is read — so the shard finds many day closes
/// queued at once. Returns every reply payload in arrival order.
std::vector<std::vector<std::uint8_t>> drive_pipelined_fleet(
    const std::string& endpoint, std::uint64_t base, std::size_t n,
    std::size_t days) {
  const int fd = connect_endpoint(endpoint);
  std::vector<std::unique_ptr<TraceSource>> sources;
  std::vector<std::uint8_t> blob;
  for (std::size_t h = 0; h < n; ++h) {
    const std::string spec = pipelined_spec(base + h);
    sources.push_back(make_scenario_source(ScenarioSpec::parse(spec)));
    encode_hello(blob, HelloMsg{base + h, spec});
  }
  send_all(fd, blob.data(), blob.size());
  for (std::size_t d = 0; d < days; ++d) {
    blob.clear();
    for (std::size_t h = 0; h < n; ++h) {
      const DayTrace trace = sources[h]->next_day();
      encode_readings(blob, ReadingsMsg{base + h, static_cast<std::uint32_t>(d),
                                        0, trace.values()});
    }
    send_all(fd, blob.data(), blob.size());
  }
  blob.clear();
  for (std::size_t h = 0; h < n; ++h) encode_stats(blob, StatsMsg{base + h});
  send_all(fd, blob.data(), blob.size());

  const std::size_t expected = n * (days + 2);
  std::vector<std::vector<std::uint8_t>> replies;
  FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::uint8_t buffer[65536];
  while (replies.size() < expected) {
    while (reader.take(payload)) {
      replies.push_back(payload);
      payload.clear();
    }
    if (replies.size() >= expected) break;
    const std::size_t got = recv_some(fd, buffer, sizeof(buffer));
    if (got == 0) break;
    reader.append(buffer, got);
  }
  close_quietly(fd);
  EXPECT_EQ(replies.size(), expected);
  return replies;
}

// One shard, one connection, every frame pipelined: day closes queue up
// behind each other and are finalized inline, one frame at a time. Every
// reply — Hello acks, day-close acks carrying the post-close cursor, and a
// trailing Stats per household — and every checkpoint file equals, byte
// for byte, what direct eager sessions fed the same days produce, in the
// order the frames were sent.
TEST(ServeServerTest, PipelinedFleetMatchesDirectSessionsByteForByte) {
  constexpr std::uint64_t kBase = 500;
  constexpr std::size_t kHouseholds = 8;
  constexpr std::uint32_t kDays = 2;

  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint8_t> frame;
  std::vector<std::unique_ptr<HouseholdSession>> direct;
  std::vector<std::unique_ptr<TraceSource>> sources;
  for (std::uint64_t id = kBase; id < kBase + kHouseholds; ++id) {
    const std::string spec = pipelined_spec(id);
    direct.push_back(std::make_unique<HouseholdSession>(id, spec));
    sources.push_back(make_scenario_source(ScenarioSpec::parse(spec)));
    HelloAckMsg ack;
    ack.household_id = id;
    frame.clear();
    encode_hello_ack(frame, ack);
    expected.push_back(payload_of(frame));
  }
  for (std::uint32_t d = 0; d < kDays; ++d) {
    for (std::size_t h = 0; h < kHouseholds; ++h) {
      HouseholdSession& s = *direct[h];
      ASSERT_TRUE(s.apply_readings(d, 0, sources[h]->next_day().values()));
      ReadingsAckMsg ack;
      ack.household_id = s.id();
      ack.day = static_cast<std::uint32_t>(s.days_completed());
      ack.next_interval = static_cast<std::uint32_t>(s.next_interval());
      ack.day_completed = 1;
      frame.clear();
      encode_readings_ack(frame, ack);
      expected.push_back(payload_of(frame));
    }
  }
  for (const auto& s : direct) {
    StatsAckMsg ack;
    ack.household_id = s->id();
    ack.days_completed = static_cast<std::uint32_t>(s->days_completed());
    ack.savings_cents = s->savings_cents();
    ack.bill_cents = s->bill_cents();
    ack.usage_cost_cents = s->usage_cost_cents();
    ack.battery_level_kwh = s->battery_level();
    frame.clear();
    encode_stats_ack(frame, ack);
    expected.push_back(payload_of(frame));
  }

  TestDaemon daemon("pipelined");
  daemon.server->stop();
  daemon.config.shards = 1;
  daemon.restart();
  const std::vector<std::vector<std::uint8_t>> replies = drive_pipelined_fleet(
      daemon.server->endpoint(), kBase, kHouseholds, kDays);
  daemon.server->stop();

  ASSERT_EQ(replies.size(), expected.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i], expected[i]) << "reply " << i;
  }
  const CheckpointStore store(daemon.config.checkpoint_dir);
  for (const auto& s : direct) {
    EXPECT_TRUE(read_file(store.path_for(s->id())) == s->save())
        << "household " << s->id();
  }
}

// Building or restoring a session can fail in ways a spec parser does not
// see: a negative size, or one no allocator can satisfy. Each such Hello
// gets an Error and the same connection keeps being served.
TEST(ServeServerTest, HelloBuildFailuresAnswerErrorsAndKeepServing) {
  TestDaemon daemon("hello_failures");
  ServeClient client(daemon.server->endpoint(), 9);
  client.connect();
  std::vector<std::string> bad_specs = {
      "policy=rlblh;policy.stats_bins=-1",
      "pricing=flat;pricing.intervals=-1;policy=rlblh",
      // Digits only, but past std::vector's max_size: std::length_error.
      "policy=rlblh;policy.stats_bins=18446744073709551615",
  };
#ifndef __SANITIZE_ADDRESS__
  // A histogram larger than any 64-bit address space: std::bad_alloc
  // whatever the kernel's overcommit policy. (ASan's operator new aborts on
  // an allocation this size instead of throwing, so that build skips it.)
  bad_specs.push_back("policy=rlblh;policy.stats_bins=100000000000000000");
#endif
  for (const std::string& spec : bad_specs) {
    try {
      client.hello(3, spec);
      ADD_FAILURE() << "expected ServeRequestError for " << spec;
    } catch (const ServeRequestError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kBadSpec) << spec;
    }
  }
  const HelloAckMsg hello = client.hello(3, kSpec);
  EXPECT_EQ(hello.household_id, 3u);
  EXPECT_EQ(daemon.server->household_count(), 1u);
  daemon.server->stop();
}

// The headline guarantee: SIGKILL mid-day + restart + client replay ends in
// EXACTLY the state an uninterrupted run reaches — proven at the byte level
// against a direct (no daemon) HouseholdSession over the same days.
TEST(ServeServerTest, CrashMidDayRestartMatchesUninterruptedByteForByte) {
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);
  std::vector<DayTrace> days;
  for (int d = 0; d < 3; ++d) days.push_back(source->next_day());

  // Uninterrupted reference: a direct session over the same three days.
  HouseholdSession reference(21, kSpec);
  for (std::uint32_t d = 0; d < 3; ++d) {
    const std::vector<double>& values = days[d].values();
    for (std::size_t n0 = 0; n0 < values.size(); n0 += 480) {
      const std::size_t width = std::min<std::size_t>(480, values.size() - n0);
      reference.apply_readings(
          d, static_cast<std::uint32_t>(n0),
          std::span<const double>(values.data() + n0, width));
    }
  }
  const std::string expected = reference.save();

  // Interrupted run: day 0 acked, day 1 half-sent, then the daemon dies
  // without any drain checkpoint.
  TestDaemon daemon("crash_restart");
  {
    ServeClient client(daemon.server->endpoint(), 7);
    client.connect();
    client.hello(21, kSpec);
    send_day(client, 21, 0, days[0]);
    const std::vector<double> half(days[1].values().begin(),
                                   days[1].values().begin() + 720);
    client.send_readings(21, 1, 0, half);
    daemon.server->abort_without_checkpoint();
  }

  // Restart over the same checkpoint dir: the daemon knows day 0 only; the
  // client replays day 1 from the start and continues.
  daemon.restart();
  ServeClient client(daemon.server->endpoint(), 8);
  client.connect();
  const HelloAckMsg hello = client.hello(21, kSpec);
  EXPECT_EQ(hello.resumed, 1);
  EXPECT_EQ(hello.days_completed, 1u);
  EXPECT_EQ(hello.day_open, 0);  // the open day died with the daemon
  send_day(client, 21, 1, days[1]);
  send_day(client, 21, 2, days[2]);
  client.bye(21);
  daemon.server->stop();

  const CheckpointStore store(daemon.config.checkpoint_dir);
  EXPECT_TRUE(read_file(store.path_for(21)) == expected);
}

// Same crash/restart story driven entirely through run_load, comparing the
// final checkpoint files of an interrupted daemon against an uninterrupted
// daemon for every household.
TEST(ServeServerTest, LoadGenKillRestartMatchesUninterruptedCheckpoints) {
  LoadGenConfig load;
  load.households = 2;
  load.days = 3;
  load.seed_base = 40;

  // Uninterrupted daemon.
  TestDaemon baseline("kill_baseline");
  load.endpoint = baseline.server->endpoint();
  run_load(load);
  baseline.server->stop();

  // Interrupted daemon: one day, crash, restart, finish the full target.
  TestDaemon victim("kill_victim");
  LoadGenConfig first_leg = load;
  first_leg.endpoint = victim.server->endpoint();
  first_leg.days = 1;
  first_leg.final_checkpoint = false;
  run_load(first_leg);
  victim.server->abort_without_checkpoint();
  victim.restart();
  LoadGenConfig second_leg = load;
  second_leg.endpoint = victim.server->endpoint();
  run_load(second_leg);
  victim.server->stop();

  const CheckpointStore expected_store(baseline.config.checkpoint_dir);
  const CheckpointStore actual_store(victim.config.checkpoint_dir);
  for (std::uint64_t id = 40; id < 42; ++id) {
    EXPECT_EQ(read_file(actual_store.path_for(id)),
              read_file(expected_store.path_for(id)))
        << "household " << id;
  }
}

}  // namespace
}  // namespace rlblh::serve
