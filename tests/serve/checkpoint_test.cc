// HouseholdSession + CheckpointStore tests: the daemon-side day loop must
// be bitwise-identical to a batch SimEngine run over the same usage, the
// save/restore round-trip must be byte-stable, and the store must reject
// the failure modes (missing file, torn/garbage file, spec mismatch,
// non-checkpointable policy) — a damaged file by the corrupt path: a
// DataError, the file moved to h<id>.ckpt.corrupt, and a count.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>
#include <zlib.h>

#include "battery/battery.h"
#include "core/rlblh_policy.h"
#include "meter/trace.h"
#include "serve/checkpoint.h"
#include "serve/session.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "util/error.h"

namespace rlblh::serve {
namespace {

constexpr const char* kSpec = "policy=rlblh;seed=33";

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Fresh per-test scratch directory under the test temp root.
std::string unique_dir(const std::string& tag) {
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) /
      ("rlblh_serve_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(path);
  return path.string();
}

/// Feeds one full day into the session in fixed-size chunks; returns the
/// ack of the closing chunk.
bool feed_day(HouseholdSession& session, std::uint32_t day,
              const DayTrace& trace, std::size_t chunk = 480) {
  bool completed = false;
  const std::vector<double>& values = trace.values();
  for (std::size_t n0 = 0; n0 < values.size(); n0 += chunk) {
    const std::size_t width = std::min(chunk, values.size() - n0);
    completed = session.apply_readings(
        day, static_cast<std::uint32_t>(n0),
        std::span<const double>(values.data() + n0, width));
  }
  return completed;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `image` with its CRC32 trailer recomputed over the other bytes, so the
/// reader gets past the checksum to the field checks.
std::string with_crc(std::string image) {
  const std::size_t body = image.size() - 4;
  const auto crc = static_cast<std::uint32_t>(crc32_z(
      0, reinterpret_cast<const Bytef*>(image.data()), body));
  std::memcpy(image.data() + body, &crc, sizeof crc);
  return image;
}

/// A session of kSpec after `days` days of its scenario's usage.
std::unique_ptr<HouseholdSession> session_after(std::uint64_t id,
                                                std::size_t days) {
  auto session = std::make_unique<HouseholdSession>(id, kSpec);
  std::unique_ptr<TraceSource> source =
      make_scenario_source(ScenarioSpec::parse(kSpec));
  for (std::size_t d = 0; d < days; ++d) {
    feed_day(*session, static_cast<std::uint32_t>(d), source->next_day());
  }
  return session;
}

/// Where each section of `session`'s image ends (DESIGN.md §15's layout),
/// by name, in order; the last entry is the CRC trailer.
std::vector<std::pair<std::string, std::size_t>> section_ends(
    const HouseholdSession& session) {
  const auto& policy = dynamic_cast<const RlBlhPolicy&>(session.policy());
  std::vector<std::pair<std::string, std::size_t>> ends;
  std::size_t at = 0;
  const auto add = [&](const std::string& name, std::size_t bytes) {
    at += bytes;
    ends.emplace_back(name, at);
  };
  add("magic", 8);
  add("version", 4);
  add("session", 8 + 4 + session.spec_text().size() + 8 + 3 * 8);
  add("battery", 7 * 8);
  add("policy counters", 8 + 8 + 1 + 1);
  add("q table", 16 + 8 * policy.q().parameter_count());
  add("q2 table", 16 + 8 * policy.q2().parameter_count());
  add("rng", 8 * (Mt19937_64::state_size + 1));
  const UsageStatsTracker& stats = policy.usage_stats();
  add("tracker header", 16);
  for (std::size_t n = 0; n < stats.intervals(); ++n) {
    const EmpiricalDistribution& dist = stats.distribution(n);
    add(n == 0 ? "first interval" : "interval",
        8 + 8 + 8 + 8 + 8 * dist.reservoir().size() + 8 + 8 + 8 + 8 +
            8 * dist.histogram().bins());
  }
  add("crc", 4);
  return ends;
}

TEST(HouseholdSessionTest, MatchesBatchSimEngineBitwise) {
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  HouseholdSession session(33, kSpec);
  ASSERT_EQ(session.intervals_per_day(),
            make_scenario_pricing(spec).intervals());

  // Batch reference: identical components, SimEngine day loop.
  const TouSchedule prices = make_scenario_pricing(spec);
  std::unique_ptr<BlhPolicy> batch_policy = make_scenario_policy(spec);
  Battery batch_battery(spec.battery_kwh, spec.battery_kwh / 2.0);
  std::unique_ptr<TraceSource> batch_source = make_scenario_source(spec);
  SimEngine batch;
  double savings = 0.0, bill = 0.0, usage_cost = 0.0;

  // Session side consumes the same deterministic trace days.
  std::unique_ptr<TraceSource> session_source = make_scenario_source(spec);

  for (std::uint32_t d = 0; d < 3; ++d) {
    const DayTrace trace = session_source->next_day();
    EXPECT_TRUE(feed_day(session, d, trace));

    const DayResult& expected =
        batch.run_day(*batch_source, prices, batch_battery, *batch_policy);
    savings += expected.savings_cents;
    bill += expected.bill_cents;
    usage_cost += expected.usage_cost_cents;
  }

  EXPECT_EQ(session.days_completed(), 3u);
  EXPECT_FALSE(session.day_open());
  EXPECT_TRUE(same_bits(session.savings_cents(), savings));
  EXPECT_TRUE(same_bits(session.bill_cents(), bill));
  EXPECT_TRUE(same_bits(session.usage_cost_cents(), usage_cost));
  EXPECT_TRUE(same_bits(session.battery_level(), batch_battery.level()));

  // The learned state itself must match, not just the totals.
  std::stringstream session_state, batch_state;
  session.policy().save_state(session_state);
  batch_policy->save_state(batch_state);
  EXPECT_EQ(session_state.str(), batch_state.str());
}

TEST(HouseholdSessionTest, RejectsOutOfOrderReadings) {
  HouseholdSession session(1, kSpec);
  const std::size_t n_m = session.intervals_per_day();
  std::vector<double> chunk(10, 0.5);

  // Wrong day index.
  EXPECT_THROW(session.apply_readings(1, 0, chunk), ConfigError);
  // Day must open at interval 0.
  EXPECT_THROW(session.apply_readings(0, 5, chunk), ConfigError);

  ASSERT_FALSE(session.apply_readings(0, 0, chunk));
  EXPECT_EQ(session.next_interval(), 10u);
  // Cursor gap.
  EXPECT_THROW(session.apply_readings(0, 11, chunk), ConfigError);
  // A frame must not cross the day boundary.
  std::vector<double> overflow(n_m, 0.5);
  EXPECT_THROW(session.apply_readings(0, 10, overflow), ConfigError);
}

TEST(HouseholdSessionTest, SaveWhileDayOpenThrows) {
  HouseholdSession session(2, kSpec);
  std::vector<double> chunk(10, 0.5);
  session.apply_readings(0, 0, chunk);
  ASSERT_TRUE(session.day_open());
  EXPECT_THROW(session.save(), ConfigError);
}

TEST(HouseholdSessionTest, FramesThatStepNothingOpenNoDayInEitherMode) {
  HouseholdSession eager(4, kSpec);
  HouseholdSession deferred(4, kSpec);
  deferred.set_deferred(true);
  const std::string fresh = eager.save();
  const std::size_t n_m = eager.intervals_per_day();
  const std::vector<double> bad_first = {-1.0, 0.5};
  const std::vector<double> too_long(n_m + 1, 0.5);
  for (HouseholdSession* session : {&eager, &deferred}) {
    SCOPED_TRACE(session == &eager ? "eager" : "deferred");
    // No values, a bad first value, a frame past the end of the day: each
    // is answered without opening the day, so a Checkpoint still succeeds.
    EXPECT_FALSE(session->apply_readings(0, 0, {}));
    EXPECT_THROW(session->apply_readings(0, 0, bad_first), ConfigError);
    EXPECT_THROW(session->apply_readings(0, 0, too_long), ConfigError);
    EXPECT_FALSE(session->day_open());
    EXPECT_EQ(session->next_interval(), 0u);
    EXPECT_TRUE(session->save() == fresh);

    // A bad value mid-frame keeps the valid prefix before it.
    const std::vector<double> bad_mid = {0.5, 0.25, -1.0, 0.5};
    EXPECT_THROW(session->apply_readings(0, 0, bad_mid), ConfigError);
    EXPECT_TRUE(session->day_open());
    EXPECT_EQ(session->next_interval(), 2u);
  }
}

TEST(HouseholdSessionTest, RejectsNonCheckpointablePolicy) {
  EXPECT_THROW(HouseholdSession(3, "policy=none"), ConfigError);
}

TEST(HouseholdSessionTest, RejectsInvalidSpec) {
  EXPECT_THROW(HouseholdSession(4, "policy=does-not-exist"), ConfigError);
  EXPECT_THROW(HouseholdSession(5, "nonsense_key=1"), ConfigError);
}

TEST(HouseholdSessionTest, ServesAndRestoresAnyMiLevels) {
  // Sessions never build the MI estimator, so `mi` stays unbounded at
  // parse time: a Hello, or a stored checkpoint's canonical spec, with a
  // level count the estimator rejects is served and restored as usual.
  const std::string spec_text = "policy=rlblh;seed=33;mi=17";
  HouseholdSession session(7, spec_text);
  std::unique_ptr<TraceSource> source =
      make_scenario_source(ScenarioSpec::parse(spec_text));
  feed_day(session, 0, source->next_day());
  EXPECT_EQ(session.days_completed(), 1u);
  const std::unique_ptr<HouseholdSession> restored =
      HouseholdSession::restore(session.save());
  EXPECT_EQ(restored->spec_text(), session.spec_text());
  EXPECT_EQ(restored->days_completed(), 1u);
}

TEST(HouseholdSessionTest, RestoreContinuesBitwise) {
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  HouseholdSession original(6, kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);

  std::vector<DayTrace> days;
  for (int d = 0; d < 4; ++d) days.push_back(source->next_day());

  feed_day(original, 0, days[0]);
  feed_day(original, 1, days[1]);

  std::unique_ptr<HouseholdSession> restored =
      HouseholdSession::restore(original.save());

  ASSERT_EQ(restored->id(), 6u);
  ASSERT_EQ(restored->days_completed(), 2u);
  EXPECT_EQ(restored->spec_text(), original.spec_text());
  EXPECT_TRUE(same_bits(restored->battery_level(), original.battery_level()));

  // Same future days on both sides: identical trajectories and end states.
  for (std::uint32_t d = 2; d < 4; ++d) {
    feed_day(original, d, days[d]);
    feed_day(*restored, d, days[d]);
  }
  EXPECT_TRUE(same_bits(restored->savings_cents(), original.savings_cents()));
  EXPECT_TRUE(same_bits(restored->bill_cents(), original.bill_cents()));
  EXPECT_TRUE(
      same_bits(restored->battery_level(), original.battery_level()));
  EXPECT_TRUE(original.save() == restored->save());
}

TEST(HouseholdSessionTest, RestoreRejectsGarbage) {
  EXPECT_THROW(HouseholdSession::restore("this is not a checkpoint\n"),
               DataError);
  EXPECT_THROW(HouseholdSession::restore(""), DataError);
}

TEST(HouseholdSessionTest, ImageLayoutMatchesTheDocumentedSections) {
  for (const std::size_t days : {0, 1, 3}) {
    const auto session = session_after(30, days);
    EXPECT_EQ(section_ends(*session).back().second, session->save().size())
        << days << " days";
  }
}

TEST(BatteryCheckpointTest, RoundTripRestoresStateExactly) {
  // Level, violation count and the wasted/grid-extra totals come back
  // bit for bit, and the configuration echo with them.
  const auto original = session_after(31, 3);
  const std::string image = original->save();
  const auto restored = HouseholdSession::restore(image);
  EXPECT_TRUE(same_bits(restored->battery_level(), original->battery_level()));
  std::size_t at = 0;
  for (const auto& [name, end] : section_ends(*original)) {
    if (name == "battery") at = end - 7 * 8;
  }
  ASSERT_GT(at, 0u);
  EXPECT_EQ(image.compare(at, 7 * 8, restored->save(), at, 7 * 8), 0)
      << "battery section differs after the round trip";
  EXPECT_TRUE(restored->save() == image);
}

TEST(BatteryCheckpointTest, RejectsConfigurationMismatch) {
  const auto session = session_after(32, 1);
  const std::string image = session->save();
  std::size_t at = 0;
  for (const auto& [name, end] : section_ends(*session)) {
    if (name == "battery") at = end - 7 * 8;
  }
  ASSERT_GT(at, 0u);
  // Capacity, then each efficiency: a battery the spec does not build.
  for (std::size_t field = 0; field < 3; ++field) {
    std::string bad = image;
    double value = 0.0;
    std::memcpy(&value, bad.data() + at + 8 * field, sizeof value);
    value *= 0.5;
    std::memcpy(bad.data() + at + 8 * field, &value, sizeof value);
    EXPECT_THROW(HouseholdSession::restore(with_crc(bad)), DataError)
        << "field " << field;
  }
}

TEST(CheckpointStoreTest, SaveLoadRoundTripIsByteIdentical) {
  CheckpointStore store(unique_dir("store_roundtrip"));
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  HouseholdSession session(21, kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);
  feed_day(session, 0, source->next_day());
  feed_day(session, 1, source->next_day());

  EXPECT_FALSE(store.exists(21));
  store.save(session);
  EXPECT_TRUE(store.exists(21));
  EXPECT_EQ(store.list(), std::vector<std::uint64_t>{21});

  std::unique_ptr<HouseholdSession> loaded = store.load(21);
  EXPECT_TRUE(session.save() == loaded->save());
  EXPECT_TRUE(read_file(store.path_for(21)) == session.save());
}

TEST(CheckpointStoreTest, SaveLoadSaveIsByteIdenticalAcrossTheReservoirFill) {
  // The reservoir holds 48 values per interval: it fills at day 48, so
  // images grow until then.
  CheckpointStore store(unique_dir("store_fill"));
  std::size_t previous_size = 0;
  for (const std::size_t days : {1, 12, 60}) {
    SCOPED_TRACE(std::to_string(days) + " days");
    const auto session = session_after(days, days);
    store.save(*session);
    const std::string saved = read_file(store.path_for(days));
    const auto loaded = store.load(days);
    EXPECT_EQ(loaded->days_completed(), days);
    EXPECT_TRUE(loaded->save() == saved);
    EXPECT_GT(saved.size(), previous_size);
    previous_size = saved.size();
    const auto& policy =
        dynamic_cast<const RlBlhPolicy&>(loaded->policy());
    EXPECT_EQ(policy.usage_stats().distribution(0).reservoir().size(),
              std::min<std::size_t>(days, 48));
  }
}

TEST(CheckpointStoreTest, SaveIsAtomicOverwrite) {
  CheckpointStore store(unique_dir("store_overwrite"));
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  HouseholdSession session(8, kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);

  feed_day(session, 0, source->next_day());
  store.save(session);
  feed_day(session, 1, source->next_day());
  store.save(session);  // rename over the day-1 snapshot

  std::unique_ptr<HouseholdSession> loaded = store.load(8);
  EXPECT_EQ(loaded->days_completed(), 2u);
  // No leftover tmp files from the two writes.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store.dir())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(CheckpointStoreTest, OpeningStoreSweepsOrphanedTmpFiles) {
  const std::string dir = unique_dir("store_tmp_gc");
  std::string committed;
  {
    CheckpointStore store(dir);
    const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
    HouseholdSession session(5, kSpec);
    std::unique_ptr<TraceSource> source = make_scenario_source(spec);
    feed_day(session, 0, source->next_day());
    store.save(session);
    committed = store.path_for(5);
    // Simulate a crash between serialize and rename: an orphaned tmp next
    // to the committed file.
    std::ofstream orphan(committed + ".tmp");
    orphan << "torn half-written checkpoint\n";
  }
  const std::string before = [&] {
    std::ifstream in(committed, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }();

  CheckpointStore reopened(dir);  // the restart path sweeps
  EXPECT_FALSE(std::filesystem::exists(committed + ".tmp"));
  EXPECT_TRUE(reopened.exists(5));
  std::ifstream in(committed, std::ios::binary);
  std::stringstream after;
  after << in.rdbuf();
  EXPECT_EQ(after.str(), before) << "sweep must not touch committed files";
}

TEST(CheckpointStoreTest, LoadMissingOrMalformedThrows) {
  CheckpointStore store(unique_dir("store_malformed"));
  EXPECT_THROW(store.load(99), DataError);
  EXPECT_EQ(store.corrupt_count(), 0u) << "a missing file is not corrupt";
  {
    std::ofstream out(store.path_for(99));
    out << "garbage bytes, not a session checkpoint\n";
  }
  EXPECT_TRUE(store.exists(99));
  EXPECT_THROW(store.load(99), DataError);
  EXPECT_FALSE(store.exists(99));
  EXPECT_TRUE(std::filesystem::exists(store.path_for(99) + ".corrupt"));
  EXPECT_EQ(store.corrupt_count(), 1u);
}

/// Plants `bytes` as household `id`'s checkpoint and expects the corrupt
/// path: load() throws DataError, the file is moved to h<id>.ckpt.corrupt
/// with its bytes intact, and the store counts it.
void expect_corrupt(const CheckpointStore& store, std::uint64_t id,
                    const std::string& bytes, const std::string& label) {
  SCOPED_TRACE(label);
  write_file(store.path_for(id), bytes);
  const std::size_t before = store.corrupt_count();
  EXPECT_THROW(store.load(id), DataError);
  EXPECT_FALSE(store.exists(id));
  EXPECT_TRUE(read_file(store.path_for(id) + ".corrupt") == bytes);
  EXPECT_EQ(store.corrupt_count(), before + 1);
}

TEST(CheckpointStoreTest, V1TextCheckpointTakesTheCorruptPath) {
  CheckpointStore store(unique_dir("store_v1"));
  // The head of a v1 file as the text format wrote it.
  const std::string v1 =
      "rlblh-serve-household v1\nid 5\nspec policy=rlblh;seed=33\n"
      "days 1 cum 12.5 340.25 352.75\n"
      "battery 5 1 1 2.5 0 0 0\nrlblh-policy v1\n"
      "day 1 episodes 1 learning 1 exploration 1\nrlblh-weights v1\n";
  expect_corrupt(store, 5, v1, "v1 text");
}

TEST(CheckpointStoreTest, TruncationAtEverySectionTakesTheCorruptPath) {
  CheckpointStore store(unique_dir("store_truncated"));
  const auto session = session_after(6, 2);
  const std::string image = session->save();
  std::vector<std::size_t> lengths = {0, 1, 11, 15, 16, image.size() - 1};
  for (const auto& [name, end] : section_ends(*session)) {
    if (end < image.size()) lengths.push_back(end);
    if (name == "interval") break;  // the rest are 1 439 alike
  }
  for (std::size_t k = 1; k <= 8; ++k) lengths.push_back(image.size() * k / 9);
  for (const std::size_t length : lengths) {
    expect_corrupt(store, 6, image.substr(0, length),
                   "truncated to " + std::to_string(length) + " bytes");
  }
}

TEST(CheckpointStoreTest, FlippedBitInEverySectionTakesTheCorruptPath) {
  CheckpointStore store(unique_dir("store_bitflip"));
  const auto session = session_after(7, 2);
  const std::string image = session->save();
  std::size_t begin = 0;
  for (const auto& [name, end] : section_ends(*session)) {
    if (name != "interval") {  // the 1 439 after the first are alike
      // A bit in the middle of the section.
      const std::size_t at = begin + (end - begin) / 2;
      std::string bad = image;
      bad[at] = static_cast<char>(bad[at] ^ (1 << (at % 8)));
      expect_corrupt(store, 7, bad, "bit flip in " + name);
    }
    begin = end;
  }
}

TEST(CheckpointStoreTest, WrongVersionOrMagicTakesTheCorruptPath) {
  CheckpointStore store(unique_dir("store_version"));
  const auto session = session_after(8, 1);
  const std::string image = session->save();
  std::uint32_t version = 0;
  std::memcpy(&version, image.data() + 8, sizeof version);
  ASSERT_EQ(version, 2u);
  for (const std::uint32_t wrong : {1u, 3u}) {
    std::string bad = image;
    std::memcpy(bad.data() + 8, &wrong, sizeof wrong);
    // With the CRC recomputed the version check itself rejects the file.
    expect_corrupt(store, 8, with_crc(bad), "version " + std::to_string(wrong));
    expect_corrupt(store, 8, bad, "version with a stale CRC");
  }
  std::string bad_magic = image;
  bad_magic[0] = 'R';
  expect_corrupt(store, 8, with_crc(bad_magic), "magic");
  // A valid image under another household's file name.
  expect_corrupt(store, 9, image, "household id");
}

}  // namespace
}  // namespace rlblh::serve
