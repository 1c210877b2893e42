// HouseholdSession + CheckpointStore tests: the daemon-side day loop must
// be bitwise-identical to a batch SimEngine run over the same usage, the
// save/restore round-trip must be byte-stable, and the store must reject
// the failure modes (missing file, torn/garbage file, spec mismatch,
// non-checkpointable policy).
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "battery/battery.h"
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

std::string checkpoint_bytes(const HouseholdSession& session) {
  std::stringstream out;
  session.save(out);
  return out.str();
}

TEST(HouseholdSessionTest, MatchesBatchSimEngineBitwise) {
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  HouseholdSession session(33, kSpec);
  ASSERT_EQ(session.intervals_per_day(), make_scenario_pricing(spec).intervals());

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
  std::stringstream out;
  EXPECT_THROW(session.save(out), ConfigError);
}

TEST(HouseholdSessionTest, FramesThatStepNothingOpenNoDayInEitherMode) {
  HouseholdSession eager(4, kSpec);
  HouseholdSession deferred(4, kSpec);
  deferred.set_deferred(true);
  const std::string fresh = checkpoint_bytes(eager);
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
    EXPECT_EQ(checkpoint_bytes(*session), fresh);

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

TEST(HouseholdSessionTest, RestoreContinuesBitwise) {
  const ScenarioSpec spec = ScenarioSpec::parse(kSpec);
  HouseholdSession original(6, kSpec);
  std::unique_ptr<TraceSource> source = make_scenario_source(spec);

  std::vector<DayTrace> days;
  for (int d = 0; d < 4; ++d) days.push_back(source->next_day());

  feed_day(original, 0, days[0]);
  feed_day(original, 1, days[1]);

  std::stringstream checkpoint;
  original.save(checkpoint);
  std::unique_ptr<HouseholdSession> restored =
      HouseholdSession::restore(checkpoint);

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
  std::stringstream a, b;
  original.save(a);
  restored->save(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(HouseholdSessionTest, RestoreRejectsGarbage) {
  std::stringstream garbage("this is not a checkpoint\n");
  EXPECT_THROW(HouseholdSession::restore(garbage), DataError);
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
  std::stringstream a, b;
  session.save(a);
  loaded->save(b);
  EXPECT_EQ(a.str(), b.str());
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
  {
    std::ofstream out(store.path_for(99));
    out << "garbage bytes, not a session checkpoint\n";
  }
  EXPECT_TRUE(store.exists(99));
  EXPECT_THROW(store.load(99), DataError);
}

}  // namespace
}  // namespace rlblh::serve
