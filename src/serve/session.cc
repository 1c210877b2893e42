#include "serve/session.h"

#include <zlib.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/bytes.h"
#include "util/error.h"

namespace rlblh::serve {

namespace {

// Checkpoint image framing (DESIGN.md §15): magic and version up front,
// a CRC32 of every earlier byte at the end.
constexpr std::string_view kMagic = "rlblh-ck";
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);

std::uint32_t crc32_of(std::string_view bytes) {
  return static_cast<std::uint32_t>(
      crc32_z(0, reinterpret_cast<const Bytef*>(bytes.data()), bytes.size()));
}

}  // namespace

HouseholdSession::HouseholdSession(std::uint64_t id,
                                   const std::string& spec_text) : id_(id) {
  spec_ = ScenarioSpec::parse(spec_text);
  spec_text_ = spec_.canonical();
  build_components();
}

void HouseholdSession::build_components() {
  prices_ = make_scenario_pricing(spec_);
  battery_ = Battery(spec_.battery_kwh, spec_.battery_kwh / 2.0);
  policy_ = make_scenario_policy(spec_);
  if (!policy_->checkpointable()) {
    throw ConfigError("serve: policy '" + std::string(policy_->name()) +
                      "' does not support checkpoint/restore; every served "
                      "household must be resumable");
  }
}

bool HouseholdSession::apply_readings(std::uint32_t day,
                                      std::uint32_t first_interval,
                                      std::span<const double> values) {
  RLBLH_REQUIRE(day == days_,
                "serve session: readings for day " + std::to_string(day) +
                    " but the session is at day " + std::to_string(days_));
  // One validation for both modes, run before anything is applied.
  const std::size_t cursor = next_interval();
  if (!day_open()) {
    RLBLH_REQUIRE(first_interval == 0,
                  "serve session: a day must start at interval 0");
  }
  RLBLH_REQUIRE(first_interval == cursor,
                "serve session: readings at interval " +
                    std::to_string(first_interval) + " but interval " +
                    std::to_string(cursor) + " is next");
  RLBLH_REQUIRE(first_interval + values.size() <= prices_.intervals(),
                "serve session: readings run past the end of the day");
  // A bad value mid-frame leaves the valid prefix before it applied.
  std::size_t valid = 0;
  while (valid < values.size() && std::isfinite(values[valid]) &&
         values[valid] >= 0.0) {
    ++valid;
  }
  const std::span<const double> prefix = values.first(valid);
  if (deferred_) {
    pending_.insert(pending_.end(), prefix.begin(), prefix.end());
  } else {
    step(prefix);
  }
  RLBLH_REQUIRE(valid == values.size(),
                "serve session: usage must be finite and >= 0");
  if (next_interval() < prices_.intervals()) return false;
  // A deferred day is closed by the owning shard, which calls
  // finalize_day_stream() before it sends the ack.
  if (!deferred_) finalize_day_stream();
  return true;
}

void HouseholdSession::set_deferred(bool on) {
  RLBLH_REQUIRE(!day_open(),
                "serve session: deferred mode cannot change mid-day");
  deferred_ = on;
}

void HouseholdSession::step(std::span<const double> values) {
  if (values.empty()) return;
  if (!engine_.day_open()) engine_.begin_day(prices_, battery_, *policy_);
  engine_.push_block(values);
}

void HouseholdSession::flush_pending_to_stream() {
  step(pending_);
  pending_.clear();
}

void HouseholdSession::finalize_day_stream() {
  RLBLH_REQUIRE(next_interval() == prices_.intervals(),
                "serve session: finalize without a complete day");
  flush_pending_to_stream();
  const DayResult& result = engine_.finish_day();
  savings_cents_ += result.savings_cents;
  bill_cents_ += result.bill_cents;
  usage_cost_cents_ += result.usage_cost_cents;
  ++days_;
}

std::string HouseholdSession::save() const {
  RLBLH_REQUIRE(!day_open(),
                "serve session: checkpoint only between days (the open "
                "day's intervals are replayed by the client on resume)");
  std::ostringstream policy;
  policy_->save_state(policy);
  const std::string_view policy_image = policy.view();
  std::string image;
  image.reserve(kMagic.size() + 4 + 8 + 4 + spec_text_.size() + 8 + 3 * 8 +
                7 * 8 + policy_image.size() + kCrcBytes);
  ByteWriter w(image);
  w.bytes(kMagic);
  w.u32(kVersion);
  w.u64(id_);
  w.u32(static_cast<std::uint32_t>(spec_text_.size()));
  w.bytes(spec_text_);
  w.u64(days_);
  w.f64(savings_cents_);
  w.f64(bill_cents_);
  w.f64(usage_cost_cents_);
  w.f64(battery_.capacity());
  w.f64(battery_.charge_efficiency());
  w.f64(battery_.discharge_efficiency());
  w.f64(battery_.level());
  w.u64(battery_.violation_count());
  w.f64(battery_.total_wasted_charge());
  w.f64(battery_.total_grid_extra());
  w.bytes(policy_image);
  w.u32(crc32_of(image));
  return image;
}

std::unique_ptr<HouseholdSession> HouseholdSession::restore(
    std::string_view image) {
  if (image.size() < kMagic.size() + sizeof(kVersion) + kCrcBytes) {
    throw DataError("serve checkpoint: truncated (" +
                    std::to_string(image.size()) + " bytes)");
  }
  const std::string_view body = image.substr(0, image.size() - kCrcBytes);
  std::uint32_t crc = 0;
  std::memcpy(&crc, image.data() + body.size(), kCrcBytes);
  if (crc != crc32_of(body)) {
    throw DataError(
        "serve checkpoint: CRC32 mismatch (damaged, truncated, or not a v2 "
        "checkpoint)");
  }
  ByteReader r(body, "serve checkpoint");
  if (r.bytes(kMagic.size()) != kMagic) r.fail("wrong magic");
  if (const std::uint32_t version = r.u32(); version != kVersion) {
    r.fail("unsupported version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kVersion) + ")");
  }
  auto session = std::unique_ptr<HouseholdSession>(new HouseholdSession());
  // Component constructors and Battery::restore report bad values as
  // ConfigError; in a checkpoint they are bad data.
  try {
    session->id_ = r.u64();
    const std::string_view spec_text = r.bytes(r.u32());
    session->spec_ = ScenarioSpec::parse(std::string(spec_text));
    session->spec_text_ = session->spec_.canonical();
    if (session->spec_text_ != spec_text) r.fail("spec is not canonical");
    session->build_components();
    session->days_ = r.u64();
    session->savings_cents_ = r.f64();
    session->bill_cents_ = r.f64();
    session->usage_cost_cents_ = r.f64();

    Battery& battery = session->battery_;
    const double capacity = r.f64();
    const double charge_eff = r.f64();
    const double discharge_eff = r.f64();
    if (capacity != battery.capacity() ||
        charge_eff != battery.charge_efficiency() ||
        discharge_eff != battery.discharge_efficiency()) {
      r.fail("battery configuration (capacity/efficiency) does not match "
             "the spec");
    }
    const double level = r.f64();
    const std::uint64_t violations = r.u64();
    const double wasted = r.f64();
    const double grid_extra = r.f64();
    battery.restore(level, violations, wasted, grid_extra);

    std::istringstream policy{std::string(r.rest())};
    session->policy_->load_state(policy);
  } catch (const ConfigError& e) {
    throw DataError(std::string("serve checkpoint: ") + e.what());
  }
  return session;
}

}  // namespace rlblh::serve
