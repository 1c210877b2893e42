#include "serve/session.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/serialize.h"
#include "util/error.h"

namespace rlblh::serve {

namespace {
constexpr const char* kMagic = "rlblh-serve-household v1";
}

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

void HouseholdSession::save(std::ostream& out) const {
  RLBLH_REQUIRE(!day_open(),
                "serve session: checkpoint only between days (the open "
                "day's intervals are replayed by the client on resume)");
  out << kMagic << '\n';
  out << "id " << id_ << '\n';
  out << "spec " << spec_text_ << '\n';
  const auto precision = out.precision(17);
  out << "days " << days_ << " cum " << savings_cents_ << ' ' << bill_cents_
      << ' ' << usage_cost_cents_ << '\n';
  out.precision(precision);
  save_battery(out, battery_);
  policy_->save_state(out);
  out << "end rlblh-serve-household\n";
}

std::unique_ptr<HouseholdSession> HouseholdSession::restore(
    std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw DataError("serve checkpoint: missing or wrong header (expected '" +
                    std::string(kMagic) + "')");
  }
  std::uint64_t id = 0;
  {
    std::string word;
    if (!(in >> word >> id) || word != "id") {
      throw DataError("serve checkpoint: malformed id line");
    }
  }
  std::string spec_text;
  {
    std::string word;
    if (!(in >> word) || word != "spec" || !(in >> std::ws) ||
        !std::getline(in, spec_text) || spec_text.empty()) {
      throw DataError("serve checkpoint: malformed spec line");
    }
  }
  std::size_t days = 0;
  double savings = 0.0, bill = 0.0, usage_cost = 0.0;
  {
    std::string days_word, cum_word;
    if (!(in >> days_word >> days >> cum_word >> savings >> bill >>
          usage_cost) ||
        days_word != "days" || cum_word != "cum") {
      throw DataError("serve checkpoint: malformed totals line");
    }
  }

  auto session = std::unique_ptr<HouseholdSession>(new HouseholdSession());
  session->id_ = id;
  try {
    session->spec_ = ScenarioSpec::parse(spec_text);
  } catch (const ConfigError& e) {
    throw DataError(std::string("serve checkpoint: bad spec: ") + e.what());
  }
  session->spec_text_ = session->spec_.canonical();
  session->build_components();
  session->days_ = days;
  session->savings_cents_ = savings;
  session->bill_cents_ = bill;
  session->usage_cost_cents_ = usage_cost;

  load_battery(in, session->battery_);
  in >> std::ws;
  session->policy_->load_state(in);
  std::string end_word, end_name;
  if (!(in >> end_word >> end_name) || end_word != "end" ||
      end_name != "rlblh-serve-household") {
    throw DataError("serve checkpoint: missing end marker");
  }
  return session;
}

}  // namespace rlblh::serve
