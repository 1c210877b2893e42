// The serve-side deferral property, across days, frame chunkings and
// battery sizes: a fleet of HouseholdSessions in deferred mode (exactly how
// serve/shard.cc runs them — mid-day frames only buffer, a complete day
// closes through finalize_day_stream(), and a mid-day Stats flushes the
// buffered prefix through the engine) must end every day with checkpoint
// bytes IDENTICAL to eager per-frame streaming — battery level, violation
// count, cumulative wasted/grid-extra totals, money, and policy weights,
// all bit-for-bit. Between frames both modes must report the same cursor
// and open-day flag (the fields of a ReadingsAck or HelloAck), also around
// frames that carry no values.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "meter/trace.h"
#include "serve/session.h"
#include "sim/scenario.h"
#include "util/proptest.h"

namespace rlblh::serve {
namespace {

struct FleetCase {
  std::size_t width = 2;           ///< households in the fleet
  std::size_t days = 1;
  std::uint64_t seed_base = 1;
  double battery_kwh = 13.5;
  std::size_t chunk = 240;         ///< readings per apply_readings call
  std::vector<bool> stats_mid_day;  ///< per day: flush after the first frame
  /// Per day: an empty frame before the day's first frame and one after it.
  std::vector<bool> empty_frames;
};

proptest::Domain<FleetCase> fleet_domain() {
  proptest::Domain<FleetCase> domain;
  domain.generate = [](Rng& rng) {
    FleetCase c;
    c.width = static_cast<std::size_t>(rng.uniform_int(2, 6));
    c.days = static_cast<std::size_t>(rng.uniform_int(1, 3));
    c.seed_base = static_cast<std::uint64_t>(rng.uniform_int(1, 100000));
    // Keep above the rlblh guard-band floor (b_M >= 2 * x_M * n_D = 2.4),
    // but hug it from above: small batteries make violations — and the
    // wasted/grid-extra totals in the checkpoint — actually move.
    c.battery_kwh = rng.uniform(2.5, 20.0);
    const std::size_t chunks[] = {1, 7, 240, 480, 1440};
    c.chunk = chunks[rng.uniform_int(0, 4)];
    c.stats_mid_day.resize(c.days);
    c.empty_frames.resize(c.days);
    for (std::size_t d = 0; d < c.days; ++d) {
      c.stats_mid_day[d] = rng.uniform_int(0, 1) == 1;
      c.empty_frames[d] = rng.uniform_int(0, 1) == 1;
    }
    return c;
  };
  domain.shrink = [](const FleetCase& from) {
    std::vector<FleetCase> out;
    if (from.width > 2) {
      FleetCase c = from;
      c.width = 2;
      out.push_back(std::move(c));
    }
    if (from.days > 1) {
      FleetCase c = from;
      c.days = 1;
      c.stats_mid_day.assign(1, from.stats_mid_day[0]);
      c.empty_frames.assign(1, from.empty_frames[0]);
      out.push_back(std::move(c));
    }
    if (from.chunk != 1440) {
      FleetCase c = from;
      c.chunk = 1440;
      out.push_back(std::move(c));
    }
    return out;
  };
  domain.describe = [](const FleetCase& c) {
    std::ostringstream out;
    out << "FleetCase{width=" << c.width << " days=" << c.days << " seed_base="
        << c.seed_base << " battery=" << c.battery_kwh << " chunk=" << c.chunk
        << " stats=[";
    for (std::size_t d = 0; d < c.days; ++d) {
      out << (c.stats_mid_day[d] ? 'S' : '-')
          << (c.empty_frames[d] ? 'E' : '-');
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

std::string spec_for(const FleetCase& c, std::size_t k) {
  std::ostringstream out;
  out.precision(17);
  out << "policy=rlblh;battery=" << c.battery_kwh << ";seed="
      << (c.seed_base + k);
  return out.str();
}

/// Both modes must answer the same cursor and open-day flag.
void check_same_cursor(const HouseholdSession& eager,
                       const HouseholdSession& deferred, const char* where) {
  PROPTEST_CHECK(eager.next_interval() == deferred.next_interval() &&
                     eager.day_open() == deferred.day_open(),
                 std::string("cursor diverged ") + where);
}

TEST(ServeDeferredProptest, DeferredDaysMatchEagerStreamingBitwise) {
  proptest::PropertyOptions options;
  options.iterations = 40;
  options.base_seed = 0x57e4d1ff + 12;
  const auto result = for_all(
      "serve deferred days vs eager streaming", fleet_domain(),
      [](const FleetCase& c, Rng&) {
        // Twin fleets over identical usage: `eager` streams every frame,
        // `deferred` buffers and closes days the way a shard does.
        std::vector<std::unique_ptr<HouseholdSession>> eager, deferred;
        std::vector<std::unique_ptr<TraceSource>> sources;
        for (std::size_t k = 0; k < c.width; ++k) {
          const std::string spec_text = spec_for(c, k);
          eager.push_back(std::make_unique<HouseholdSession>(k, spec_text));
          deferred.push_back(std::make_unique<HouseholdSession>(k, spec_text));
          deferred.back()->set_deferred(true);
          sources.push_back(
              make_scenario_source(ScenarioSpec::parse(spec_text)));
        }
        const std::size_t n_m = deferred[0]->intervals_per_day();

        for (std::size_t d = 0; d < c.days; ++d) {
          const auto day = static_cast<std::uint32_t>(d);
          for (std::size_t k = 0; k < c.width; ++k) {
            DayTrace trace(n_m);
            sources[k]->next_day_into(trace);
            const std::vector<double>& values = trace.values();
            if (c.empty_frames[d]) {
              // A frame without values validates its cursor and opens
              // nothing, so a checkpoint still succeeds in both modes.
              eager[k]->apply_readings(day, 0, {});
              deferred[k]->apply_readings(day, 0, {});
              check_same_cursor(*eager[k], *deferred[k], "at a day boundary");
              PROPTEST_CHECK(
                  deferred[k]->save() == eager[k]->save(),
                  "checkpoint after an empty frame diverged");
            }
            bool closed = false;
            for (std::size_t n0 = 0; n0 < n_m; n0 += c.chunk) {
              const auto first = static_cast<std::uint32_t>(n0);
              const std::size_t width = std::min(c.chunk, n_m - n0);
              const std::span<const double> frame(values.data() + n0, width);
              eager[k]->apply_readings(day, first, frame);
              closed = deferred[k]->apply_readings(day, first, frame);
              if (closed) continue;
              check_same_cursor(*eager[k], *deferred[k], "mid-day");
              if (n0 == 0 && c.empty_frames[d]) {
                const auto next =
                    static_cast<std::uint32_t>(eager[k]->next_interval());
                eager[k]->apply_readings(day, next, {});
                deferred[k]->apply_readings(day, next, {});
                check_same_cursor(*eager[k], *deferred[k], "mid-day");
              }
              if (n0 == 0 && c.stats_mid_day[d]) {
                deferred[k]->flush_pending_to_stream();
                PROPTEST_CHECK(
                    deferred[k]->battery_level() == eager[k]->battery_level(),
                    "mid-day battery level after a flush");
              }
            }
            PROPTEST_CHECK(closed, "the last frame must complete the day");
            deferred[k]->finalize_day_stream();
            // Every day boundary must agree byte-for-byte — including the
            // cumulative wasted/grid-extra battery totals.
            if (deferred[k]->save() != eager[k]->save()) {
              throw proptest::PropertyFailure(
                  "household " + std::to_string(k) + " diverged after day " +
                  std::to_string(d));
            }
          }
        }
      },
      options);
  ASSERT_TRUE(result.success) << result.message;
}

}  // namespace
}  // namespace rlblh::serve
