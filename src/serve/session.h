// One served household: scenario components + streaming day loop + totals.
//
// A HouseholdSession is the daemon-side mirror of what build_scenario wires
// up for a simulator run — the same registries build the policy and price
// schedule from the same spec string, the battery starts at b_M / 2 — and
// the day loop is the simulator's own SimEngine, driven through its push
// entry by Readings frames as they arrive. A session that has consumed D
// days of a household's usage therefore holds exactly the
// policy/battery/RNG state a simulated run over the same D days would
// hold (serve/server_test.cc pins this differentially).
//
// Checkpoint contract: save() is only legal between days (the policy's
// day-scoped state is empty there — DESIGN.md §15) and returns the v2
// image — a little-endian binary header, session totals, battery and
// policy image, closed by a CRC32 of every byte before it. A session
// restored from that image continues bitwise-identically, and saving it
// again gives the same bytes. restore() checks the length and the CRC
// before it parses any field, so a damaged, truncated or v1 text file is a
// DataError. The client replays the day that was open when the daemon
// died.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "battery/battery.h"
#include "core/policy.h"
#include "pricing/tou.h"
#include "sim/scenario.h"
#include "sim/engine.h"

namespace rlblh::serve {

class HouseholdSession {
 public:
  /// Builds the household from a ScenarioSpec string via the registries.
  /// Throws ConfigError when the spec is invalid or names a policy without
  /// checkpoint support (every served policy must be restorable).
  HouseholdSession(std::uint64_t id, const std::string& spec_text);

  /// Rebuilds a session from an image written by save(). Checks the
  /// length and CRC32 first, then every field and count against the
  /// configuration the stored spec builds. Throws DataError on any image
  /// that save() could not have written.
  static std::unique_ptr<HouseholdSession> restore(std::string_view image);

  std::uint64_t id() const { return id_; }

  /// Canonical spec string (the session's identity; a reconnecting client
  /// must present a spec with the same canonical form).
  const std::string& spec_text() const { return spec_text_; }

  std::size_t days_completed() const { return days_; }
  bool day_open() const { return engine_.day_open() || !pending_.empty(); }

  /// Interval the next reading must carry (0 when no day is open). The
  /// engine's cursor only counts while its day is open — SimEngine leaves
  /// it at the day length after finish_day() until the next begin_day().
  std::size_t next_interval() const {
    return (engine_.day_open() ? engine_.next_interval() : 0) +
           pending_.size();
  }

  std::size_t intervals_per_day() const { return prices_.intervals(); }

  /// Applies a contiguous run of usage values at (day, first_interval).
  /// Opens the day with its first value, closes it after the last
  /// interval; a frame without values opens nothing. A frame must not
  /// cross a day boundary. Throws ConfigError when the cursor does not
  /// match the session (the server answers kOutOfOrder), and for a value
  /// that is not finite and >= 0 — after applying the valid prefix before
  /// it. Returns true when this call completed a day.
  bool apply_readings(std::uint32_t day, std::uint32_t first_interval,
                      std::span<const double> values);

  double savings_cents() const { return savings_cents_; }
  double bill_cents() const { return bill_cents_; }
  double usage_cost_cents() const { return usage_cost_cents_; }
  double battery_level() const { return battery_.level(); }

  /// The live policy (differential tests compare its serialized state
  /// against a SimEngine run's).
  const BlhPolicy& policy() const { return *policy_; }

  // --- deferred days (shards) --------------------------------------------
  //
  // A shard runs its sessions deferred: apply_readings() only validates and
  // buffers, so a mid-day frame does no engine work, and the shard closes a
  // complete day with finalize_day_stream() before it handles its next
  // frame. Both modes run one validation — same checks, messages and
  // partial-application cursor — so replies are byte-identical, and the
  // engine later receives the same values in the same order, so the
  // stepped state is too.

  /// Switches the session to deferred buffering (set once, right after
  /// construction/restore; never with a day open).
  void set_deferred(bool on);

  /// Steps every buffered interval through the engine (opening the day if
  /// needed) without closing the day — the Stats path uses this so mid-day
  /// battery/cents queries match the eager path bitwise.
  void flush_pending_to_stream();

  /// Closes a complete day through the engine (flush + finish_day +
  /// totals).
  void finalize_day_stream();

  /// The v2 checkpoint image of the full between-days state (spec,
  /// counters, cumulative cents, battery, policy; layout in DESIGN.md §15).
  /// Throws ConfigError while a day is open.
  std::string save() const;

 private:
  explicit HouseholdSession() = default;
  void build_components();

  /// Pushes `values` through the engine, opening the day first when
  /// needed; an empty run opens nothing.
  void step(std::span<const double> values);

  std::uint64_t id_ = 0;
  std::string spec_text_;
  ScenarioSpec spec_;
  TouSchedule prices_ = TouSchedule::flat(1, 0.0);  ///< replaced in build
  Battery battery_{1.0};
  std::unique_ptr<BlhPolicy> policy_;
  SimEngine engine_;

  bool deferred_ = false;
  std::vector<double> pending_;  ///< validated, not-yet-stepped usage

  std::size_t days_ = 0;
  double savings_cents_ = 0.0;
  double bill_cents_ = 0.0;
  double usage_cost_cents_ = 0.0;
};

}  // namespace rlblh::serve
