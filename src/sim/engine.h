// SimEngine — the measurement-interval day loop of the paper's system model
// (Section II, Algorithm 1), separated from household wiring.
//
// At each decision boundary the policy commits a pulse y for the next
// pulse_width() intervals before it sees that usage; the battery buffers
// the difference, and the meter records y plus any shortfall. The loop is
// the same whether the day comes from a simulator or a live meter, so the
// engine has two entries over one private, resumable block loop:
//
//   pull  run_day / run_days draw whole days from a TraceSource — a
//         Scenario, the fleet and every bench;
//   push  begin_day / push_block / finish_day take usage as it arrives —
//         the serving daemon, whose readings come in frames over a socket.
//
// A day pushed in any chunking and the same day pulled produce
// bitwise-identical DayResults and leave the policy, battery and RNG in
// bitwise-identical states (stream_diff_proptest).
//
// The engine owns the per-day loop state only: the reused scratch
// DayResult, the optional invariant checker and the obs counters. It
// borrows the household pieces (trace source, price schedule, battery,
// policy) per day, so Scenario, the fleet's households and the daemon's
// sessions share it without re-implementing the loop.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "battery/battery.h"
#include "core/policy.h"
#include "meter/trace.h"
#include "pricing/tou.h"
#include "sim/day_result.h"
#include "sim/invariants.h"

namespace rlblh {

/// Runs days of the measurement-interval loop over borrowed household state.
class SimEngine {
 public:
  /// Observer invoked after each completed day of a run_days() loop with
  /// the 0-based day index and that day's record. The reference is to the
  /// engine's reused scratch record: copy what must outlive the call.
  using DayCallback = std::function<void(std::size_t day, const DayResult&)>;

  /// Runs one full day: draws the day's usage from `source`, drives
  /// `policy` against `prices` with `battery` buffering the difference, and
  /// returns the day's record. The reference stays valid until the next
  /// day on this engine (all scratch buffers are reused across days, so the
  /// steady-state day loop performs no per-day allocation of its own). The
  /// price schedule length must match the source's day length, and no
  /// pushed day may be open.
  const DayResult& run_day(TraceSource& source, const TouSchedule& prices,
                           Battery& battery, BlhPolicy& policy);

  /// Runs `days` consecutive days, returning the last result (the cheap
  /// path for long training phases). When `on_day` is set it observes every
  /// day's record in order.
  const DayResult& run_days(TraceSource& source, const TouSchedule& prices,
                            Battery& battery, BlhPolicy& policy,
                            std::size_t days,
                            const DayCallback& on_day = nullptr);

  /// Opens a pushed day of prices.intervals() intervals: runs
  /// policy.begin_day(prices) and arms the interval cursor. The borrowed
  /// prices/battery/policy must outlive the open day. Throws ConfigError
  /// when a day is already open or the policy's pulse_width() is 0 (the
  /// policy has then begun its day and must be discarded).
  void begin_day(const TouSchedule& prices, Battery& battery,
                 BlhPolicy& policy);

  /// Steps the next usage.size() intervals of the open day. Each value must
  /// be finite and >= 0: the valid prefix is stepped, and then ConfigError
  /// is thrown for the first bad value, leaving the cursor after the
  /// prefix. Throws, stepping nothing, when no day is open or the values
  /// run past the end of the day.
  void push_block(std::span<const double> usage);

  /// Closes the pushed day: requires every interval pushed, runs
  /// policy.end_day() and returns the day's record (valid until the next
  /// day on this engine). Runs the invariant checker when enabled.
  const DayResult& finish_day();

  /// True between begin_day() and finish_day().
  bool day_open() const { return policy_ != nullptr; }

  /// Index of the next interval push_block() steps (0-based; the day
  /// length after finish_day() until the next begin_day()).
  std::size_t next_interval() const { return n_; }

  /// Turns on per-day invariant enforcement: after every day the day's
  /// record is verified against the given config and an
  /// InvariantViolationError is thrown on the first violating day. Costs
  /// one extra pass over the day's series and nothing when off.
  void enable_invariant_checks(const InvariantCheckConfig& config);

  /// Turns per-day invariant enforcement back off.
  void disable_invariant_checks() { invariant_config_.reset(); }

  /// True while enable_invariant_checks is in effect.
  bool invariant_checks_enabled() const {
    return invariant_config_.has_value();
  }

 private:
  /// Steps intervals [n_, end) of the open day, whose usage is already in
  /// the scratch record, resuming mid-block.
  void step_to(std::size_t end);

  /// The block loop behind step_to(), instantiated once with and once
  /// without the battery so the per-interval body carries no branch on it.
  template <bool kPassthrough>
  void step_loop(std::size_t end);

  std::optional<InvariantCheckConfig> invariant_config_;
  DayResult scratch_;  ///< day record reused across days

  // Borrowed for the duration of an open day (policy_ != nullptr).
  const TouSchedule* prices_ = nullptr;
  Battery* battery_ = nullptr;
  BlhPolicy* policy_ = nullptr;
  std::size_t n_m_ = 0;    ///< intervals in the open day
  std::size_t pulse_ = 1;  ///< the policy's pulse width for the day
  bool passthrough_ = false;
  std::size_t violations_before_ = 0;

  // Loop state between step_to() calls.
  std::size_t n_ = 0;            ///< next interval to step
  std::size_t block_start_ = 0;  ///< first interval of the current block
  std::size_t block_end_ = 0;    ///< one past its last (== n_ at a boundary)
  double y_ = 0.0;               ///< the current block's pulse
  double savings_cents_ = 0.0;
  double bill_cents_ = 0.0;
  double usage_cost_cents_ = 0.0;
};

}  // namespace rlblh
