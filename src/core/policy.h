// The battery-control policy interface shared by RL-BLH and the baselines.
//
// A policy decides the grid draw y_n for every measurement interval. The key
// contract, inherited from the paper's system model (Section II), is that
// y_n is chosen *before* the interval's usage x_n is known — the battery is
// the buffer that absorbs the difference. RL-BLH readings are rectangular
// pulses — y_n is constant across each decision interval of n_D
// measurement intervals — so the engine (sim/engine.h) drives every policy
// block by block, with W = pulse_width() >= 1 and blocks tiling [0, n_M) in
// order:
//
//     policy.begin_day(prices);
//     for each block [n0, n0 + width):          // width = min(W, n_M - n0)
//         y = policy.fill_block(n0, width, battery.level());
//         for n in block: battery.step(y, x_n);
//         policy.observe_block(n0, {x_n0 .. x_n0+width-1});
//     policy.end_day();
//
// A width-1 block's observe arrives as the single observe_usage(n0, x_n0)
// call it equals. The per-interval pair reading()/observe_usage() remains
// the contract behind the block defaults: a policy that implements only
// those runs as W = 1 blocks, and block overrides must be observably
// identical to them.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "meter/trace.h"
#include "pricing/tou.h"
#include "util/error.h"

namespace rlblh {

class BlhPolicy;

/// Abstract battery-control policy (one instance controls one household).
class BlhPolicy {
 public:
  virtual ~BlhPolicy() = default;

  BlhPolicy(const BlhPolicy&) = delete;
  BlhPolicy& operator=(const BlhPolicy&) = delete;

  /// Starts a new day under the given price schedule. The schedule's length
  /// defines n_M for the day.
  virtual void begin_day(const TouSchedule& prices) = 0;

  /// Returns the grid draw y_n (kWh) for interval n, given the battery level
  /// at the start of the interval. Must be callable with n strictly
  /// increasing from 0 to n_M - 1 within a day.
  virtual double reading(std::size_t n, double battery_level) = 0;

  /// Reports the realized usage x_n after interval n completed.
  virtual void observe_usage(std::size_t n, double usage) = 0;

  /// Ends the day (learning policies run their outer-loop work here).
  virtual void end_day() {}

  /// Width of the rectangular pulse this policy emits, in measurement
  /// intervals: the engine drives the policy with blocks of this width
  /// tiling the day in order, the last one truncated (see the header
  /// comment). Must be >= 1 — the engine rejects 0 — and stay constant
  /// within a day. The default, 1, is one decision per interval.
  virtual std::size_t pulse_width() const { return 1; }

  /// Returns the constant grid draw y for the whole block [n0, n0 + width),
  /// given the battery level at the start of the block. Called with n0 a
  /// multiple of pulse_width() and width = min(pulse_width(), n_M - n0).
  /// The default forwards to reading(n0, ...), which is correct for any
  /// policy whose reading is constant across the block and samples state
  /// only at block boundaries.
  virtual double fill_block(std::size_t n0, std::size_t width,
                            double battery_level) {
    (void)width;
    return reading(n0, battery_level);
  }

  /// Reports the realized usage of the whole block [n0, n0 + usage.size())
  /// after it completed; `usage` views the engine's usage buffer. The
  /// default forwards to observe_usage() per interval; overrides must be
  /// observably identical to that loop. (Defined out of line on purpose:
  /// with the body visible, the engine's per-block call gets speculatively
  /// devirtualized against the default, which pessimizes every policy that
  /// overrides it.)
  virtual void observe_block(std::size_t n0, std::span<const double> usage);

  /// Short stable identifier, e.g. "rl-blh" or "low-pass".
  virtual std::string_view name() const = 0;

  // --- checkpoint/restore ----------------------------------------------
  //
  // A long-lived serving process (rlblh_serve) must survive restarts
  // without relearning, so a policy may advertise full-state persistence:
  // save_state() writes everything that influences future behaviour —
  // learned weights, usage statistics, RNG engine state, decay counters —
  // as one binary state image, and load_state() restores it such that the
  // subsequent call sequence is bitwise identical to never having
  // serialized at all. The streams carry raw bytes: load_state() consumes
  // its stream to the end, so the image travels alone in its stream (the
  // household checkpoint embeds it, DESIGN.md §15). Both are only defined
  // BETWEEN days (after end_day(), before the next begin_day()); day-scoped
  // state is deliberately out of scope, which is what keeps the image small
  // and the bitwise-resume argument simple: a restarted daemon replays the
  // open day from the client instead.

  /// True when save_state()/load_state() are implemented. Policies without
  /// support (the default) can still serve, but restart from scratch.
  virtual bool checkpointable() const { return false; }

  /// Writes the policy's complete between-days state image. Throws
  /// ConfigError when the policy is not checkpointable or a day is open.
  virtual void save_state(std::ostream& out) const {
    (void)out;
    throw ConfigError("policy '" + std::string(name()) +
                      "' does not support checkpointing");
  }

  /// Restores an image written by save_state() on a policy constructed
  /// from the identical configuration, reading `in` to its end. Throws
  /// ConfigError on unsupported policies, DataError on a short, trailing
  /// or mismatched image (the policy is unchanged then).
  virtual void load_state(std::istream& in) {
    (void)in;
    throw ConfigError("policy '" + std::string(name()) +
                      "' does not support checkpointing");
  }

  /// True for the no-battery reference: the simulator then reports y_n = x_n
  /// exactly (the meter measures usage directly) and skips the battery.
  virtual bool passthrough() const { return false; }

 protected:
  BlhPolicy() = default;
};

}  // namespace rlblh
