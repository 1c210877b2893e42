// Runtime checker for the paper's system-model invariants.
//
// The RL-BLH guarantees are stated as invariants (Section II, III-B):
// the battery level stays in [0, b_M], meter readings form rectangular
// pulses of width n_D, energy is conserved across a lossless day, the
// savings accounting satisfies S + bill == usage cost with
// S = sum r_n (x_n - y_n), and near the battery bounds only the safe pulse
// magnitudes are scheduled. The checker verifies all of them per measurement
// interval over a completed day. It is used three ways:
//   * property suites run randomized configs through it (tests/proptest),
//   * SimEngine enforces it after every day when enable_invariant_checks()
//     was called (a debug/config switch; off by default, zero cost when
//     off),
//   * examples/simulate_cli --check-invariants turns it on end to end.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pricing/tou.h"
#include "sim/day_result.h"
#include "util/error.h"

namespace rlblh {

/// Thrown by InvariantChecker::enforce_day; carries every violation found.
class InvariantViolationError : public LogicError {
 public:
  explicit InvariantViolationError(const std::string& what)
      : LogicError(what) {}
};

/// Which invariants to verify and against what geometry.
struct InvariantCheckConfig {
  double battery_capacity = 0.0;  ///< b_M; the bound on recorded levels
  /// x_M; 0 disables the reading-range check (unknown cap).
  double usage_cap = 0.0;
  /// n_D; 0 disables the pulse-shape and feasible-action checks (the policy
  /// under test is not pulse-shaped). When n_D does not divide the day
  /// length the last pulse is expected truncated.
  std::size_t decision_interval = 0;
  /// True when the battery is lossless AND the policy's feasibility rule is
  /// expected to hold: requires zero clipping events, exact energy
  /// conservation, and worst-case-safe pulse magnitudes.
  bool expect_feasible = true;
  /// Absolute tolerance for the floating-point comparisons.
  double tolerance = 1e-9;
};

/// One detected violation.
struct InvariantViolation {
  enum class Kind {
    kBatteryBound,        ///< recorded level outside [0, b_M]
    kReadingRange,        ///< reading outside [0, x_M]
    kPulseShape,          ///< reading changed inside a decision interval
    kFeasibleAction,      ///< pulse could overflow/drain under worst case
    kEnergyConservation,  ///< sum(y) - sum(x) != level delta
    kSavingsAccounting,   ///< S != sum r_n (x_n - y_n) or S + bill != cost
    kClippingOccurred,    ///< battery clipped although feasibility expected
  };

  Kind kind;
  std::size_t interval;  ///< offending interval, or kWholeDay
  std::string detail;    ///< human-readable description with the numbers

  static constexpr std::size_t kWholeDay = static_cast<std::size_t>(-1);
};

/// Stable name of a violation kind (for reports and tests).
const char* invariant_kind_name(InvariantViolation::Kind kind);

/// Verifies a completed day against the configured invariants.
class InvariantChecker {
 public:
  /// Validates the config (capacity > 0, tolerance >= 0).
  explicit InvariantChecker(InvariantCheckConfig config);

  /// Checks every enabled invariant over the day. `end_level` is the battery
  /// level after the day's last interval (the simulator's current level).
  /// Returns all violations found, empty when the day is clean.
  std::vector<InvariantViolation> check_day(const DayResult& day,
                                            const TouSchedule& prices,
                                            double end_level) const;

  /// Like check_day but throws InvariantViolationError listing every
  /// violation when any is found.
  void enforce_day(const DayResult& day, const TouSchedule& prices,
                   double end_level) const;

  /// Config in effect.
  const InvariantCheckConfig& config() const { return config_; }

 private:
  InvariantCheckConfig config_;
};

}  // namespace rlblh
