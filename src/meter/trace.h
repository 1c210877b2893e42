// Day-long minute-resolution energy traces.
//
// The paper's experiments run on minute-level usage profiles x_n,
// n = 1..n_M = 1440, bounded by x_M = 0.08 kWh (Section VII-A). DayTrace is
// that series plus validation and the aggregate helpers the metrics need.
// TraceSource abstracts where days come from: the synthetic household model
// (our UMass "HomeC" substitute) or a CSV replay of real measurements.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace rlblh {

/// Number of one-minute measurement intervals in a day (paper n_M).
inline constexpr std::size_t kIntervalsPerDay = 1440;

/// The paper's per-interval usage bound x_M in kWh.
inline constexpr double kDefaultUsageCap = 0.08;

/// Names kept for perfbench/fleet.cc, whose TimedSource and TimedPolicy
/// overrides spell them; nothing else uses them. Day series pass as
/// std::span<double> (writers) and std::span<const double> (readers).
using TraceLane = std::span<double>;
using ConstTraceLane = std::span<const double>;

/// One day of per-interval energy values (usage or meter readings), in kWh.
class DayTrace {
 public:
  /// An all-zero trace of the given length (>= 1).
  explicit DayTrace(std::size_t intervals = kIntervalsPerDay);

  /// Wraps an existing series; all values must be finite and >= 0.
  explicit DayTrace(std::vector<double> values);

  /// Number of measurement intervals.
  std::size_t intervals() const { return values_.size(); }

  /// Value at interval n (0-based). Requires n < intervals().
  double at(std::size_t n) const;

  /// Mutable access for generators. Requires n < intervals() and value >= 0.
  void set(std::size_t n, double value);

  /// Adds `value` (>= 0) to interval n, clamping the sum at `cap` when
  /// cap > 0. Used by appliance composition under the x_M bound.
  void add_clamped(std::size_t n, double value, double cap);

  /// Resizes to `intervals` slots (>= 1) and zeroes every value, reusing
  /// the existing buffer when the length already matches. The in-place
  /// counterpart of constructing a fresh all-zero trace.
  void assign_zero(std::size_t intervals);

  /// Total energy of the day in kWh.
  double total() const;

  /// Largest per-interval value.
  double peak() const;

  /// Mean per-interval value.
  double mean() const;

  /// Read-only access to the raw series.
  const std::vector<double>& values() const { return values_; }

  /// Raw mutable access for trusted hot-path writers (the engine's reading
  /// fill). Callers take over the class invariant:
  /// every value written must be finite and >= 0 — the checked set() path
  /// enforces the same contract one interval at a time.
  double* mutable_data() { return values_.data(); }

  /// The series as a writable view, so a DayTrace passes wherever a day is
  /// written (appliance generators). Writers take over the class invariant,
  /// as with mutable_data().
  operator std::span<double>() { return values_; }  // NOLINT

  /// The series as a read-only view, so a DayTrace passes wherever a day
  /// is read (observe hooks, usage statistics, privacy metrics).
  operator std::span<const double>() const { return values_; }  // NOLINT

 private:
  std::vector<double> values_;
};

/// A stream of daily usage profiles.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces the next day's usage profile.
  virtual DayTrace next_day() = 0;

  /// Produces the next day's profile into `out`, reusing its buffer when
  /// possible so a steady-state day loop allocates nothing. Semantically
  /// identical to `out = next_day()`; sources able to generate in place
  /// override this.
  virtual void next_day_into(DayTrace& out) { out = next_day(); }

  /// Produces the next day's profile into a caller-owned buffer of
  /// intervals() values, with the same draws and values as next_day().
  /// Nothing in the library calls it; perfbench/fleet.cc's TimedSource
  /// overrides it, so it stays until the benchmark changes.
  virtual void next_day_into_lane(std::span<double> out);

  /// Number of intervals per produced day.
  virtual std::size_t intervals() const = 0;

  /// Upper bound x_M on every produced value, in kWh.
  virtual double usage_cap() const = 0;
};

/// Replays days from a CSV file (one column = usage kWh; rows are intervals,
/// days are concatenated). Wraps around when the file is exhausted.
/// Throws DataError when the file is malformed, empty, has values outside
/// [0, usage_cap], or its row count is not a multiple of intervals_per_day.
class CsvTraceSource final : public TraceSource {
 public:
  CsvTraceSource(const std::string& path, std::size_t intervals_per_day,
                 double usage_cap, bool has_header);

  DayTrace next_day() override;
  std::size_t intervals() const override { return intervals_; }
  double usage_cap() const override { return cap_; }

  /// Number of whole days available in the file.
  std::size_t day_count() const { return days_.size(); }

 private:
  std::size_t intervals_;
  double cap_;
  std::vector<DayTrace> days_;
  std::size_t next_ = 0;
};

/// Writes a sequence of day traces to CSV (single `usage_kwh` column).
void write_traces_csv(const std::string& path,
                      const std::vector<DayTrace>& days);

}  // namespace rlblh
