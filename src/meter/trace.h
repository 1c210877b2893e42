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

class DayTrace;

/// A strided, non-owning view of one day's series inside a larger buffer:
/// interval n lives at data[n * stride]. Generators (appliance processes,
/// trace sources) write through it without knowing the layout; a DayTrace
/// converts implicitly to a stride-1 lane over its own buffer.
///
/// Writers take over DayTrace's invariant: every value written must be
/// finite and >= 0.
class TraceLane {
 public:
  /// Views `intervals` slots at data[0], data[stride], ... Requires a
  /// non-null base, stride >= 1 and intervals >= 1. Defined inline: the
  /// scalar engine builds one view per decision block, so the validation
  /// must fold into the caller rather than cost a call per block.
  TraceLane(double* data, std::size_t stride, std::size_t intervals)
      : data_(data), stride_(stride), intervals_(intervals) {
    RLBLH_REQUIRE(data != nullptr, "TraceLane: base pointer must be non-null");
    RLBLH_REQUIRE(stride >= 1, "TraceLane: stride must be >= 1");
    RLBLH_REQUIRE(intervals >= 1, "TraceLane: need at least one interval");
  }

  /// Stride-1 view over a whole DayTrace (implicit: lets existing DayTrace
  /// call sites reach the lane-based generator APIs unchanged).
  TraceLane(DayTrace& trace);  // NOLINT(google-explicit-constructor)

  /// Number of measurement intervals viewed.
  std::size_t intervals() const { return intervals_; }

  /// Distance in doubles between consecutive intervals.
  std::size_t stride() const { return stride_; }

  /// Base pointer (interval n is data()[n * stride()]).
  double* data() const { return data_; }

  /// Value slot for interval n. Requires n < intervals().
  double& operator[](std::size_t n) const { return data_[n * stride_]; }

  /// Zeroes every viewed slot.
  void fill_zero() const;

  /// Adds a constant `value` (>= 0) to every interval of [start, end),
  /// clamping each sum at `cap` when cap > 0. Bitwise the same per-interval
  /// arithmetic as DayTrace::add_clamped_run (which forwards here).
  /// Requires start <= end <= intervals().
  void add_clamped_run(std::size_t start, std::size_t end, double value,
                       double cap) const;

 private:
  double* data_;
  std::size_t stride_;
  std::size_t intervals_;
};

/// Read-only counterpart of TraceLane: a strided const view of one day's
/// series inside a larger buffer (interval n lives at data[n * stride]).
/// Consumers — observe_block, the usage statistics, the privacy metrics —
/// read through it. A DayTrace, a TraceLane or a contiguous span converts
/// implicitly to a stride-1 view.
class ConstTraceLane {
 public:
  /// Views `intervals` slots at data[0], data[stride], ... Requires a
  /// non-null base, stride >= 1 and intervals >= 1. Inline for the same
  /// reason as TraceLane: one view is built per observe block on the
  /// scalar hot path.
  ConstTraceLane(const double* data, std::size_t stride,
                 std::size_t intervals)
      : data_(data), stride_(stride), intervals_(intervals) {}

  /// Stride-1 view over a whole DayTrace.
  ConstTraceLane(const DayTrace& trace);  // NOLINT(google-explicit-constructor)

  /// Stride-1 view over a contiguous span (nonempty).
  ConstTraceLane(std::span<const double> values)  // NOLINT
      : data_(values.data()), stride_(1), intervals_(values.size()) {
    RLBLH_REQUIRE(!values.empty(),
                  "ConstTraceLane: need at least one interval");
  }

  /// Read view of a mutable lane.
  ConstTraceLane(TraceLane lane)  // NOLINT(google-explicit-constructor)
      : data_(lane.data()), stride_(lane.stride()),
        intervals_(lane.intervals()) {}

  /// Number of measurement intervals viewed.
  std::size_t intervals() const { return intervals_; }

  /// Alias for intervals(); keeps span-shaped call sites readable.
  std::size_t size() const { return intervals_; }

  /// Distance in doubles between consecutive intervals.
  std::size_t stride() const { return stride_; }

  /// Base pointer (interval n is data()[n * stride()]).
  const double* data() const { return data_; }

  /// Value at interval n. Requires n < intervals().
  double operator[](std::size_t n) const { return data_[n * stride_]; }

 private:
  const double* data_;
  std::size_t stride_;
  std::size_t intervals_;
};

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

  /// Adds a constant `value` (>= 0) to every interval of [start, end),
  /// clamping each sum at `cap` when cap > 0. Identical per-interval math
  /// to add_clamped, validated once for the whole run. Requires
  /// start <= end <= intervals().
  void add_clamped_run(std::size_t start, std::size_t end, double value,
                       double cap);

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

  /// Produces the next day's profile into a strided lane of a caller-owned
  /// buffer. `out.intervals()` must equal intervals(). Draws and values are
  /// identical to next_day(); only the destination layout differs.
  virtual void next_day_into_lane(TraceLane out);

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
