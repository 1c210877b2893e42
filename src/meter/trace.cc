#include "meter/trace.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/csv.h"
#include "util/error.h"

namespace rlblh {

DayTrace::DayTrace(std::size_t intervals) : values_(intervals, 0.0) {
  RLBLH_REQUIRE(intervals >= 1, "DayTrace: need at least one interval");
}

DayTrace::DayTrace(std::vector<double> values) : values_(std::move(values)) {
  RLBLH_REQUIRE(!values_.empty(), "DayTrace: need at least one interval");
  for (const double v : values_) {
    RLBLH_REQUIRE(std::isfinite(v) && v >= 0.0,
                  "DayTrace: values must be finite and >= 0");
  }
}

double DayTrace::at(std::size_t n) const {
  RLBLH_REQUIRE(n < values_.size(), "DayTrace: interval out of range");
  return values_[n];
}

void DayTrace::set(std::size_t n, double value) {
  RLBLH_REQUIRE(n < values_.size(), "DayTrace: interval out of range");
  RLBLH_REQUIRE(std::isfinite(value) && value >= 0.0,
                "DayTrace: values must be finite and >= 0");
  values_[n] = value;
}

void DayTrace::add_clamped(std::size_t n, double value, double cap) {
  RLBLH_REQUIRE(n < values_.size(), "DayTrace: interval out of range");
  RLBLH_REQUIRE(value >= 0.0, "DayTrace: added value must be >= 0");
  double next = values_[n] + value;
  if (cap > 0.0) next = std::min(next, cap);
  values_[n] = next;
}

void DayTrace::assign_zero(std::size_t intervals) {
  RLBLH_REQUIRE(intervals >= 1, "DayTrace: need at least one interval");
  values_.assign(intervals, 0.0);
}

double DayTrace::total() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double DayTrace::peak() const {
  return *std::max_element(values_.begin(), values_.end());
}

double DayTrace::mean() const {
  return total() / static_cast<double>(values_.size());
}

void TraceSource::next_day_into_lane(std::span<double> out) {
  const DayTrace day = next_day();
  RLBLH_REQUIRE(day.intervals() == out.size(),
                "TraceSource: buffer length must match the day length");
  std::copy(day.values().begin(), day.values().end(), out.begin());
}

CsvTraceSource::CsvTraceSource(const std::string& path,
                               std::size_t intervals_per_day, double usage_cap,
                               bool has_header)
    : intervals_(intervals_per_day), cap_(usage_cap) {
  RLBLH_REQUIRE(intervals_per_day >= 1,
                "CsvTraceSource: intervals_per_day must be >= 1");
  RLBLH_REQUIRE(usage_cap > 0.0, "CsvTraceSource: usage cap must be > 0");
  const CsvTable table = read_csv_file(path, has_header);
  if (table.row_count() == 0) {
    throw DataError("trace csv '" + path + "': no data rows");
  }
  if (table.column_count() < 1) {
    throw DataError("trace csv '" + path + "': need at least one column");
  }
  if (table.row_count() % intervals_per_day != 0) {
    throw DataError("trace csv '" + path + "': row count " +
                    std::to_string(table.row_count()) +
                    " is not a multiple of " +
                    std::to_string(intervals_per_day));
  }
  const std::vector<double> usage = table.column(std::size_t{0});
  for (const double v : usage) {
    if (!(v >= 0.0) || v > usage_cap + 1e-12) {
      throw DataError("trace csv '" + path + "': usage value " +
                      std::to_string(v) + " outside [0, " +
                      std::to_string(usage_cap) + "]");
    }
  }
  const std::size_t day_count = usage.size() / intervals_per_day;
  days_.reserve(day_count);
  for (std::size_t d = 0; d < day_count; ++d) {
    std::vector<double> day(usage.begin() + static_cast<std::ptrdiff_t>(
                                                d * intervals_per_day),
                            usage.begin() + static_cast<std::ptrdiff_t>(
                                                (d + 1) * intervals_per_day));
    days_.emplace_back(std::move(day));
  }
}

DayTrace CsvTraceSource::next_day() {
  const DayTrace& day = days_[next_];
  next_ = (next_ + 1) % days_.size();
  return day;
}

void write_traces_csv(const std::string& path,
                      const std::vector<DayTrace>& days) {
  CsvTable table;
  table.header = {"usage_kwh"};
  for (const auto& day : days) {
    for (const double v : day.values()) table.rows.push_back({v});
  }
  write_csv_file(path, table);
}

}  // namespace rlblh
