#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/obs.h"
#include "util/error.h"

namespace rlblh {

const DayResult& SimEngine::run_day(TraceSource& source,
                                    const TouSchedule& prices,
                                    Battery& battery, BlhPolicy& policy) {
  const std::size_t n_m = source.intervals();
  RLBLH_REQUIRE(prices.intervals() == n_m,
                "SimEngine: price schedule length must match the day length");
  RLBLH_REQUIRE(!day_open(), "SimEngine: run_day() with a pushed day open");
  // The whole day's usage lands in the scratch record before the policy
  // begins its day; in-place trace sources fill it without a per-day
  // allocation.
  source.next_day_into(scratch_.usage);
  RLBLH_REQUIRE(scratch_.usage.intervals() == n_m,
                "SimEngine: trace source produced a day of the wrong length");
  begin_day(prices, battery, policy);
  step_to(n_m);
  return finish_day();
}

const DayResult& SimEngine::run_days(TraceSource& source,
                                     const TouSchedule& prices,
                                     Battery& battery, BlhPolicy& policy,
                                     std::size_t days,
                                     const DayCallback& on_day) {
  RLBLH_REQUIRE(days >= 1, "SimEngine: days must be >= 1");
  RLBLH_OBS_SPAN("sim.run_days");
  for (std::size_t d = 0; d < days; ++d) {
    const DayResult& day = run_day(source, prices, battery, policy);
    if (on_day) on_day(d, day);
  }
  return scratch_;
}

void SimEngine::begin_day(const TouSchedule& prices, Battery& battery,
                          BlhPolicy& policy) {
  RLBLH_REQUIRE(!day_open(), "SimEngine: begin_day() with a day open");
  const std::size_t n_m = prices.intervals();
  // Reuse the scratch record's buffers: after the first day the loop
  // overwrites them in place instead of reallocating.
  DayResult& result = scratch_;
  if (result.usage.intervals() != n_m) {
    result.usage = DayTrace(n_m);
  }
  if (result.readings.intervals() != n_m) {
    result.readings = DayTrace(n_m);
  }
  result.battery_levels.resize(n_m);

  policy.begin_day(prices);
  const std::size_t pulse = policy.pulse_width();
  // A zero-width block would never advance the loop.
  RLBLH_REQUIRE(pulse >= 1, "SimEngine: pulse_width() must be >= 1");
  prices_ = &prices;
  battery_ = &battery;
  policy_ = &policy;
  n_m_ = n_m;
  pulse_ = pulse;
  passthrough_ = policy.passthrough();
  violations_before_ = battery.violation_count();
  n_ = 0;
  block_start_ = 0;
  block_end_ = 0;
  y_ = 0.0;
  savings_cents_ = 0.0;
  bill_cents_ = 0.0;
  usage_cost_cents_ = 0.0;
}

void SimEngine::push_block(std::span<const double> usage) {
  RLBLH_REQUIRE(day_open(), "SimEngine: push_block() with no day open");
  RLBLH_REQUIRE(usage.size() <= n_m_ - n_,
                "SimEngine: push_block() past the end of the day");
  double* const x = scratch_.usage.mutable_data() + n_;
  std::size_t valid = 0;
  while (valid < usage.size() && std::isfinite(usage[valid]) &&
         usage[valid] >= 0.0) {
    x[valid] = usage[valid];
    ++valid;
  }
  step_to(n_ + valid);
  RLBLH_REQUIRE(valid == usage.size(),
                "SimEngine: usage must be finite and >= 0");
}

void SimEngine::step_to(std::size_t end) {
  RLBLH_OBS_NOW(step_start);
  if (passthrough_) {
    step_loop<true>(end);
  } else {
    step_loop<false>(end);
  }
  RLBLH_OBS_COUNT_NS_SINCE("sim.block_ns", step_start);
}

template <bool kPassthrough>
void SimEngine::step_loop(std::size_t end) {
  // Resize-once raw views: every slot in [n_, end) is written exactly once.
  // Values written are battery levels (in [0, capacity]) and effective
  // readings (y + shortfall, both >= 0 and finite), so DayTrace's
  // finite/>= 0 invariant holds without the per-interval checked set().
  const double* const x = scratch_.usage.values().data();
  double* const readings = scratch_.readings.mutable_data();
  double* const levels = scratch_.battery_levels.data();
  const PriceZone* const segments = prices_->segments().data();
  Battery& battery = *battery_;
  BlhPolicy& policy = *policy_;
  const std::size_t n_m = n_m_;
  const std::size_t pulse = pulse_;

  // The block cursor, the pulse and the three cent accumulators live in
  // locals for the loop and are written back on exit, so a day stepped in
  // one call or in many evaluates the same expressions in the same order.
  std::size_t n = n_;
  std::size_t block_start = block_start_;
  std::size_t block_end = block_end_;
  std::size_t seg = 0;  // found again by the scan below, once per call
  double y = y_;
  double savings_cents = savings_cents_;
  double bill_cents = bill_cents_;
  double usage_cost_cents = usage_cost_cents_;
  // Both block-boundary tests below are marked likely: stepping a whole
  // day meets every boundary, and only a push that ends inside a block
  // misses one. The hint keeps width-1 policies as fast as a loop without
  // resume support.
  while (n < end) {
    if (n == block_end) [[likely]] {
      // Block boundary: the pulse commits before any of the block's usage
      // is stepped — the causal order of the paper's Algorithm 1.
      block_start = n;
      block_end = n + std::min(pulse, n_m - n);
      y = policy.fill_block(n, block_end - n, battery.level());
    }
    const std::size_t stop = std::min(block_end, end);
    while (n < stop) {
      // One price lookup per constant-rate segment, not per interval.
      while (segments[seg].end <= n) ++seg;
      const double rate = segments[seg].rate;
      const std::size_t run_end = std::min(stop, segments[seg].end);
      for (; n < run_end; ++n) {
        levels[n] = battery.level();
        const double x_n = x[n];
        // The no-battery reference meters usage directly. Otherwise the
        // energy the battery could not supply is drawn from the grid on
        // top of the pulse, so the meter sees y + shortfall.
        double reading = x_n;
        if constexpr (!kPassthrough) {
          reading = y + battery.step(y, x_n).grid_extra;
        }
        readings[n] = reading;
        savings_cents += rate * (x_n - reading);
        bill_cents += rate * reading;
        usage_cost_cents += rate * x_n;
      }
    }
    if (n == block_end) [[likely]] {
      // A width-1 block observes through the one observe_usage call it
      // contractually equals, sparing width-1 policies a virtual block
      // call per interval.
      if (block_end - block_start == 1) {
        policy.observe_usage(block_start, x[block_start]);
      } else {
        policy.observe_block(
            block_start,
            ConstTraceLane(x + block_start, 1, block_end - block_start));
      }
    }
  }
  n_ = n;
  block_start_ = block_start;
  block_end_ = block_end;
  y_ = y;
  savings_cents_ = savings_cents;
  bill_cents_ = bill_cents;
  usage_cost_cents_ = usage_cost_cents;
}

const DayResult& SimEngine::finish_day() {
  RLBLH_REQUIRE(day_open(), "SimEngine: finish_day() with no day open");
  RLBLH_REQUIRE(n_ == n_m_,
                "SimEngine: finish_day() before every interval arrived");
  const TouSchedule& prices = *prices_;
  const Battery& battery = *battery_;
  BlhPolicy& policy = *policy_;
  // The day is closed for the engine even when end_day or the invariant
  // checker throws below.
  prices_ = nullptr;
  battery_ = nullptr;
  policy_ = nullptr;
  policy.end_day();

  DayResult& result = scratch_;
  result.savings_cents = savings_cents_;
  result.bill_cents = bill_cents_;
  result.usage_cost_cents = usage_cost_cents_;
  result.battery_violations = battery.violation_count() - violations_before_;
  if (invariant_config_.has_value()) {
    RLBLH_OBS_NOW(check_start);
    InvariantChecker(*invariant_config_)
        .enforce_day(result, prices, battery.level());
    RLBLH_OBS_COUNT_NS_SINCE("sim.invariant_check_ns", check_start);
    RLBLH_OBS_COUNT("sim.invariant_checked_days", 1);
  }
  RLBLH_OBS_COUNT("sim.days", 1);
  RLBLH_OBS_COUNT("sim.intervals", n_m_);
  RLBLH_OBS_COUNT("sim.battery_violations", result.battery_violations);
  // The blocks tile the day: ceil(n_M / W) of them.
  RLBLH_OBS_COUNT("sim.blocks", n_m_ / pulse_ + (n_m_ % pulse_ != 0 ? 1 : 0));
  return result;
}

void SimEngine::enable_invariant_checks(const InvariantCheckConfig& config) {
  // Construct a checker up front so a bad config fails here, not mid-run.
  InvariantChecker checker(config);
  invariant_config_ = checker.config();
}

}  // namespace rlblh
