// Observability umbrella: the compile-time gate, the runtime switch and the
// instrumentation macros every other subsystem uses.
//
// Two independent switches control the layer:
//
//   compile time  RLBLH_OBS (CMake option, ON by default) defines
//                 RLBLH_OBS_ENABLED. With the option OFF every
//                 instrumentation macro below expands to nothing, so hot
//                 paths carry zero observability code.
//   run time      rlblh::obs::set_enabled(true) — set by --obs flags or a
//                 non-empty RLBLH_OBS_OUT environment variable. While off
//                 (the default) each macro costs one relaxed atomic load.
//
// Instrumentation never changes simulation behaviour: it only reads values
// already computed and never touches an Rng, so results are bitwise
// identical with observability compiled out, compiled in but dormant, or
// fully recording (tests/sim/sweep_determinism_test.cc asserts this).
#pragma once

#ifndef RLBLH_OBS_ENABLED
#define RLBLH_OBS_ENABLED 1
#endif

#if RLBLH_OBS_ENABLED
#include "obs/metrics.h"
#include "obs/trace.h"
#endif

#include <atomic>

namespace rlblh::obs {

#if RLBLH_OBS_ENABLED

namespace detail {
/// The process-wide runtime switch behind enabled()/set_enabled().
inline std::atomic<bool>& runtime_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// True while the layer both is compiled in and has been switched on.
inline bool enabled() {
  return detail::runtime_flag().load(std::memory_order_relaxed);
}

/// Turns runtime collection on or off (off by default).
inline void set_enabled(bool on) {
  detail::runtime_flag().store(on, std::memory_order_relaxed);
}

/// True when the library was built with RLBLH_OBS=ON.
constexpr bool compiled_in() { return true; }

#else  // !RLBLH_OBS_ENABLED

constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
constexpr bool compiled_in() { return false; }

#endif  // RLBLH_OBS_ENABLED

}  // namespace rlblh::obs

// --- instrumentation macros ----------------------------------------------
//
// Each site registers its metric once (a function-local static resolved on
// first recording) and then pays one relaxed load + one sharded relaxed
// fetch_add per hit. Names are dotted paths ("pool.tasks_completed") —
// see DESIGN.md for the catalogue.

#if RLBLH_OBS_ENABLED

/// Adds `delta` to the named counter.
#define RLBLH_OBS_COUNT(name, delta)                              \
  do {                                                            \
    if (::rlblh::obs::enabled()) {                                \
      static ::rlblh::obs::Counter& rlblh_obs_counter_ =          \
          ::rlblh::obs::registry().counter(name);                 \
      rlblh_obs_counter_.add(static_cast<long long>(delta));      \
    }                                                             \
  } while (0)

/// Sets the named gauge to `value`.
#define RLBLH_OBS_GAUGE(name, value)                              \
  do {                                                            \
    if (::rlblh::obs::enabled()) {                                \
      static ::rlblh::obs::Gauge& rlblh_obs_gauge_ =              \
          ::rlblh::obs::registry().gauge(name);                   \
      rlblh_obs_gauge_.set(static_cast<double>(value));           \
    }                                                             \
  } while (0)

/// Records `value` into the named histogram.
#define RLBLH_OBS_OBSERVE(name, value)                            \
  do {                                                            \
    if (::rlblh::obs::enabled()) {                                \
      static ::rlblh::obs::HistogramMetric& rlblh_obs_hist_ =     \
          ::rlblh::obs::registry().histogram(name);               \
      rlblh_obs_hist_.observe(static_cast<double>(value));        \
    }                                                             \
  } while (0)

#define RLBLH_OBS_CONCAT_INNER(a, b) a##b
#define RLBLH_OBS_CONCAT(a, b) RLBLH_OBS_CONCAT_INNER(a, b)

/// Opens a scoped span named `name` that closes at end of scope.
#define RLBLH_OBS_SPAN(name)                                  \
  ::rlblh::obs::ScopedSpan RLBLH_OBS_CONCAT(rlblh_obs_span_, \
                                            __LINE__) {       \
    name                                                      \
  }

/// Declares a steady-clock time point for RLBLH_OBS_*_NS bookkeeping; a
/// no-op (void) when observability is compiled out or dormant.
#define RLBLH_OBS_NOW(var)                                \
  const auto var = ::rlblh::obs::enabled()                \
                       ? ::std::chrono::steady_clock::now() \
                       : ::std::chrono::steady_clock::time_point {}

/// Adds the nanoseconds elapsed since `since` (an RLBLH_OBS_NOW point) to
/// the named counter.
#define RLBLH_OBS_COUNT_NS_SINCE(name, since)                            \
  do {                                                                   \
    if (::rlblh::obs::enabled()) {                                       \
      RLBLH_OBS_COUNT(                                                   \
          name, ::std::chrono::duration_cast<::std::chrono::nanoseconds>( \
                    ::std::chrono::steady_clock::now() - (since))        \
                    .count());                                           \
    }                                                                    \
  } while (0)

#else  // !RLBLH_OBS_ENABLED

#define RLBLH_OBS_COUNT(name, delta) \
  do {                               \
  } while (0)
#define RLBLH_OBS_GAUGE(name, value) \
  do {                               \
  } while (0)
#define RLBLH_OBS_OBSERVE(name, value) \
  do {                                 \
  } while (0)
#define RLBLH_OBS_SPAN(name) \
  do {                       \
  } while (0)
#define RLBLH_OBS_NOW(var) \
  do {                     \
  } while (0)
#define RLBLH_OBS_COUNT_NS_SINCE(name, since) \
  do {                                        \
  } while (0)

#endif  // RLBLH_OBS_ENABLED
