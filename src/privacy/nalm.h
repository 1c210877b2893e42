// Nonintrusive appliance load monitoring (NALM) attack (Hart 1992 style).
//
// The adversary model the paper defends against: a man-in-the-middle reads
// the meter stream and detects appliance load signatures from step edges in
// successive readings. This module implements that edge-detection attack so
// examples and tests can measure, on ground-truth appliance events, how many
// signatures survive each BLH scheme.
#pragma once

#include <cstddef>
#include <vector>

#include "meter/appliances.h"
#include "meter/trace.h"

namespace rlblh {

/// One activation recovered by the attacker from the meter stream: a rising
/// edge of height `power` at `start`, matched with a falling edge of similar
/// height `duration` intervals later.
struct DetectedEvent {
  std::size_t start = 0;
  std::size_t duration = 0;
  double power = 0.0;  ///< estimated per-interval draw (kWh/min)
};

/// Parameters of the edge-matching detector.
struct NalmConfig {
  double edge_threshold = 0.004;   ///< minimum |step| treated as an edge (kWh)
  double power_tolerance = 0.35;   ///< relative mismatch allowed when pairing
                                   ///< a falling edge with a rising one
  std::size_t max_duration = 480;  ///< longest activation considered
};

/// Detects appliance activations in a meter stream by pairing rising and
/// falling edges of similar magnitude (nearest-match within max_duration).
std::vector<DetectedEvent> nalm_detect(const DayTrace& readings,
                                       const NalmConfig& config = {});

/// Result of scoring detections against ground truth.
struct NalmScore {
  std::size_t true_events = 0;      ///< ground-truth events above threshold
  std::size_t detected_events = 0;  ///< detections emitted by the attacker
  std::size_t matched = 0;          ///< true events matched by a detection
  /// Recall on detectable ground truth: matched / true_events (0 when none).
  double detection_rate() const {
    return true_events == 0 ? 0.0
                            : static_cast<double>(matched) /
                                  static_cast<double>(true_events);
  }
};

/// Scores detections against ground-truth appliance events. A true event
/// counts as matched when some detection overlaps it in time and agrees on
/// power within `config.power_tolerance`. Ground-truth events whose power is
/// below the edge threshold are excluded (no detector could see them).
NalmScore nalm_score(const std::vector<DetectedEvent>& detected,
                     const std::vector<ApplianceEvent>& truth,
                     const NalmConfig& config = {});

}  // namespace rlblh
