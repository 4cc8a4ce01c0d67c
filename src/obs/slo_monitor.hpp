// SLO watchdog bookkeeping.
//
// The platform arms one target per SLA-carrying function at submission
// (faas::FunctionSpec::sla, falling back to the job-level deadline) and
// sets a sim-timer at the deadline; when the timer fires before the
// function completed in time, it reports the breach here and appends a
// kSlaViolation event to the invocation's causal chain. The monitor is
// pure bookkeeping — targets, breaches, ratios — so it stays free of sim
// and faas dependencies; the CriticalPathAnalyzer later attributes each
// breach to the critical-path component that dominated it.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace canary::obs {

class SloMonitor {
 public:
  /// Count `fn` as carrying a completion deadline. The platform keeps the
  /// deadline itself, for its own timer; re-arming counts once (retries
  /// keep the original submission deadline, so the platform arms exactly
  /// once per function).
  void arm(FunctionId fn);

  /// Record a breach; returns false when this function's breach was
  /// already recorded (violations are per-function, not per-attempt).
  bool record_violation(FunctionId fn, TimePoint at);

  std::size_t targets() const { return targets_; }
  std::size_t violations() const { return breaches_.size(); }
  double violation_ratio() const {
    return targets_ == 0 ? 0.0
                         : static_cast<double>(breaches_.size()) /
                               static_cast<double>(targets_);
  }
  /// Breaches in detection order.
  const std::vector<std::pair<FunctionId, TimePoint>>& breaches() const {
    return breaches_;
  }

 private:
  /// Armed and breach flags indexed by function id - 1. Function ids are
  /// sequential slab indices, so flat vectors replace the old std::map —
  /// arm() runs once per submitted function, and a tree node per
  /// invocation was a measurable slice of the platform's allocation
  /// budget.
  std::vector<bool> armed_;
  std::vector<bool> violated_;
  std::size_t targets_ = 0;
  std::vector<std::pair<FunctionId, TimePoint>> breaches_;
};

}  // namespace canary::obs
