// Windowed time-series rollups over simulated time, derived from the
// causal event log.
//
// Run-level histograms and counters collapse the whole run into one
// number; the event log keeps everything but answers nothing without a
// walk. The TimeSeries sits between them: fixed one-second windows in a
// bounded ring buffer, each holding counter sums (rates once divided by
// the window), per-window latency distributions (windowed quantiles), and
// last-write levels (node health). It feeds the `timeseries` section of a
// run report and the chrome-trace counter track, so "p99 degraded"
// becomes "p99 degraded in the three windows after the node failure,
// while nodes_up was 7".
//
// derive_time_series reads it off the log at collect time, next to
// attribute_tail (tail_analyzer.hpp), one rule per stream: kShed, kLaunch,
// kComplete, kFailure, kDetect, kRecovered, kNodeFailure and kHedged
// count into shed, cold_starts, completions, failures, detections,
// recoveries, node_failures and hedges_fired. A kComplete also samples
// `latency` from the function's CriticalPathAnalyzer root, the anchor
// attribute_tail uses (the kQueued arrival of an open-loop request, else
// the function's own kSubmit, so a hedge clone is measured from its own
// kSubmit), and a kRecovered samples `recovery_time` from its cause
// kFailure. `nodes_up` counts down from the cluster size at each
// kNodeFailure and `node_fenced` annotation. A kHedgeCancelled counts as
// hedge_wins on a function that fired a hedge (its clone won) and as
// hedge_cancelled on any other (the clone lost).
//
// The log has no event for an open-loop arrival admitted at once or still
// queued at run end, so no stream counts offered load. A truncated log
// (obs.events.truncated) leaves every stream a lower bound. Eviction at
// the ring bound is counted, never silent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/time.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/histogram.hpp"

namespace canary::obs {

/// Rollup interval in simulated time.
inline constexpr Duration kTimeSeriesWindow = Duration::sec(1.0);
/// Ring-buffer bound: the oldest windows are evicted (and counted) past it.
inline constexpr std::size_t kTimeSeriesMaxWindows = 512;

class TimeSeries {
 public:
  /// One rollup interval. Keys are ordered maps so serialisation and
  /// merge are deterministic.
  struct Window {
    TimePoint start;
    std::map<std::string, double> counters;
    std::map<std::string, Histogram> samples;
    std::map<std::string, double> levels;
  };

  /// Oldest-to-newest retained windows.
  const std::deque<Window>& windows() const { return windows_; }
  std::uint64_t evicted() const { return evicted_; }

  /// Fold `other` in, aligning windows by start time: counters add,
  /// distributions merge exactly, levels take the max (deterministic and
  /// associative, unlike last-writer-wins across repetitions).
  void merge(const TimeSeries& other);

 private:
  friend TimeSeries derive_time_series(const EventLog& log,
                                       const CriticalPathAnalyzer& paths,
                                       std::size_t nodes);

  /// The window holding `at`, appending empty windows up to it and
  /// evicting past kTimeSeriesMaxWindows.
  Window& window_at(TimePoint at);

  std::deque<Window> windows_;
  std::uint64_t evicted_ = 0;
};

/// Derive one run's (or one partition's) series from its log. `paths` is
/// the analyzer over the same log; `nodes` is the cluster size the
/// `nodes_up` level counts down from.
TimeSeries derive_time_series(const EventLog& log,
                              const CriticalPathAnalyzer& paths,
                              std::size_t nodes);

}  // namespace canary::obs
