// Tail-latency attribution: from "p99.9 moved" to "this invocation is
// the p99.9, and 61% of its latency is detection".
//
// A latency histogram answers the *what* (the distribution) and the
// causal event DAG answers the *why* (per-invocation lifecycle).
// attribute_tail connects them as a view of the log: the
// CriticalPathAnalyzer already walks it once per run and keeps, for
// every function, its root (first event — the kQueued arrival for
// open-loop requests), its kComplete and the exact component partition
// of the window between them. The completed functions are grouped
// run-wide (`tail_latency`) and per workload family
// (`tail_latency.fn.<family>`), each group is sorted by (latency,
// function id), and each target percentile names the nearest-rank
// entry (nearest_rank in histogram.hpp) as its representative. The
// representative's latency comes from its two timestamps and its
// attribution from the component sum; the two are derived
// independently and agree to within one simulated millisecond.
//
// The view is deterministic. The harness derives it only when
// ScenarioConfig::attribution is on, together with the windowed time
// series (time_series.hpp) over the same analyzer; the two travel as one
// obs::Attribution (report.hpp). A truncated log (obs.events.truncated)
// leaves the view a lower bound: a function whose kComplete was dropped
// is not in any group.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"

namespace canary::obs {

/// Target percentiles, in [0, 100], attributed in every group.
inline constexpr std::array<double, 3> kTailPercentiles{50.0, 99.0, 99.9};

/// Attribution of one target percentile of one group.
struct TailAttribution {
  double percentile = 0.0;   // target, in [0, 100]
  std::uint64_t samples = 0; // completed functions in the group

  /// Representative invocation: the nearest-rank completion by (latency,
  /// function id). latency_s is its root-to-completion time.
  double latency_s = 0.0;
  std::uint64_t trace = 0;
  std::uint64_t function = 0;

  /// Exact component partition of the representative's end-to-end window
  /// (CriticalPathAnalyzer decomposition); attributed_s is its total and
  /// matches latency_s to within 1 sim-ms.
  ComponentSums components;
  double attributed_s = 0.0;
};

/// All percentile attributions for one group of completions.
struct TailGroup {
  std::string metric;
  std::vector<TailAttribution> percentiles;
};

/// The `tail` section of a run report. Merging across repetitions is
/// deterministic and associative: sample counts add and the deeper-tail
/// representative wins (ties toward the smaller trace id).
struct TailReport {
  std::vector<TailGroup> groups;  // sorted by metric name

  void merge(const TailReport& other);
};

/// Derive the tail section from one run's decomposition.
TailReport attribute_tail(const CriticalPathAnalyzer& paths);

}  // namespace canary::obs
