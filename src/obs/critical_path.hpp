// Critical-path decomposition of the causal event DAG.
//
// The paper's Eq. (1) decomposes a function's latency into launch, init,
// exec and finalize; its recovery analysis (Figures 4-6) further splits a
// failure-to-recovery window into detection lag, scheduling, container
// launch, runtime init, checkpoint restore and re-execution. The analyzer
// rebuilds exactly those components from an EventLog: each function's
// events drive a small phase state machine whose intervals partition the
// timeline, so for every resolved recovery window
//
//   detection + scheduling + launch + init + restore + re_exec == window
//
// holds by construction (execution time inside a recovery window is
// re-execution; nothing else can occur there). The per-run aggregation
// groups functions by their workload family (the spec name with the
// per-instance "-<i>" / replica "+r<k>" suffixes stripped) so reports
// stay small and byte-deterministic. The same pass keeps each function's
// root and completion, from which attribute_tail (tail_analyzer.hpp)
// picks the exact invocation at each tail percentile.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "obs/event_log.hpp"

namespace canary::obs {

enum class PathComponent {
  kDetection,   // failure until the platform notices
  kScheduling,  // queueing + controller overhead + capacity waits
  kLaunch,      // cold container launch
  kInit,        // runtime initialisation
  kRestore,     // checkpoint restore / warm dispatch / migration setup
  kExec,        // first-try state execution
  kReExec,      // execution inside a recovery window (regaining lost work)
  kFinalize,    // fin_f
  kQueueing,    // open-loop admission wait before platform submission
  kHedging,     // time spent on a speculative copy that lost its race
};
inline constexpr std::size_t kPathComponentCount = 10;

/// The six components that partition a failure-to-recovery window, in
/// report order. Both substrates (the analyzer here, the real-execution
/// backend) decompose a window into exactly these.
inline constexpr std::array<PathComponent, 6> kRecoveryComponents = {
    PathComponent::kDetection, PathComponent::kScheduling,
    PathComponent::kLaunch,    PathComponent::kInit,
    PathComponent::kRestore,   PathComponent::kReExec,
};

std::string_view to_string_view(PathComponent component);

/// Seconds attributed to each component; a tiny fixed-size map.
struct ComponentSums {
  std::array<double, kPathComponentCount> seconds{};

  double& operator[](PathComponent c) {
    return seconds[static_cast<std::size_t>(c)];
  }
  double operator[](PathComponent c) const {
    return seconds[static_cast<std::size_t>(c)];
  }
  double total() const;
  void merge(const ComponentSums& other);
  /// Largest component; ties break toward the earlier enumerator so the
  /// result is deterministic.
  PathComponent dominant() const;
};

/// The `breakdown` section of a run report. Mergeable across
/// repetitions (sums add, counts add).
struct BreakdownReport {
  /// Resolved failure-to-recovery windows.
  std::uint64_t recovery_count = 0;
  double recovery_window_s = 0.0;  // sum of window lengths
  ComponentSums recovery_components;

  /// Submit-to-completion decomposition over every function.
  ComponentSums end_to_end_components;

  struct FunctionBreakdown {
    std::uint64_t functions = 0;  // instances aggregated into this family
    std::uint64_t recoveries = 0;
    double window_s = 0.0;
    ComponentSums recovery_components;
    ComponentSums end_to_end_components;
    void merge(const FunctionBreakdown& other);
  };
  /// Keyed by workload family (base spec name).
  std::map<std::string, FunctionBreakdown> per_function;

  /// SLO watchdog summary.
  std::uint64_t slo_targets = 0;
  std::uint64_t slo_violations = 0;
  /// For each breached function, the component that dominated the time
  /// from submission to the breach.
  std::map<std::string, std::uint64_t> slo_breaches_by_component;

  double slo_violation_ratio() const {
    return slo_targets == 0
               ? 0.0
               : static_cast<double>(slo_violations) /
                     static_cast<double>(slo_targets);
  }
  void merge(const BreakdownReport& other);
};

/// Strip the per-instance suffixes workload generators append to spec
/// names: "web-service-17" -> "web-service", "map-3+r1" -> "map".
std::string base_function_name(std::string_view name);

class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(const EventLog& log);

  struct RecoveryWindow {
    FunctionId function;
    std::string family;  // base spec name
    TimePoint failed;
    TimePoint recovered;
    ComponentSums components;

    Duration window() const { return recovered - failed; }
  };

  /// Every resolved failure-to-recovery window, in event order.
  const std::vector<RecoveryWindow>& recovery_windows() const {
    return windows_;
  }

  /// Aggregate everything into a report. `slo_targets` comes from the
  /// platform (faas::Platform::slo_targets; the log only holds breaches,
  /// not armed targets).
  BreakdownReport report(std::uint64_t slo_targets = 0) const;

  // Per-function end-to-end component sums + metadata.
  struct PerFunction {
    FunctionId id;
    std::string family;
    ComponentSums end_to_end;
    std::uint64_t recoveries = 0;
    double window_s = 0.0;
    ComponentSums recovery;
    /// The function's first logged event: kSubmit, or the kQueued
    /// arrival for open-loop requests.
    TimePoint root;
    /// Time and trace of the kComplete event; `completed` stays max()
    /// for a function that never completed (running, failed or shed).
    TimePoint completed = TimePoint::max();
    TraceId trace;

    bool complete() const { return completed != TimePoint::max(); }
    /// Root-to-completion latency, read off the two timestamps.
    Duration latency() const { return completed - root; }
  };
  /// Per-instance decomposition (not family-aggregated): the exact
  /// root-to-completion partition of one invocation, from which
  /// attribute_tail (tail_analyzer.hpp) picks its representatives. One
  /// entry per function that logged a phase, in id order.
  const std::vector<PerFunction>& per_function_decomposition() const {
    return functions_;
  }
  /// `fn`'s entry of per_function_decomposition(), or nullptr when it
  /// logged no phase.
  const PerFunction* find(FunctionId fn) const;

 private:
  struct FunctionTimeline;
  void analyze(const EventLog& log);

  std::vector<RecoveryWindow> windows_;
  std::vector<PerFunction> functions_;  // ascending id
  // (family, dominant component) per SLA breach, in event order.
  std::vector<std::pair<std::string, PathComponent>> breaches_;
};

}  // namespace canary::obs
