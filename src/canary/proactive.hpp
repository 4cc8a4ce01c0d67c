// Proactive failure mitigation (the paper's stated future work: "we will
// extend the Canary framework to predict and proactively mitigate
// failures", §VII; proactive fault tolerance per §VI-B [84]-[87]).
//
// Container failures cluster before node failures (flaky NIC, thermal
// throttling, dying disk): the mitigator keeps a sliding window of
// container-failure observations per worker and marks a worker *suspect*
// once its recent failure count crosses a threshold. The Core Module then
//   * steers replica placement and recovery away from suspect workers,
//   * pre-scales the replica pool while suspects exist (so an eventual
//     node failure finds enough warm runtimes).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "sim/simulator.hpp"

namespace canary::core {

struct ProactiveConfig {
  bool enabled = false;
  /// Container failures on one worker within `window` that make it
  /// suspect.
  int suspect_threshold = 3;
  Duration window = Duration::sec(30.0);
  /// Multiplier applied to replica targets while any worker is suspect.
  double prescale_factor = 1.5;
};

class ProactiveMitigator {
 public:
  ProactiveMitigator(sim::Simulator& simulator, ProactiveConfig config)
      : sim_(simulator), config_(config) {}

  const ProactiveConfig& config() const { return config_; }

  /// Record a container failure on `node`. Returns true if this
  /// observation newly marked the node suspect.
  bool observe_failure(NodeId node);

  /// Whether `node` is currently predicted to be failing.
  bool is_suspect(NodeId node) const;
  bool any_suspect() const;

  /// Replica-target multiplier for the current suspicion state.
  double replica_boost() const {
    return config_.enabled && any_suspect() ? config_.prescale_factor : 1.0;
  }

 private:
  void prune(std::deque<TimePoint>& events) const;

  sim::Simulator& sim_;
  ProactiveConfig config_;
  mutable std::unordered_map<NodeId, std::deque<TimePoint>> failures_;
};

}  // namespace canary::core
