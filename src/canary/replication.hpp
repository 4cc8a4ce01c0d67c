// Replication Module (paper §IV-C5, Algorithm 2).
//
// Keeps warm replicated runtimes available so failed functions restart
// without the container launch + initialization cost. Replication is per
// runtime image, not per function: "instead of creating a replica of each
// running function's runtime, ... replication [triggers] when a function
// is created with a runtime that is not already replicated in the
// cluster", and a consumed replica is replaced while functions with that
// runtime remain active.
//
// Three replication strategies from §V-D4:
//  * Dynamic (DR, Canary default): the replication factor follows the
//    observed failure rate;
//  * Aggressive (AR): a high replica-to-function fraction;
//  * Lenient (LR): exactly one active replica per in-use runtime.
//
// Placement (§IV-C5b): the first replica lands on a worker hosting a job
// function; further replicas are placed away from workers already hosting
// replicas of the same runtime to avoid a single point of failure, with
// rack locality as a tiebreaker.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "canary/proactive.hpp"
#include "canary/runtime_manager.hpp"
#include "faas/platform.hpp"
#include "obs/metric_registry.hpp"

namespace canary::core {

enum class ReplicationMode { kDynamic, kAggressive, kLenient };

/// DR: never exceed this fraction of active functions.
inline constexpr double kDynamicCapFraction = 0.35;

struct ReplicationConfig {
  bool enabled = true;
  ReplicationMode mode = ReplicationMode::kDynamic;
  /// AR: replicas >= fraction * active functions of the runtime.
  double aggressive_fraction = 0.25;
  /// Disablable for ablation: when false, replicas are packed least-loaded
  /// with no anti-SPOF exclusion and no rack locality (§IV-C5b off).
  bool anti_spof_placement = true;
};

class ReplicationModule {
 public:
  ReplicationModule(faas::Platform& platform, RuntimeManagerModule& manager,
                    obs::MetricRegistry& metrics, ReplicationConfig config)
      : platform_(platform),
        manager_(manager),
        metrics_(metrics),
        config_(config) {}

  const ReplicationConfig& config() const { return config_; }

  /// Optional proactive-mitigation advisor: suspect workers are avoided
  /// for replica placement and the replica pool is pre-scaled while
  /// suspects exist.
  void set_advisor(const ProactiveMitigator* advisor) { advisor_ = advisor; }

  // ---- event feed from the Core Module ---------------------------------
  /// Algorithm 2: runtime replication at job submission.
  void on_job_submitted(JobId job);
  void on_attempt_started(const faas::Invocation& inv);
  void on_function_completed(const faas::Invocation& inv);
  void on_failure_observed(const faas::Invocation& inv);
  void on_replica_consumed(faas::RuntimeImage image);
  void on_replica_destroyed(faas::RuntimeImage image);

  /// Current desired replica count for `image` given the strategy and the
  /// active-function census.
  unsigned target_replicas(faas::RuntimeImage image) const;

  /// Population the replication factor is computed over: submitted
  /// functions of the image, clamped to what can concurrently run (a
  /// batch queued behind the account concurrency limit cannot fail while
  /// queued, so it needs no replicas yet).
  std::size_t effective_active(faas::RuntimeImage image) const;

  /// Posterior failure-rate estimate driving Dynamic replication.
  double estimated_failure_rate() const;

  std::size_t active_functions(faas::RuntimeImage image) const;

  /// Launch/retire replicas until the live count matches the target.
  void reconcile(faas::RuntimeImage image);

 private:
  std::optional<NodeId> place_replica(faas::RuntimeImage image) const;
  /// Move the rack census of `node`'s rack by `delta` live functions.
  void count_rack(NodeId node, int delta);

  faas::Platform& platform_;
  RuntimeManagerModule& manager_;
  obs::MetricRegistry& metrics_;
  ReplicationConfig config_;
  const ProactiveMitigator* advisor_ = nullptr;

  /// Functions submitted and not yet completed, per runtime image.
  std::unordered_map<faas::RuntimeImage, std::size_t> active_;
  /// Functions that have actually started (dispatched at least once) and
  /// not yet completed, per runtime image.
  std::unordered_map<faas::RuntimeImage, std::size_t> running_;
  /// Nodes hosting the last-seen attempt of each live function.
  std::unordered_map<FunctionId, NodeId> fn_node_;
  /// Live functions per rack (indexed by rack id), counted over fn_node_.
  std::vector<std::int64_t> functions_per_rack_;
  double failures_seen_ = 0.0;
  double functions_seen_ = 0.0;
};

}  // namespace canary::core
