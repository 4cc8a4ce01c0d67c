// Shared internals of the scenario runner: the full set of live objects
// behind one simulated scenario, constructed against an externally owned
// simulator. ScenarioRunner::run builds one instance over one
// sim::Simulator and calls simulator.run(). The sharded path
// (run_sharded) derives one config per partition and runs each through
// ScenarioRunner::run: a partition IS a scenario, just a smaller one,
// and its RunResult is harvested by the exact same code.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "canary/core.hpp"
#include "canary/failure_detector.hpp"
#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "cluster/storage.hpp"
#include "common/logging.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "failure/injector.hpp"
#include "harness/scenario.hpp"
#include "kvstore/kvstore.hpp"
#include "recovery/active_standby.hpp"
#include "recovery/request_replication.hpp"
#include "sim/simulator.hpp"
#include "traffic/autoscaler.hpp"
#include "traffic/generator.hpp"

namespace canary::harness::internal {

/// One fully wired scenario over a borrowed simulator. The constructor
/// performs the complete setup — platform, strategy, traffic, fault
/// schedule, detector start — in the exact statement order the monolithic
/// runner always used; the caller then drives the simulator (run() or
/// step()) and harvests the result with collect().
///
/// `install_log_hooks` controls the thread-scoped log clock/mirror: while
/// the instance lives, log records on the constructing thread carry
/// simulated time and kWarn+ records mirror into the causal log.
/// ScenarioRunner::run installs them; pass false when the simulator will
/// be driven from a different thread than the one constructing it.
struct ScenarioInstance {
  ScenarioInstance(sim::Simulator& sim, const ScenarioConfig& cfg,
                   const std::vector<faas::JobSpec>& jobs,
                   bool install_log_hooks);
  ScenarioInstance(const ScenarioInstance&) = delete;
  ScenarioInstance& operator=(const ScenarioInstance&) = delete;

  /// Harvest the RunResult after the simulator has quiesced. Finalizes
  /// the usage ledger and derives the span timeline; call exactly once.
  RunResult collect();

  ScenarioConfig config;  // owned copy: partition configs are derived
  sim::Simulator& simulator;
  cluster::Cluster cluster;
  cluster::NetworkModel network;
  cluster::StorageHierarchy storage;
  kv::KvStore store;
  obs::MetricRegistry metrics;
  faas::Platform platform;

  std::shared_ptr<obs::EventLog> events;

  std::optional<ScopedLogClock> log_clock;
  std::optional<ScopedLogMirror> log_mirror;

  std::optional<failure::FailureInjector> injector;
  std::optional<core::FailureDetector> detector;

  // Exactly one strategy object is materialised per instance; optionals
  // keep construction in-place without heap indirection.
  std::optional<faas::RetryHandler> retry;
  std::optional<core::CoreModule> canary_fw;
  std::optional<recovery::RequestReplicationHandler> rr;
  std::optional<recovery::ActiveStandbyHandler> as;
  std::optional<recovery::HedgeHandler> hedge;

  std::optional<traffic::TrafficGenerator> traffic_gen;
  std::optional<traffic::WarmPoolAutoscaler> autoscaler;
};

/// Derive partition `p`'s scenario from the sharded top-level config:
/// its slice of the cluster (testbed node ids are partition-local), a
/// decorrelated RNG seed, and the round-robin share of faults, traffic
/// streams, and batch jobs. Pure; the same inputs always produce the
/// same partition configs regardless of worker count.
ScenarioConfig derive_partition_config(const ScenarioConfig& config,
                                       unsigned partition, unsigned partitions);

/// Reduce per-partition results into one merged RunResult, in partition
/// order (every constituent merge — metrics, breakdown, attribution —
/// is deterministic and order-fixed). The inputs are retained in
/// RunResult::shards.
RunResult merge_sharded_results(std::vector<std::shared_ptr<RunResult>> parts);

/// Execute a scenario with `sharding.partitions` > 1: derive every
/// partition's config, run the partitions as independent scenarios on
/// `sharding.workers` threads, and merge the results.
RunResult run_sharded(const ScenarioConfig& config,
                      const std::vector<faas::JobSpec>& jobs);

}  // namespace canary::harness::internal
