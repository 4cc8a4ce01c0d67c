// One simulated experiment run: a cluster, a platform, a fault-tolerance
// strategy, an error rate, and a set of jobs. Produces the metrics the
// paper's figures report (recovery time, makespan, dollar cost).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "canary/failure_detector.hpp"
#include "cluster/storage.hpp"
#include "cost/cost_model.hpp"
#include "failure/injector.hpp"
#include "faas/function.hpp"
#include "faas/platform.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "recovery/strategies.hpp"
#include "traffic/generator.hpp"

namespace canary::harness {

struct ScenarioConfig {
  recovery::StrategyConfig strategy;
  /// Fraction of functions whose container is killed (paper's error rate,
  /// 0.01 - 0.50). Ignored for the Ideal strategy.
  double error_rate = 0.0;
  /// Hazard-rate by default: the kill probability of an attempt scales
  /// with how long its container is up, so a first attempt fails with
  /// probability `error_rate` while restarted containers stay exposed —
  /// producing the paper's "multiple consecutive function failures" and
  /// the compounding retry cost at high error rates (§V-D5/D6).
  failure::InjectionMode injection_mode = failure::InjectionMode::kHazardRate;
  std::size_t cluster_nodes = 16;
  /// Node-level failures at these offsets from run start (§V-D6).
  std::vector<Duration> node_failure_offsets;
  /// Correlated node failures: container-kill degradation on the victim
  /// before it dies (the signature proactive mitigation predicts on).
  struct CorrelatedNodeFailure {
    Duration at;
    int precursor_kills = 4;
    Duration precursor_window = Duration::sec(8.0);
  };
  std::vector<CorrelatedNodeFailure> correlated_node_failures;
  /// Heartbeat failure detection (fault surface v2). Disabled by default:
  /// the platform keeps the legacy constant-delay oracle and produces
  /// byte-identical runs. When enabled the platform switches to
  /// DetectionMode::kHeartbeat and node-failure recovery starts only once
  /// the detector confirms the worker dead.
  core::FailureDetectorConfig detection;
  /// Gray failures: node slowdown windows (stragglers, not deaths).
  struct GrayFailure {
    Duration at;
    Duration duration = Duration::sec(4.0);
    double slowdown = 4.0;
    std::optional<NodeId> node;  // unset = weighted random alive victim
  };
  std::vector<GrayFailure> gray_failures;
  /// Control-plane fault windows applied to worker heartbeats. A run
  /// starts at TimePoint::origin(), so each window's start is also its
  /// offset from run start.
  std::vector<failure::FailureInjector::HeartbeatFault> heartbeat_faults;
  /// KV checkpoint-shard faults: lose/corrupt stored checkpoint entries.
  struct StoreFault {
    Duration at;
    unsigned lose = 0;
    unsigned corrupt = 0;
  };
  std::vector<StoreFault> store_faults;
  /// Timed network partition windows (fault surface v3). A window either
  /// bipartitions a fault domain (`zone` set: the zone is symmetrically
  /// cut off from the rest of the cluster) or blocks the explicit node
  /// sets `from` -> `to` (one-way unless `symmetric`). Every window heals
  /// after `duration`; heals are first-class events in the causal log.
  struct PartitionFault {
    Duration at;
    Duration duration = Duration::sec(2.0);
    std::optional<std::uint32_t> zone;
    std::vector<NodeId> from;
    std::vector<NodeId> to;
    bool symmetric = false;
  };
  std::vector<PartitionFault> partitions;
  /// Correlated fault-domain outages: every still-alive member of `zone`
  /// dies at the offset, all kills sharing ONE causal event in the DAG.
  struct ZoneOutage {
    Duration at;
    std::uint32_t zone = 0;
  };
  std::vector<ZoneOutage> zone_outages;
  /// Fault-domain-aware placement across the stack: replica placement,
  /// checkpoint KV-shard owners, hedge clones, and recovery re-dispatch
  /// all spread across zones. Off by default — the domain-blind baseline
  /// (and byte-identical artifacts with the partition surface unused).
  bool fault_domain_spread = false;
  std::uint64_t seed = 42;
  faas::PlatformConfig platform;
  kv::KvConfig kv;
  /// Storage hierarchy override; defaults to the paper's testbed tiers
  /// (§V-C1). Lets experiments model e.g. an NFS-only deployment or a
  /// custom external endpoint ("such as an S3 bucket", §IV-C4a).
  std::optional<cluster::StorageHierarchy> storage;
  /// Derive a per-run span timeline (lifecycle phases, checkpoints,
  /// replication, recoveries) from the causal event log at collect time
  /// into RunResult::spans for chrome://tracing export. Turns the event
  /// log on. Off by default: spans cost memory proportional to events.
  bool record_spans = false;
  /// Record the per-invocation causal event DAG into RunResult::events and
  /// derive RunResult::breakdown from it. On by default: events are cheap
  /// and the critical-path breakdown feeds the run report. The log sees
  /// every state commit, so turning it on forces per-state dispatch: one
  /// engine event per state instead of one per execution segment. Nothing
  /// else a run measures changes, only RunResult::simulated_events.
  bool record_events = true;
  /// Open-loop traffic: arrival streams driven through admission control
  /// (and optionally the warm-pool autoscaler) on top of — or instead of
  /// — the batch `jobs`. Disabled by default; enabling it forces
  /// PlatformConfig::reuse_containers so warm-pool sizing can matter.
  traffic::TrafficConfig traffic;
  /// Attribution: at collect time, derive RunResult::attribution from the
  /// causal event log — the completion at each tail percentile with its
  /// exact per-component attribution (queueing/cold-start/detection/...),
  /// and the windowed time series (counter rates, per-window latency
  /// quantiles, node health). Turns the event log on. Off by default:
  /// both views cost collect time and report size, and nothing else
  /// reads them.
  bool attribution = false;

  /// Sharded runs. With one partition (the default) the monolithic
  /// single-simulator path runs. With `partitions` > 1 the scenario is
  /// split into independent node groups — each with its own cluster
  /// slice, platform, KV store, fault schedule, and derived RNG seed —
  /// and every partition runs as an ordinary scenario on one of
  /// `workers` threads. The partition count fixes the model: results
  /// depend on `partitions` but are invariant in `workers` (the
  /// determinism suite asserts this byte-for-byte).
  struct ShardingConfig {
    /// Logical partition count (node groups). Semantics-bearing.
    unsigned partitions = 1;
    /// Worker threads; any value yields identical results.
    unsigned workers = 1;
  };
  ShardingConfig sharding;
};

struct RunResult {
  bool completed = false;
  double makespan_s = 0.0;        // first submission to last job completion
  double total_recovery_s = 0.0;  // sum of per-failure recovery intervals
  double mean_recovery_s = 0.0;   // per recovered failure
  double lost_work_s = 0.0;       // nominal work discarded by failures
  double failures = 0.0;
  double cost_usd = 0.0;
  cost::CostBreakdown cost;
  /// Jobs carrying an SLA that finished past their deadline.
  double sla_violations = 0.0;
  double sla_jobs = 0.0;
  std::uint64_t simulated_events = 0;
  std::map<std::string, double> counters;
  /// Full metric registry of the run (counters + gauges + latency
  /// histograms). `counters` above is kept as a convenience view. The
  /// registry is the one record of every total a component counts:
  ///   - failure detection (all absent when detection is off):
  ///     worker_suspicions, false_suspicions, workers_confirmed_dead,
  ///     heartbeats_sent, heartbeats_dropped (injected drops) and
  ///     heartbeats_partition_dropped;
  ///   - open-loop traffic: the traffic_offered / _admitted / _shed /
  ///     _queued / _completed counters, the traffic_latency (arrival to
  ///     completion) and traffic_queue_wait (arrival to platform submit)
  ///     histograms, the autoscaler_* counters, and, on traffic runs
  ///     only, the gauges traffic_queue_peak, traffic_in_flight_end and
  ///     traffic_queued_end. Every traffic run satisfies
  ///       offered == admitted + shed + queued_end
  ///       admitted == completed + in_flight_end;
  ///   - hedge races: hedges_fired, hedge_wins, hedges_cancelled,
  ///     hedges_denied and hedges_skipped, and, on hedged runs only, the
  ///     gauge hedge_open_races: races unresolved at run end, counted
  ///     apart from the counters so that
  ///       fired == wins + cancelled + open
  ///     is a real check.
  /// A sharded run's merged registry sums the counters and merges the
  /// histograms exactly, but keeps the last partition's gauges: read
  /// gauges per partition, from `shards`.
  obs::MetricRegistry metrics;
  /// Span timeline derived from `events`; non-null only when
  /// ScenarioConfig::record_spans.
  std::shared_ptr<const std::vector<obs::Span>> spans;
  /// Causal event DAG; non-null only when ScenarioConfig::record_events
  /// or record_spans.
  std::shared_ptr<obs::EventLog> events;
  /// Critical-path decomposition of end-to-end latency and every
  /// failure-to-recovery window, plus the SLO watchdog's verdicts.
  /// Derived from `events`; empty when event recording is off.
  obs::BreakdownReport breakdown;
  /// Recorder overflow accounting (events/spans recorded vs. dropped).
  /// The timeline is derived from the log, so its drop count is the
  /// log's: a truncated log yields a truncated timeline.
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  /// Usage-ledger balance (chaos-oracle inputs): every closed interval
  /// must be non-negative and the per-purpose split must sum to the
  /// total. `usage_unbalanced` counts violations (0 in a healthy run).
  std::uint64_t usage_records = 0;
  std::uint64_t usage_unbalanced = 0;
  double usage_gb_seconds = 0.0;
  /// Node failures the platform stashed but nobody ever confirmed (should
  /// be 0 at the end of any completed heartbeat-mode run).
  std::uint64_t undetected_failures = 0;
  /// What the failure injector did. Its totals have no registry counter;
  /// this struct is their one record.
  failure::FaultTotals injected;
  /// Partition surface (fault surface v3). Heal-convergence oracle inputs:
  /// every started window must heal (injected.partitions_started ==
  /// injected.partitions_healed), no block rules may outlive the run, and
  /// every worker the detector confirmed dead must be fenced.
  std::uint64_t partitions_active_end = 0;
  /// Epoch-fence accounting from the KV store: commits rejected because
  /// the writer was fenced (zombie side) or could not reach the quorum.
  std::uint64_t kv_stale_epoch_rejects = 0;
  std::uint64_t kv_quorum_blocked_puts = 0;
  /// True when every worker the failure detector confirmed dead is down
  /// in the cluster and, under Canary, epoch-fenced in the KV store
  /// (trivially true for a run without a detector).
  bool confirmed_workers_fenced = true;

  /// Tail attribution (per-group percentile targets, each with its
  /// nearest-rank completion and that completion's exact component
  /// attribution) and the windowed time series; set exactly when
  /// ScenarioConfig::attribution is on.
  std::optional<obs::Attribution> attribution;
  /// Per-EventKind drop counts for the causal log (recorder health);
  /// empty when nothing was dropped.
  std::map<std::string, std::uint64_t> events_dropped_by_kind;

  /// Sharded runs only: the per-partition results this merged result was
  /// reduced from, in partition order (empty for monolithic runs). The
  /// chaos oracles and the multi-process chrome-trace writer consume
  /// these directly — FunctionIds and trace ids are partition-local.
  std::vector<std::shared_ptr<RunResult>> shards;
};

class ScenarioRunner {
 public:
  /// Execute `jobs` under `config` to completion. Deterministic in
  /// (config, jobs).
  static RunResult run(const ScenarioConfig& config,
                       const std::vector<faas::JobSpec>& jobs);
};

}  // namespace canary::harness
