// The FaaS platform (OpenWhisk substitute).
//
// Owns jobs, function invocations and containers; drives their lifecycle
// on the discrete-event simulator; enforces account limits; and delegates
// policy to the extension points in events.hpp:
//   * FailurePolicy decides whether/when each attempt's container is
//     killed (the evaluation's error-rate-driven random kills);
//   * RecoveryHandler reacts to failures — RetryHandler reproduces the
//     platform default, canary::CoreModule replaces it;
//   * ExecutionHooks lets Canary's Checkpointing Module add per-state
//     checkpoint overhead and record restore points.
//
// Scheduling is least-loaded-node with capacity probing; concurrent cold
// starts on one node contend (image pull / containerd contention), which
// is what makes mass retry storms slow in Fig. 4/11.
//
// An attempt's states run as execution segments, one engine event each
// (schedule_segment): unless hooks or the event log must see every state
// commit, the commits between two segment ends are applied lazily.
#pragma once

#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/slab.hpp"
#include "faas/container.hpp"
#include "faas/events.hpp"
#include "faas/function.hpp"
#include "faas/usage.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_registry.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace canary::faas {

/// Maximum memory a single function may request (request failures).
inline constexpr Bytes kMaxFunctionMemory = Bytes::gib(8);
inline constexpr std::size_t kMaxFunctionsPerJob = 4096;

/// Delay between a container dying and the failure being detected and
/// reported to the recovery handler.
inline constexpr Duration kFailureDetectDelay = Duration::msec(300);

struct PlatformLimits {
  /// Maximum concurrently running invocations per account (concurrency
  /// failures happen beyond this; the Request Validator queues instead).
  unsigned max_concurrent_invocations = 1000;
  /// Per-attempt execution timeout (§II's "network timeouts" failure
  /// class): an attempt running longer than this is killed with
  /// FailureKind::kTimeout and handled by the recovery strategy.
  /// Duration::max() disables enforcement.
  Duration function_timeout = Duration::max();
};

/// How the platform learns about node-level failures.
enum class DetectionMode {
  /// Legacy oracle: every failure is reported to the recovery handler a
  /// constant kFailureDetectDelay after it happens.
  kOracle,
  /// Heartbeat detection: node-level failures are *not* reported until a
  /// failure detector (canary::core::FailureDetector or equivalent) calls
  /// confirm_node_dead() — detection latency becomes an emergent quantity
  /// of the heartbeat interval, timeout multiplier and injected network
  /// faults. Container-local failures (kills, timeouts) are still noticed
  /// by the node's invoker after kFailureDetectDelay.
  kHeartbeat,
};

struct PlatformConfig {
  PlatformLimits limits;
  /// Controller overhead to schedule one invocation.
  Duration scheduler_overhead = Duration::msec(15);
  /// Node-failure detection mode; kOracle preserves the legacy constant
  /// delay, kHeartbeat defers to confirm_node_dead().
  DetectionMode detection_mode = DetectionMode::kOracle;
  /// Container reuse (the paper's future work: "consolidating multiple
  /// functions in a single container to reduce the cold start latency"):
  /// completed functions return their container to a warm pool instead of
  /// tearing it down, and new invocations of the same runtime adopt pool
  /// containers. Idle pool containers are destroyed after
  /// `warm_pool_idle_timeout`. Billing pauses while a pool container
  /// idles (providers do not charge users for the warm pool).
  bool reuse_containers = false;
  Duration warm_pool_idle_timeout = Duration::sec(60.0);
};

/// How a (re)start should run: from which state, on which container/node,
/// and how much setup time (checkpoint restore, state migration) precedes
/// execution.
struct StartSpec {
  std::size_t from_state = 0;
  std::optional<ContainerId> container;  // warm container to adopt
  std::optional<NodeId> node_pref;
  Duration extra_setup = Duration::zero();
};

class Platform {
 public:
  Platform(sim::Simulator& simulator, cluster::Cluster& cluster,
           cluster::NetworkModel& network, PlatformConfig config,
           obs::MetricRegistry& metrics);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // ---- policy installation -------------------------------------------
  void set_failure_policy(FailurePolicy* policy) { failure_policy_ = policy; }
  void set_recovery_handler(RecoveryHandler* handler) { recovery_ = handler; }
  void set_hooks(ExecutionHooks* hooks) { hooks_ = hooks; }
  void add_observer(PlatformObserver* observer);
  /// Install a causal event log: every invocation becomes a trace whose
  /// lifecycle steps, failures, detections and recovery actions chain
  /// into a per-trace DAG. Null disables event recording (the default).
  void set_event_log(obs::EventLog* events) { events_ = events; }
  obs::EventLog* events() const { return events_; }
  /// Functions the SLO watchdog has armed so far. Every SLA-carrying
  /// function (FunctionSpec::sla, falling back to the job deadline) is
  /// armed once at submission, and a breach is recorded online at its
  /// deadline as the slo_violations counter and a kSlaViolation event.
  std::size_t slo_targets() const { return slo_targets_; }

  // ---- job/function API ----------------------------------------------
  /// Validate against platform limits and enqueue every function of the
  /// job. Functions start as account concurrency and node capacity allow.
  Result<JobId> submit_job(JobSpec spec);
  /// Zero-copy submission: the platform shares `spec` instead of owning a
  /// deep copy. Batch harnesses pass a non-owning alias of their (longer
  /// lived) job list, so a million-invocation run never duplicates the
  /// function specs; dynamic producers wrap a temporary in one
  /// make_shared. The spec must stay immutable and outlive the platform.
  Result<JobId> submit_job(std::shared_ptr<const JobSpec> spec);

  /// Record a job rejected by admission control: every function becomes a
  /// terminal Phase::kShed invocation that never executes (no container,
  /// no SLO target, no observer callbacks) but still appears in the event
  /// log — a kQueued event at JobSpec::enqueued_at chained to a kShed
  /// event at the current time — so rejected load is never silently
  /// dropped and the shed count is exactly-once auditable.
  Result<JobId> shed_job(JobSpec spec);

  const Invocation& invocation(FunctionId id) const;
  const JobSpec& job_spec(JobId id) const;
  const std::vector<FunctionId>& job_functions(JobId id) const;
  bool job_completed(JobId id) const;
  bool all_jobs_completed() const;
  TimePoint job_submit_time(JobId id) const;
  TimePoint job_completion_time(JobId id) const;
  std::vector<JobId> all_job_ids() const;

  std::vector<FunctionId> all_function_ids() const;

  // ---- primitives used by recovery handlers ---------------------------
  /// (Re)start a function according to `spec`. With a warm container the
  /// launch+init phases are skipped (that is the replication win); without
  /// one a cold container is created. Recovering invocations bypass the
  /// account concurrency queue — they already hold their slot.
  void start_attempt(FunctionId id, StartSpec spec);

  /// Launch a warm container (runtime replica / standby / prewarmed pool
  /// container). Observers see on_container_ready when it reaches the
  /// Warm state, in registration order until one of them destroys it; if
  /// the node dies first they see its destruction instead.
  Result<ContainerId> launch_warm_container(NodeId node, RuntimeImage image,
                                            ContainerPurpose purpose);

  /// Idle warm container running `image` (optionally restricted by
  /// purpose), preferring `prefer_node`, else the lowest id.
  std::optional<ContainerId> find_warm_container(
      RuntimeImage image, std::optional<NodeId> prefer_node,
      std::optional<ContainerPurpose> purpose) const;

  /// Tear down an idle warm container (replica retirement).
  void destroy_warm_container(ContainerId id);

  /// Append a kRecoveryAction event to `id`'s causal chain — recovery
  /// strategies call this so the trace DAG records which path (retry,
  /// replica migration, standby activation, ...) handled each failure.
  void log_recovery_action(FunctionId id, obs::Name action);

  /// Merge `follower`'s causal chain into `leader`'s trace. Request
  /// replication joins each shadow to its primary so the whole race is
  /// one trace.
  void join_trace(FunctionId follower, FunctionId leader);

  const Container& container(ContainerId id) const;
  std::vector<const Container*> containers_on(NodeId node) const;
  std::size_t warm_container_count(RuntimeImage image) const;
  /// Warm-idle containers of `image` with `purpose` (the autoscaler's
  /// supply signal; O(1) from the warm index).
  std::size_t warm_idle_count(RuntimeImage image, ContainerPurpose purpose)
      const;

  // ---- failure entry points -------------------------------------------
  /// Kill the container currently hosting `id` (injected failure).
  void kill_function(FunctionId id, FailureKind kind);
  /// Discard an invocation without running it to completion: its container
  /// (if any) is torn down and it counts as done for job completion. Used
  /// by the request-replication baseline, where the first replica to
  /// respond wins and "the rest are discarded".
  void discard_function(FunctionId id);
  /// Dispatch a speculative clone of a still-unfinished invocation: a new
  /// function appended to the same job, sharing `primary`'s spec (and so
  /// its workload family) and racing it to completion — anti-affine to
  /// the primary's node when the cluster has another candidate. The clone
  /// joins the primary's causal trace (a kHedged event on the primary is
  /// the fork point) and bypasses the account concurrency queue: the
  /// primary already holds the request's slot, and amplification is
  /// bounded by the caller's hedge budget.
  FunctionId hedge_clone(FunctionId primary);
  /// Resolve a hedge race exactly-once: `winner` finished first, so
  /// `loser` is cancelled — a kHedgeCancelled event (cause = the winner's
  /// latest event) followed by discard_function. A loser that already
  /// reached a terminal state is left untouched, so double resolution
  /// and completion races are no-ops by construction.
  void cancel_hedge(FunctionId loser, FunctionId winner);
  /// Node-level failure: every hosted container dies; busy invocations
  /// fail, warm replicas are destroyed. When `cause` is a valid event id
  /// (a zone-outage annotation), the node's kNodeFailure root event chains
  /// off it, so correlated kills share one causal ancestor in the DAG.
  void fail_node(NodeId node, obs::EventId cause = obs::kNoEvent);
  /// Heartbeat-mode detection endpoint: the failure detector confirmed
  /// `node` dead. A still-alive node that can reach the majority side is
  /// fenced physically (failed outright — the exactly-once guarantee for
  /// false confirmations on gray workers). A still-alive node cut off by
  /// a partition cannot be reached to kill: it is fenced *logically*.
  /// The cluster marks it failed, so placement excludes it, and its
  /// invocations are redeployed, while the minority-side zombie runs to
  /// its natural completion and attempts its commit through the
  /// zombie-commit hook, where the KV store's epoch gate rejects it.
  /// Either way every stashed undetected failure on the node is then
  /// reported to the recovery handler.
  void confirm_node_dead(NodeId node);
  /// Install the zombie-commit hook: called at the sim-time a logically
  /// fenced invocation would have committed its in-flight state, with the
  /// fenced node and invocation id. The canary checkpointing layer wires
  /// this to a real (stale-epoch, rejected) KV put.
  void set_zombie_commit_hook(std::function<void(NodeId, FunctionId)> hook) {
    zombie_commit_hook_ = std::move(hook);
  }
  /// Node failures awaiting heartbeat confirmation (kHeartbeat mode).
  std::size_t undetected_failures() const { return undetected_.size(); }
  /// Set `node`'s gray-failure slowdown (Node::set_slowdown). Speed is
  /// read at each state's start: an attempt executing on the node finishes
  /// its in-flight state as planned, and its later states run at the new
  /// speed.
  void set_node_slowdown(NodeId node, double slowdown);

  // ---- accounting ------------------------------------------------------
  const UsageLedger& usage() const { return ledger_; }
  /// Close open usage intervals at the current simulated time.
  void finalize_usage();

  sim::Simulator& simulator() { return sim_; }
  cluster::Cluster& cluster() { return cluster_; }
  cluster::NetworkModel& network() { return network_; }
  const cluster::NetworkModel& network() const { return network_; }
  const PlatformConfig& config() const { return config_; }
  obs::MetricRegistry& metrics() { return metrics_; }

 private:
  static constexpr std::size_t kPurposeCount = 4;
  static constexpr std::size_t kImageCount = std::size(kAllRuntimeImages);
  struct RecoveryMarker {
    Duration floor;      // nominal work to regain
    TimePoint fail_time;
    obs::EventId fail_event = obs::kNoEvent;  // the kFailure DAG node
  };

  // Defined in the header (not pimpl'd) so the records can live directly
  // in the entity slabs below — std::deque needs a complete element type.
  struct InvocationInternal : Invocation {
    std::size_t index_in_job = 0;
    sim::EventHandle progress_event;
    sim::EventHandle kill_event;
    sim::EventHandle timeout_event;
    std::vector<RecoveryMarker> markers;
    /// The in-flight state's start and planned end. Like next_state and
    /// work_done they advance at the segment's event or at catch_up.
    TimePoint state_start;
    TimePoint state_planned_end;
    /// work_done captured at the last failure; used to compute lost work
    /// once the restore point of the next attempt is known.
    Duration last_failure_work = Duration::zero();
    bool counted_running = false;
  };

  struct JobRecord {
    /// Shared, immutable: submission never deep-copies the spec (see the
    /// shared_ptr submit_job overload). Invocation::spec points into
    /// spec->functions, so stability follows from the shared ownership.
    std::shared_ptr<const JobSpec> spec;
    std::vector<FunctionId> functions;
    std::size_t remaining = 0;
    TimePoint submitted;
    TimePoint completed = TimePoint::max();
    /// Trigger graph: dependents[i] lists the function indices unblocked
    /// by function i's completion; unmet_deps[i] counts i's open
    /// dependencies. Both stay empty for trigger-free jobs — the common
    /// batch/traffic case submits without any per-job graph allocation.
    std::vector<std::vector<std::size_t>> dependents;
    std::vector<std::size_t> unmet_deps;
  };

  /// The one constructor of each entity record: append it to its slab,
  /// whose position is its id. They log nothing, so each caller keeps
  /// its own event order. new_invocation adds the function to its job.
  JobId new_job(std::shared_ptr<const JobSpec> spec);
  InvocationInternal& new_invocation(JobId job, const FunctionSpec& fn);

  InvocationInternal& internal(FunctionId id);
  const InvocationInternal& internal(FunctionId id) const;
  JobRecord& job_record(JobId id);
  const JobRecord& job_record(JobId id) const;
  Container& container_ref(ContainerId id);
  const Container& container_ref(ContainerId id) const;
  /// The container if it exists and is alive, else nullptr. Replaces the
  /// old map-find-plus-alive guard on deferred event paths.
  Container* alive_container(ContainerId id);
  /// Deferred-event guard: the invocation if it is still on `attempt`
  /// with `cid` alive, else nullptr (the event is stale).
  InvocationInternal* attempt_guard(FunctionId id, int attempt,
                                    ContainerId cid);

  void warm_index_add(const Container& c);
  void warm_index_remove(const Container& c);
  void release_inflight_launch(NodeId node);

  void pump_pending_queue();
  void retry_capacity_waiters();
  std::optional<NodeId> pick_node(Bytes memory,
                                  std::optional<NodeId> pref) const;

  ContainerId create_container(NodeId node, RuntimeImage image, Bytes memory,
                               ContainerPurpose purpose);
  void destroy_container(ContainerId id);
  double launch_contention_multiplier(NodeId node) const;

  void start_cold(InvocationInternal& inv, NodeId node, StartSpec spec);
  void start_warm(InvocationInternal& inv, Container& c, StartSpec spec);
  /// The attempt-begin block both starts share: the next attempt runs on
  /// `c` from the restore point, logs its first event and arms its kill
  /// timer. Returns the node's speed.
  double begin_attempt(InvocationInternal& inv, Container& c,
                       const StartSpec& spec, bool cold);
  void arm_kill_timer(InvocationInternal& inv, Duration busy_estimate);
  /// Kill the attempt in flight after `delay` unless it has moved on.
  sim::EventHandle schedule_kill(const InvocationInternal& inv,
                                 Duration delay, FailureKind kind);
  Duration attempt_busy_estimate(const InvocationInternal& inv,
                                 const StartSpec& spec, double speed,
                                 bool cold) const;
  Duration epilogue_nominal(const Invocation& inv,
                            std::size_t state_idx) const;

  obs::SpanLabels obs_labels(const InvocationInternal& inv) const;
  /// Append an event to the invocation's causal chain (no-op without an
  /// installed EventLog). Returns the event id for cause edges.
  obs::EventId obs_event(InvocationInternal& inv, obs::EventKind kind,
                         obs::Name name, obs::EventId cause = obs::kNoEvent);
  /// Log an arrival: a kQueued root at `queued_at` when the request
  /// waited in admission control, then `kind` (kSubmit or kShed) now.
  void log_arrival(InvocationInternal& inv, obs::EventKind kind,
                   std::optional<TimePoint> queued_at);
  /// Arm the SLO watchdog for a newly submitted invocation. The deadline
  /// is `anchor + sla`; open-loop requests anchor at their arrival
  /// instant (JobSpec::enqueued_at), everything else at submission.
  void arm_slo(InvocationInternal& inv, Duration sla, TimePoint anchor);

  void begin_execution(InvocationInternal& inv, int attempt);
  /// True when something must see every state commit (Canary's hooks or
  /// the causal event log): every segment is then one state long.
  bool per_state_consumer() const {
    return hooks_ != nullptr || events_ != nullptr;
  }
  /// State `idx`'s wall duration on a node of `speed`, epilogue included.
  Duration state_time(const InvocationInternal& inv, std::size_t idx,
                      double speed) const;
  /// Schedule the event that ends the attempt's next execution segment
  /// (or, past the last state, its finalize). A continuation takes over
  /// the sequence number of the segment event being dispatched, so one
  /// attempt's chain of segments ties with other events as its first one.
  void schedule_segment(InvocationInternal& inv, bool continuation);
  /// Bring an executing attempt's progress up to now by applying the
  /// commits its segment skipped. Every entry point that interrupts, ends
  /// or re-plans an attempt calls it first; the segment's own event passes
  /// `segment_last`, the last state it commits.
  void catch_up(InvocationInternal& inv,
                std::optional<std::size_t> segment_last = std::nullopt);
  void complete_function(InvocationInternal& inv);
  void handle_kill(InvocationInternal& inv, FailureKind kind);
  /// Logical fence for a confirmed-dead node the majority cannot reach:
  /// retire it from placement, schedule zombie commit attempts for its
  /// executing invocations, then kill-and-redeploy them.
  void logically_fence(NodeId node);
  /// The ambient root event of a node takedown (a node failure or a
  /// fence) on its own trace: every victim's kFailure chains off it.
  void open_takedown(NodeId node, obs::EventKind kind, obs::Name name,
                     obs::EventId cause);
  /// Retire `node` from the cluster, then fail each of `on_node`'s
  /// still-live containers' invocations, or tear the container down when
  /// it runs none.
  void take_down(NodeId node, const std::vector<const Container*>& on_node);
  void resolve_recovery_markers(InvocationInternal& inv);

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  cluster::NetworkModel& network_;
  PlatformConfig config_;
  obs::MetricRegistry& metrics_;

  FailurePolicy* failure_policy_ = nullptr;
  RecoveryHandler* recovery_ = nullptr;
  ExecutionHooks* hooks_ = nullptr;
  obs::EventLog* events_ = nullptr;
  std::size_t slo_targets_ = 0;
  /// While a node takedown kills the node's containers, its root event,
  /// whose cause edge every victim's kFailure event carries.
  obs::EventId node_failure_cause_ = obs::kNoEvent;
  std::vector<PlatformObserver*> observers_;

  // Entity slabs. An id is its record's slab position plus one (0 stays
  // the invalid id) and records are never erased, so a StableSlab
  // indexed by id-1 replaces the old
  // unordered_map<Id, unique_ptr<T>> tables: O(1) lookup with no hashing,
  // stable addresses across growth, and O(log n) total allocations via
  // geometrically doubling blocks (a deque's fixed 512-byte chunks cost
  // an allocation every couple of appends for records this size).
  StableSlab<JobRecord> jobs_;
  StableSlab<InvocationInternal> invocations_;
  StableSlab<Container> containers_;
  /// In-flight cold launches per node, indexed by node id - 1 (the
  /// cluster's node set is fixed at construction).
  std::vector<unsigned> inflight_launches_;

  /// Warm-idle container index: [purpose][image] -> ids of containers in
  /// the Warm state, ascending. Maintained at every transition into/out
  /// of Warm so find_warm_container()/warm_container_count() touch only
  /// actual candidates instead of scanning every container ever created.
  std::set<ContainerId> warm_idle_[kPurposeCount][kImageCount];

  /// Node failures not yet reported to the recovery handler: in
  /// kHeartbeat mode a dead node's victims wait here until the failure
  /// detector calls confirm_node_dead().
  struct UndetectedFailure {
    FunctionId id;
    int attempt = 0;
    FailureInfo info;
  };
  std::vector<UndetectedFailure> undetected_;

  std::function<void(NodeId, FunctionId)> zombie_commit_hook_;

  std::deque<FunctionId> pending_;  // waiting on account concurrency
  std::deque<std::pair<FunctionId, StartSpec>> capacity_waiters_;
  unsigned running_count_ = 0;
  bool pump_scheduled_ = false;

  UsageLedger ledger_;

  // Per-event metric handles: one map lookup each for the whole run
  // instead of one per increment.
  obs::CounterHandle m_cold_starts_{metrics_, "cold_starts"};
  obs::CounterHandle m_warm_starts_{metrics_, "warm_starts"};
  obs::CounterHandle m_pool_reuses_{metrics_, "pool_reuses"};
  obs::CounterHandle m_capacity_waits_{metrics_, "capacity_waits"};
  obs::CounterHandle m_functions_completed_{metrics_, "functions_completed"};
  obs::CounterHandle m_functions_discarded_{metrics_, "functions_discarded"};
  obs::CounterHandle m_functions_shed_{metrics_, "functions_shed"};
  obs::CounterHandle m_failures_{metrics_, "failures"};
  obs::CounterHandle m_recoveries_{metrics_, "recoveries"};
  obs::CounterHandle m_timeouts_{metrics_, "timeouts"};
  obs::CounterHandle m_containers_pooled_{metrics_, "containers_pooled"};
  obs::CounterHandle m_node_failures_{metrics_, "node_failures"};
  obs::CounterHandle m_slo_violations_{metrics_, "slo_violations"};
  obs::HistogramHandle m_function_latency_{metrics_, "function_latency"};
  obs::HistogramHandle m_function_queue_wait_{metrics_, "function_queue_wait"};
  obs::HistogramHandle m_recovery_time_{metrics_, "recovery_time"};
};

}  // namespace canary::faas
