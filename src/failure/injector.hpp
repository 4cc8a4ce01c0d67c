// Failure injection (paper §V-B): "We simulate failures by randomly
// killing containers that host functions based on the defined error rate,
// and vary the error rate from 1% to 50%."
//
// The error rate is the percentage of functions that fail during a
// workload. Every scenario, whatever its strategy, injects in
// kHazardRate mode unless its config says otherwise
// (ScenarioConfig::injection_mode): an attempt's kill probability grows
// with how long its container is up, and the kill lands at a uniformly
// random point of the attempt's busy window (launch through finalize) —
// failures "at random times during the job execution" (§V-D2). Only
// tests select the other two modes: kOncePerFunction (InjectorConfig's
// own default) kills each selected function exactly once, and
// kPerAttempt re-samples every attempt independently.
//
// Node-level failures (§V-D6) take down a whole worker: every hosted
// container dies and, unless the KV store replicates or persists them,
// the checkpoints cached on that node are lost.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "faas/events.hpp"
#include "faas/platform.hpp"
#include "failure/heartbeat_faults.hpp"
#include "kvstore/kvstore.hpp"

namespace canary::failure {

enum class InjectionMode {
  kOncePerFunction,  // error rate = fraction of functions that fail once
  kPerAttempt,       // every attempt fails independently with error rate
  /// Kill probability scales with how long the container is actually up:
  /// a full-length first attempt fails with probability `error_rate`, and
  /// an attempt of duration d fails with 1 - (1-e)^(d / first_attempt).
  /// This is the fixed-hazard model of a real cluster — retry attempts
  /// that redo the whole function stay exposed for the full duration,
  /// while checkpoint-resumed attempts are short and rarely re-killed.
  kHazardRate,
};

/// What the injector actually did over a run. RunResult holds one by
/// value and the shard merge sums them. Dropped heartbeats are not here:
/// the detector's "heartbeats_dropped" counter is that total's record.
struct FaultTotals {
  std::uint64_t planned_kills = 0;
  std::uint64_t node_kills = 0;
  /// Scheduled kills whose victim was already dead at fire time.
  std::uint64_t skipped_node_kills = 0;
  std::uint64_t gray_windows = 0;
  std::uint64_t heartbeats_delayed = 0;
  std::uint64_t store_entries_dropped = 0;
  std::uint64_t store_entries_corrupted = 0;
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t zone_outages = 0;

  FaultTotals& operator+=(const FaultTotals& other);
};

struct InjectorConfig {
  double error_rate = 0.0;
  InjectionMode mode = InjectionMode::kOncePerFunction;
  /// In OncePerFunction mode, the attempt on which the planned kill fires
  /// (1 = first attempt). Other attempts run clean.
  int kill_on_attempt = 1;
};

class FailureInjector : public faas::FailurePolicy,
                        public HeartbeatFaultProvider {
 public:
  FailureInjector(Rng rng, InjectorConfig config)
      : rng_(rng), config_(config) {}

  std::optional<Duration> plan_kill(const faas::Invocation& inv, int attempt,
                                    Duration busy_estimate) override;

  /// Schedule a node-level failure at `when`: a victim is drawn weighted
  /// by hardware failure proneness, the platform kills its containers,
  /// and the KV store drops the victim's cached entries. A victim that is
  /// already dead at fire time is skipped (counted in skipped_node_kills)
  /// so two failure events landing near the same time cannot double-kill
  /// a node and double-drop its KV entries.
  void schedule_node_failure(sim::Simulator& simulator,
                             faas::Platform& platform, kv::KvStore* store,
                             TimePoint when,
                             std::optional<NodeId> victim = std::nullopt);

  /// Correlated node failure: the victim is chosen `precursor_window`
  /// before `when` and exhibits `precursor_kills` container failures
  /// spread over the window before dying outright — the degradation
  /// signature Canary's proactive mitigation predicts on.
  void schedule_correlated_node_failure(sim::Simulator& simulator,
                                        faas::Platform& platform,
                                        kv::KvStore* store, TimePoint when,
                                        int precursor_kills,
                                        Duration precursor_window);

  // ---- fault surface v2 -------------------------------------------------

  /// Gray failure: `victim` (or a weighted random alive node when unset)
  /// runs `slowdown`x slower from `start` for `duration`, then recovers.
  /// Stragglers, not deaths — the node keeps heartbeating throughout.
  void schedule_gray_window(sim::Simulator& simulator,
                            faas::Platform& platform, TimePoint start,
                            Duration duration, double slowdown,
                            std::optional<NodeId> victim = std::nullopt);

  /// Control-plane fault window: heartbeats sent by `node` (or any node
  /// when unset) within [start, start+duration) are delayed by `delay`
  /// and independently dropped with probability `drop_rate`.
  struct HeartbeatFault {
    TimePoint start;
    Duration duration;
    Duration delay = Duration::zero();
    double drop_rate = 0.0;
    std::optional<NodeId> node;
  };
  void add_heartbeat_fault(HeartbeatFault fault);

  // ---- HeartbeatFaultProvider -------------------------------------------
  std::optional<Duration> heartbeat_delay(NodeId node,
                                          TimePoint send_time) override;

  /// KV-shard fault at `when`: `lose` checkpoint entries (prefix "ckpt/")
  /// are destroyed and `corrupt` more are bit-flipped so their checksum
  /// no longer matches. Picks are seeded-deterministic.
  void schedule_store_fault(sim::Simulator& simulator,
                            faas::Platform& platform, kv::KvStore& store,
                            TimePoint when, unsigned lose, unsigned corrupt);

  // ---- fault surface v3: partitions and fault domains -------------------

  /// Timed partition window: traffic from every node in `from` to every
  /// node in `to` is blocked during [start, start+duration). Asymmetric by
  /// default (the reverse direction keeps flowing); `symmetric` installs
  /// both directions. The heal is a first-class event: rules are removed
  /// and a partition_heal annotation lands in the causal log.
  void schedule_partition(sim::Simulator& simulator, faas::Platform& platform,
                          TimePoint start, Duration duration,
                          std::vector<NodeId> from, std::vector<NodeId> to,
                          bool symmetric = false);

  /// Domain bipartition: fault domain `zone` is symmetrically cut off from
  /// the rest of the cluster for `duration`. Membership is resolved at
  /// fire time; an empty side makes the window a no-op (still counted, so
  /// sharded slices merge consistently).
  void schedule_zone_partition(sim::Simulator& simulator,
                               faas::Platform& platform, TimePoint start,
                               Duration duration, std::uint32_t zone);

  /// Correlated zone outage: every still-alive member of `zone` dies at
  /// `when`, all kills sharing ONE causal zone_outage event in the obs
  /// DAG. Members already taken down by an earlier scheduled failure are
  /// skipped and counted in skipped_node_kills — the same double-kill
  /// guard as schedule_node_failure, extended to correlated kills.
  void schedule_zone_outage(sim::Simulator& simulator,
                            faas::Platform& platform, kv::KvStore* store,
                            TimePoint when, std::uint32_t zone);

  const FaultTotals& totals() const { return totals_; }

 private:
  struct Plan {
    bool fail = false;
    double fraction = 0.0;
    bool consumed = false;
  };

  void fire_node_failure(sim::Simulator& simulator, faas::Platform& platform,
                         kv::KvStore* store, NodeId victim, obs::Name what,
                         obs::EventId cause = obs::kNoEvent);

  Rng rng_;
  InjectorConfig config_;
  std::unordered_map<FunctionId, Plan> plans_;
  /// First-attempt busy duration per function, the hazard-rate reference.
  /// Function ids are sequential slab indices, so a flat vector indexed by
  /// id-1 (Duration::max() = unset) replaces the hash map — plan_kill runs
  /// once per attempt, and the old try_emplace allocated a hash node per
  /// invocation on that hot path.
  std::vector<Duration> first_busy_;
  std::vector<HeartbeatFault> heartbeat_faults_;
  FaultTotals totals_;
};

}  // namespace canary::failure
