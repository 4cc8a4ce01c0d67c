// Chaos campaign support: seeded multi-fault scenario generation and the
// invariant oracles that every scenario must satisfy regardless of what
// was injected.
//
// A chaos scenario is composed from a ChaosSpec and a seed. The base draws
// a small cluster, a handful of jobs and a random mix of the v2 fault
// surface (container kills, node failures, gray slowdown windows,
// heartbeat delay/drop, KV checkpoint loss/corruption), with heartbeat
// detection and the recovery watchdog on. The spec picks the strategy
// under test and the overlays layered on top — open-loop traffic,
// stragglers, a partition storm — then scales and shards the run. Every
// run is checked against:
//
//   1. completion    — every job finished (recovery terminated);
//   2. exactly-once  — each function has exactly one kComplete event;
//   3. clean restore — no corrupt checkpoint was ever selected for
//                      restore (the checksum skip worked);
//   4. bounded detection — every failure-to-detect window is within the
//                      analytic bound of the active detection mode plus
//                      injected heartbeat delay;
//   5. ledger balance — usage intervals non-negative, purpose split sums
//                      to the total;
//   6. no stranded failures — nothing left in the platform's undetected
//                      stash after completion.
//   7. conservation  — when open-loop traffic rides along, every offered
//                      arrival is accounted exactly once
//                      (offered == admitted + shed + queued_end and
//                      admitted == completed + in_flight), and a
//                      completed run leaves nothing queued or in flight;
//   8. hedge exactly-once — when speculative clones race (the hedged
//                      strategy), every fired hedge resolves exactly
//                      once (fired == wins + cancelled + open, no race
//                      left open on a completed run) and the causal log
//                      agrees (#kHedged == fired, #kHedgeCancelled ==
//                      resolved races);
//   9. no split brain — at most one committed side effect per invocation
//                      even when both sides of a partition execute it:
//                      every commit attempted by a logically fenced
//                      (minority-side zombie) worker is rejected at the
//                      store's epoch gate (zombie_commits_committed == 0,
//                      on top of oracle 2's per-function completion
//                      count);
//  10. heal convergence — every partition window that started also
//                      healed, no reachability rule outlives the run,
//                      every worker the detector confirmed dead is down
//                      in the cluster and (under Canary) epoch-fenced in
//                      the KV store, and no invocation is left stranded
//                      (oracle 6 under partitions).
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "harness/scenario.hpp"

namespace canary::harness {

/// Which scenario to draw for a seed. Each overlay draws from its own
/// child stream of the seed (the base uses child(1..3)), so switching one
/// on never perturbs the base draws or another overlay's: every
/// combination of overlays is the same base scenario with more on top.
struct ChaosSpec {
  /// Canary runs canary_full() with the base's SLA-awareness and watchdog
  /// draws; hedged takes its trigger config from the child(5) stream.
  recovery::StrategyKind strategy = recovery::StrategyKind::kCanary;
  /// child(4): an on/off burst stream through admission control and the
  /// warm-pool autoscaler, plus one node failure inside the burst window.
  bool traffic = false;
  /// child(5): a gray window that manufactures the stragglers hedges fire
  /// on, plus one node failure inside the racing phase.
  bool stragglers = false;
  /// child(6): 1-2 zone bipartitions of a 10-node cluster, an optional
  /// asymmetric window and an optional correlated zone outage, under
  /// tightened detection; fault-domain-aware placement on half the seeds.
  bool partition = false;
  /// Above 1, run sharded (one worker thread per partition), with the
  /// cluster grown by the same factor so each partition keeps a full
  /// slice. Fault node ids drawn against the unsharded cluster stay in
  /// range inside every slice after the round-robin split's remap.
  unsigned partitions = 1;
  /// The scaled shape: 8x the drawn jobs (the first are the unscaled
  /// scenario's) on 4x the nodes.
  bool scaled = false;
};

/// One generated scenario: the config plus its jobs.
struct ChaosScenario {
  ScenarioConfig config;
  std::vector<faas::JobSpec> jobs;
  /// Largest injected heartbeat delivery delay (feeds the detection
  /// bound oracle).
  Duration max_heartbeat_delay = Duration::zero();
};

/// Deterministically compose `spec`'s scenario for `seed`.
ChaosScenario make_chaos_scenario(const ChaosSpec& spec, std::uint64_t seed);

/// One per-run total the campaign sums over its scenarios. `key` names it
/// everywhere: ChaosOutcome::total, the campaign printout and its report.
struct ChaosTotal {
  const char* key;
  /// Null reads the run's registry counter named `key` (zero when never
  /// counted).
  double (*read)(const RunResult&);
};

inline constexpr ChaosTotal kChaosTotals[] = {
    // Injected faults.
    {"function_failures", [](const RunResult& r) { return r.failures; }},
    {"node_kills",
     [](const RunResult& r) { return double(r.injected.node_kills); }},
    {"gray_windows",
     [](const RunResult& r) { return double(r.injected.gray_windows); }},
    {"heartbeats_dropped", nullptr},
    {"heartbeats_delayed",
     [](const RunResult& r) { return double(r.injected.heartbeats_delayed); }},
    {"store_entries_dropped",
     [](const RunResult& r) {
       return double(r.injected.store_entries_dropped);
     }},
    {"store_entries_corrupted",
     [](const RunResult& r) {
       return double(r.injected.store_entries_corrupted);
     }},
    // Detection and recovery.
    {"detector_suspicions",
     [](const RunResult& r) { return r.metrics.counter("worker_suspicions"); }},
    {"detector_false_suspicions",
     [](const RunResult& r) { return r.metrics.counter("false_suspicions"); }},
    {"recovery_stalls", nullptr},
    // Open-loop traffic (zero without the traffic overlay).
    {"traffic_offered", nullptr},
    {"traffic_admitted", nullptr},
    {"traffic_shed", nullptr},
    {"traffic_completed", nullptr},
    // Hedge races (zero unless the strategy hedges).
    {"hedges_fired", nullptr},
    {"hedge_wins", nullptr},
    {"hedges_cancelled", nullptr},
    // Partition surface (zero without the partition overlay).
    {"partitions_started",
     [](const RunResult& r) { return double(r.injected.partitions_started); }},
    {"partitions_healed",
     [](const RunResult& r) { return double(r.injected.partitions_healed); }},
    {"zone_outages",
     [](const RunResult& r) { return double(r.injected.zone_outages); }},
    {"heartbeats_partition_dropped", nullptr},
    {"stale_epoch_rejects",
     [](const RunResult& r) { return double(r.kv_stale_epoch_rejects); }},
    {"quorum_blocked_puts",
     [](const RunResult& r) { return double(r.kv_quorum_blocked_puts); }},
    {"zombie_commit_attempts", nullptr},
    {"zombie_commits_rejected", nullptr},
};

struct ChaosOutcome {
  std::uint64_t seed = 0;
  bool completed = false;
  double makespan_s = 0.0;
  /// Longest failure-to-detect window in the causal log (zero when the
  /// log is truncated), and the heartbeat detection bound it is checked
  /// against, before the oracle's 100 ms slack.
  double max_detection_latency_s = 0.0;
  double detection_bound_s = 0.0;
  /// One value per kChaosTotals entry, in table order.
  std::array<double, std::size(kChaosTotals)> totals{};
  /// Human-readable oracle violations; empty = scenario passed.
  std::vector<std::string> violations;

  /// The kChaosTotals entry named `key`.
  double total(std::string_view key) const;
};

/// Compose `spec`'s scenario for `seed`, run it and evaluate every oracle.
ChaosOutcome run_chaos_scenario(const ChaosSpec& spec, std::uint64_t seed);

/// Oracle evaluation, separated for tests: checks `result` (and the
/// scenario it came from) and returns the violations. Oracles 7 and 8
/// read the run's registry counters and gauges. For sharded results,
/// recurses into each per-partition result (violations gain a "shard N: "
/// prefix) before checking the merged scalars; 7 and 8 are checked per
/// partition only.
std::vector<std::string> chaos_oracles(const ChaosScenario& scenario,
                                       const RunResult& result);

}  // namespace canary::harness
