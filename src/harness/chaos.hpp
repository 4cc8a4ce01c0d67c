// Chaos campaign support: seeded multi-fault scenario generation and the
// invariant oracles that every scenario must satisfy regardless of what
// was injected.
//
// A chaos scenario draws a small cluster, a handful of jobs and a random
// mix of the v2 fault surface (container kills, node failures, gray
// slowdown windows, heartbeat delay/drop, KV checkpoint loss/corruption)
// from one seed, runs it under the Canary strategy with heartbeat
// detection and the recovery watchdog enabled, and then checks:
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
//                      admitted == completed + failed + in_flight), and a
//                      completed run leaves nothing queued or in flight;
//   8. hedge exactly-once — when speculative clones race (hedge
//                      scenarios), every fired hedge resolves exactly
//                      once (fired == wins + cancelled, no race left
//                      open on a completed run) and the causal log
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
//                      the controller's worker_info liveness view agrees
//                      with the cluster ground truth, and no invocation
//                      is left stranded (oracle 6 under partitions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace canary::harness {

/// One generated scenario: the config plus its jobs.
struct ChaosScenario {
  ScenarioConfig config;
  std::vector<faas::JobSpec> jobs;
  /// Largest injected heartbeat delivery delay (feeds the detection
  /// bound oracle).
  Duration max_heartbeat_delay = Duration::zero();
};

/// Deterministically derive a scenario from `seed`.
ChaosScenario make_chaos_scenario(std::uint64_t seed);

/// The same scenario with an open-loop burst stream layered on top: an
/// on/off arrival process driven through admission control and the
/// warm-pool autoscaler, plus one guaranteed node failure timed to land
/// inside the traffic window. Derived from `Rng(seed).child(4)`, so the
/// base scenario's draws are untouched.
ChaosScenario make_traffic_chaos_scenario(std::uint64_t seed);

/// The base scenario re-armed for the hedge strategy: speculative clones
/// race their primaries while a guaranteed extra node failure lands
/// mid-race and a gray window manufactures the stragglers that make
/// hedges fire. Derived from `Rng(seed).child(5)`, so the base draws
/// (and the traffic stream's child(4)) are untouched.
ChaosScenario make_hedge_chaos_scenario(std::uint64_t seed);

/// The base scenario sharded: four partitions, each an independent
/// scenario over its own cluster slice, run by four worker threads. The
/// cluster is grown 4x so each partition keeps a full base-sized slice —
/// a one-node slice could not survive its share of the node kills, which
/// would fail the completion oracle for reasons unrelated to sharding.
/// Every oracle is evaluated inside each partition (function ids and
/// causal trace ids are partition-local) and the scalar oracles are
/// re-evaluated on the merged result.
ChaosScenario make_sharded_chaos_scenario(std::uint64_t seed);

/// The fifth family: partition/zone/heal storms. The base scenario gains
/// 1-2 long zone bipartitions (cutting the cluster's last fault domain,
/// sized so the majority side always survives), an optional short
/// asymmetric window (one-way heartbeat loss that must un-suspect cleanly
/// on heal), and an optional correlated zone outage racing the windows.
/// Half the seeds turn on fault-domain-aware placement. Derived from
/// `Rng(seed).child(6)`, so the base draws (and every other overlay's
/// stream) are untouched.
ChaosScenario make_partition_chaos_scenario(std::uint64_t seed);

/// The partition scenario sharded (4 partitions x 4 workers), the same
/// way make_sharded_chaos_scenario shards the base: each shard keeps a full
/// base-sized cluster slice and resolves its zone windows/outages against
/// its own slice.
ChaosScenario make_sharded_partition_chaos_scenario(std::uint64_t seed);

struct ChaosOutcome {
  std::uint64_t seed = 0;
  bool completed = false;
  double makespan_s = 0.0;
  double failures = 0.0;
  double max_detection_latency_s = 0.0;
  double detection_bound_s = 0.0;
  // Injected fault totals (for the campaign report).
  std::uint64_t node_kills = 0;
  std::uint64_t gray_windows = 0;
  std::uint64_t heartbeats_dropped = 0;
  std::uint64_t heartbeats_delayed = 0;
  std::uint64_t store_entries_dropped = 0;
  std::uint64_t store_entries_corrupted = 0;
  std::uint64_t detector_suspicions = 0;
  std::uint64_t detector_false_suspicions = 0;
  std::uint64_t recovery_stalls = 0;
  // Open-loop traffic totals (zero for non-traffic scenarios).
  std::uint64_t traffic_offered = 0;
  std::uint64_t traffic_admitted = 0;
  std::uint64_t traffic_shed = 0;
  std::uint64_t traffic_completed = 0;
  // Hedge-race totals (zero for non-hedge scenarios).
  std::uint64_t hedges_fired = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedges_cancelled = 0;
  // Partition-surface totals (zero for non-partition scenarios).
  std::uint64_t partitions_started = 0;
  std::uint64_t partitions_healed = 0;
  std::uint64_t zone_outages = 0;
  std::uint64_t heartbeats_partition_dropped = 0;
  std::uint64_t stale_epoch_rejects = 0;
  std::uint64_t quorum_blocked_puts = 0;
  std::uint64_t zombie_commit_attempts = 0;
  std::uint64_t zombie_commits_rejected = 0;
  /// Human-readable oracle violations; empty = scenario passed.
  std::vector<std::string> violations;
};

/// Run one seeded scenario and evaluate every oracle.
ChaosOutcome run_chaos_scenario(std::uint64_t seed);

/// Run one seeded traffic scenario (burst + node failure) and evaluate
/// every oracle, conservation included.
ChaosOutcome run_traffic_chaos_scenario(std::uint64_t seed);

/// Run one seeded hedge scenario (racing clones + mid-race node failure)
/// and evaluate every oracle, hedge exactly-once included.
ChaosOutcome run_hedge_chaos_scenario(std::uint64_t seed);

/// Run one seeded sharded scenario (4 partitions x 4 workers) and
/// evaluate every oracle per shard plus the merged scalars.
ChaosOutcome run_sharded_chaos_scenario(std::uint64_t seed);

/// Run one seeded partition scenario (zone cuts + asymmetric windows +
/// correlated outages) and evaluate every oracle, no-split-brain and
/// heal-convergence included.
ChaosOutcome run_partition_chaos_scenario(std::uint64_t seed);

/// Run one seeded sharded partition scenario (4 partitions x 4 workers).
ChaosOutcome run_sharded_partition_chaos_scenario(std::uint64_t seed);

/// Oracle evaluation, separated for tests: checks `result` (and the
/// scenario it came from) and returns the violations. For sharded
/// results, recurses into each per-partition result (violations gain a
/// "shard N: " prefix) before checking the merged scalars.
std::vector<std::string> chaos_oracles(const ChaosScenario& scenario,
                                       const RunResult& result);

}  // namespace canary::harness
