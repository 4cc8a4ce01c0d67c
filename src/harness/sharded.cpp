// Sharded scenario execution: each partition is an ordinary monolithic
// scenario over its slice of the config. run_sharded splits the config,
// fans the partitions out over worker threads and merges the results in
// partition order.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/fan_out.hpp"
#include "harness/scenario_internal.hpp"

namespace canary::harness::internal {
namespace {

template <typename T>
std::vector<T> round_robin_slice(const std::vector<T>& all, unsigned partition,
                                 unsigned partitions) {
  std::vector<T> slice;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % partitions == partition) slice.push_back(all[i]);
  }
  return slice;
}

std::optional<NodeId> remap_node(std::optional<NodeId> node,
                                 std::size_t part_nodes) {
  if (!node.has_value() || !node->valid()) return node;
  // Testbed node ids are 1..n per partition; fold the original id into
  // the partition's smaller range so the fault still lands on a node.
  return NodeId(((node->value() - 1) % part_nodes) + 1);
}

}  // namespace

ScenarioConfig derive_partition_config(const ScenarioConfig& config,
                                       unsigned partition,
                                       unsigned partitions) {
  ScenarioConfig part = config;
  part.sharding = {};  // each partition runs the monolithic wiring

  // Split the cluster into near-equal node groups, never below one node.
  std::size_t nodes = config.cluster_nodes / partitions +
                      (partition < config.cluster_nodes % partitions ? 1 : 0);
  if (nodes == 0) nodes = 1;
  part.cluster_nodes = nodes;

  // Decorrelate partition RNG streams while keeping the whole run a pure
  // function of (config, partition count).
  std::uint64_t sm =
      config.seed + (static_cast<std::uint64_t>(partition) + 1) *
                        0x9E3779B97F4A7C15ull;
  part.seed = splitmix64(sm);

  // Faults are dealt round-robin so every family keeps coverage at any
  // partition count; node-targeted faults fold into the local id range.
  part.node_failure_offsets =
      round_robin_slice(config.node_failure_offsets, partition, partitions);
  part.correlated_node_failures = round_robin_slice(
      config.correlated_node_failures, partition, partitions);
  part.gray_failures =
      round_robin_slice(config.gray_failures, partition, partitions);
  for (auto& gray : part.gray_failures) {
    gray.node = remap_node(gray.node, nodes);
  }
  part.heartbeat_faults =
      round_robin_slice(config.heartbeat_faults, partition, partitions);
  for (auto& fault : part.heartbeat_faults) {
    fault.node = remap_node(fault.node, nodes);
  }
  part.store_faults =
      round_robin_slice(config.store_faults, partition, partitions);
  // Partition windows and zone outages are dealt like every other fault
  // family. Explicit node sets fold into the local id range; zone-scoped
  // faults resolve membership at fire time against the partition's own
  // cluster slice (a zone absent from the slice makes the window/outage a
  // counted no-op, so merged fault totals stay partition-count
  // invariant).
  part.partitions = round_robin_slice(config.partitions, partition, partitions);
  for (auto& window : part.partitions) {
    for (auto& from : window.from) {
      from = *remap_node(from, nodes);
    }
    for (auto& to : window.to) {
      to = *remap_node(to, nodes);
    }
  }
  part.zone_outages =
      round_robin_slice(config.zone_outages, partition, partitions);

  // Traffic streams are whole-stream partitioned: a stream's arrival
  // process, admission class, and latency accounting stay together.
  part.traffic.streams =
      round_robin_slice(config.traffic.streams, partition, partitions);

  return part;
}

RunResult merge_sharded_results(
    std::vector<std::shared_ptr<RunResult>> parts) {
  RunResult merged;
  if (parts.empty()) return merged;
  merged.completed = true;
  for (const std::shared_ptr<RunResult>& sp : parts) {
    const RunResult& r = *sp;
    merged.completed = merged.completed && r.completed;
    merged.makespan_s = std::max(merged.makespan_s, r.makespan_s);
    merged.total_recovery_s += r.total_recovery_s;
    merged.lost_work_s += r.lost_work_s;
    merged.failures += r.failures;
    merged.cost.total_usd += r.cost.total_usd;
    merged.cost.function_usd += r.cost.function_usd;
    merged.cost.replica_usd += r.cost.replica_usd;
    merged.cost.rr_usd += r.cost.rr_usd;
    merged.cost.standby_usd += r.cost.standby_usd;
    merged.sla_violations += r.sla_violations;
    merged.sla_jobs += r.sla_jobs;
    merged.simulated_events += r.simulated_events;
    merged.metrics.merge(r.metrics);
    merged.breakdown.merge(r.breakdown);
    obs::merge(merged.attribution, r.attribution);
    merged.spans_recorded += r.spans_recorded;
    merged.spans_dropped += r.spans_dropped;
    merged.events_recorded += r.events_recorded;
    merged.events_dropped += r.events_dropped;
    for (const auto& [kind, dropped] : r.events_dropped_by_kind) {
      merged.events_dropped_by_kind[kind] += dropped;
    }
    merged.usage_records += r.usage_records;
    merged.usage_unbalanced += r.usage_unbalanced;
    merged.usage_gb_seconds += r.usage_gb_seconds;
    merged.undetected_failures += r.undetected_failures;
    merged.injected += r.injected;
    merged.partitions_active_end += r.partitions_active_end;
    merged.kv_stale_epoch_rejects += r.kv_stale_epoch_rejects;
    merged.kv_quorum_blocked_puts += r.kv_quorum_blocked_puts;
    merged.confirmed_workers_fenced =
        merged.confirmed_workers_fenced && r.confirmed_workers_fenced;
  }
  merged.counters = merged.metrics.counters();
  merged.cost_usd = merged.cost.total_usd;
  const double recoveries = merged.metrics.counter("recoveries");
  merged.mean_recovery_s =
      recoveries > 0.0 ? merged.total_recovery_s / recoveries : 0.0;
  // Spans/events stay per-shard (trace and function ids are
  // partition-local); consumers walk `shards` for them.
  merged.shards = std::move(parts);
  return merged;
}

RunResult run_sharded(const ScenarioConfig& config,
                      const std::vector<faas::JobSpec>& jobs) {
  const unsigned partitions = config.sharding.partitions;
  return merge_sharded_results(fan_out(
      partitions, std::max(config.sharding.workers, 1u), [&](std::size_t p) {
        const auto partition = static_cast<unsigned>(p);
        return std::make_shared<RunResult>(ScenarioRunner::run(
            derive_partition_config(config, partition, partitions),
            round_robin_slice(jobs, partition, partitions)));
      }));
}

}  // namespace canary::harness::internal
