#include "canary/runtime_manager.hpp"

#include <algorithm>

namespace canary::core {

ReplicaId RuntimeManagerModule::register_replica(faas::RuntimeImage image,
                                                 NodeId node,
                                                 ContainerId container) {
  ReplicationInfoRow row;
  row.replica = ids_.next();
  row.runtime = image;
  row.worker = node;
  row.container = container;
  row.status = ReplicaStatus::kLaunching;
  const ReplicaId id = row.replica;
  metadata_.insert_replica(std::move(row));
  return id;
}

void RuntimeManagerModule::mark_active(ContainerId container) {
  auto* row = metadata_.replica_by_container(container);
  if (row != nullptr && row->status == ReplicaStatus::kLaunching) {
    row->status = ReplicaStatus::kActive;
  }
}

void RuntimeManagerModule::mark_dead(ContainerId container) {
  auto* row = metadata_.replica_by_container(container);
  if (row != nullptr && row->status != ReplicaStatus::kConsumed) {
    row->status = ReplicaStatus::kDead;
  }
}

std::optional<ReplicationInfoRow> RuntimeManagerModule::acquire(
    faas::RuntimeImage image, std::optional<NodeId> prefer,
    std::optional<NodeId> avoid, std::optional<std::uint32_t> avoid_zone) {
  ReplicationInfoRow* best = nullptr;
  int best_score = 0;
  for (ReplicationInfoRow* row : metadata_.replicas_of(image)) {
    if (row->status != ReplicaStatus::kActive) continue;
    if (!cluster_.node(row->worker).alive()) continue;
    if (avoid && row->worker == *avoid) continue;
    // Locality score: same node beats same rack beats anywhere. A replica
    // inside the avoided fault domain is pushed below every outside
    // candidate (the whole zone may be about to go) but stays eligible.
    int score = 1;
    if (prefer && cluster_.contains(*prefer)) {
      if (row->worker == *prefer) {
        score = 3;
      } else if (cluster_.rack_distance(row->worker, *prefer) == 0) {
        score = 2;
      }
    }
    if (avoid_zone && cluster_.zone_of(row->worker) == *avoid_zone) {
      score -= 100;
    }
    if (best == nullptr || score > best_score) {
      best = row;
      best_score = score;
    }
  }
  if (best == nullptr) return std::nullopt;
  best->status = ReplicaStatus::kConsumed;
  return *best;
}

std::size_t RuntimeManagerModule::active_count(
    faas::RuntimeImage image) const {
  std::size_t count = 0;
  for (const ReplicationInfoRow* row : metadata_.replicas_of(image)) {
    if (row->status == ReplicaStatus::kActive) ++count;
  }
  return count;
}

std::size_t RuntimeManagerModule::pending_count(
    faas::RuntimeImage image) const {
  std::size_t count = 0;
  for (const ReplicationInfoRow* row : metadata_.replicas_of(image)) {
    if (row->status == ReplicaStatus::kLaunching) ++count;
  }
  return count;
}

std::vector<NodeId> RuntimeManagerModule::replica_nodes(
    faas::RuntimeImage image) const {
  std::vector<NodeId> nodes;
  for (const ReplicationInfoRow* row : metadata_.replicas_of(image)) {
    if (row->status == ReplicaStatus::kActive ||
        row->status == ReplicaStatus::kLaunching) {
      nodes.push_back(row->worker);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

std::optional<ReplicationInfoRow> RuntimeManagerModule::promise_launching(
    faas::RuntimeImage image, Duration min_age) {
  ReplicationInfoRow* best = nullptr;
  TimePoint best_created;
  const TimePoint now = platform_.simulator().now();
  for (ReplicationInfoRow* row : metadata_.replicas_of(image)) {
    if (row->status != ReplicaStatus::kLaunching) continue;
    if (!cluster_.node(row->worker).alive()) continue;
    const TimePoint created = platform_.container(row->container).created;
    if (now - created < min_age) continue;
    // Oldest launching replica = closest to warm = shortest wait.
    if (best == nullptr || created < best_created) {
      best = row;
      best_created = created;
    }
  }
  if (best == nullptr) return std::nullopt;
  best->status = ReplicaStatus::kConsumed;
  return *best;
}

std::optional<ContainerId> RuntimeManagerModule::retire_one(
    faas::RuntimeImage image) {
  ReplicationInfoRow* newest = nullptr;
  TimePoint newest_created;
  for (ReplicationInfoRow* row : metadata_.replicas_of(image)) {
    if (row->status != ReplicaStatus::kActive) continue;
    const TimePoint created = platform_.container(row->container).created;
    if (newest == nullptr || created > newest_created) {
      newest = row;
      newest_created = created;
    }
  }
  if (newest == nullptr) return std::nullopt;
  newest->status = ReplicaStatus::kDead;
  return newest->container;
}

}  // namespace canary::core
