#include "canary/metadata.hpp"

#include <algorithm>

#include "common/result.hpp"

namespace canary::core {

void MetadataStore::upsert_worker(WorkerInfoRow row) {
  workers_[row.node] = std::move(row);
}

const WorkerInfoRow* MetadataStore::worker(NodeId node) const {
  auto it = workers_.find(node);
  return it == workers_.end() ? nullptr : &it->second;
}

void MetadataStore::insert_checkpoint(CheckpointInfoRow row) {
  auto& rows = checkpoints_[row.function].rows;
  for (const CheckpointInfoRow& existing : rows) {
    CANARY_CHECK(existing.checkpoint != row.checkpoint,
                 "duplicate checkpoint row");
  }
  const auto at = std::upper_bound(
      rows.begin(), rows.end(), row.state_index,
      [](std::size_t state, const CheckpointInfoRow& r) {
        return state < r.state_index;
      });
  rows.insert(at, std::move(row));
}

void MetadataStore::remove_checkpoint(FunctionId fn, CheckpointId id) {
  auto it = checkpoints_.find(fn);
  if (it == checkpoints_.end()) return;
  auto& rows = it->second.rows;
  auto row = std::find_if(rows.begin(), rows.end(),
                          [id](const CheckpointInfoRow& r) {
                            return r.checkpoint == id;
                          });
  if (row != rows.end()) rows.erase(row);
}

CheckpointInfoRow* MetadataStore::mutable_checkpoint(FunctionId fn,
                                                     CheckpointId id) {
  auto it = checkpoints_.find(fn);
  if (it == checkpoints_.end()) return nullptr;
  for (CheckpointInfoRow& row : it->second.rows) {
    if (row.checkpoint == id) return &row;
  }
  return nullptr;
}

std::span<const CheckpointInfoRow> MetadataStore::checkpoints_of(
    FunctionId fn) const {
  auto it = checkpoints_.find(fn);
  if (it == checkpoints_.end()) return {};
  return it->second.rows;
}

void MetadataStore::remove_checkpoints_of(FunctionId fn) {
  checkpoints_.erase(fn);
}

unsigned MetadataStore::checkpoint_retention(FunctionId fn) const {
  auto it = checkpoints_.find(fn);
  return it == checkpoints_.end() ? 0 : it->second.retention;
}

void MetadataStore::set_checkpoint_retention(FunctionId fn,
                                             unsigned retention) {
  FunctionCheckpoints& entry = checkpoints_[fn];
  entry.retention = retention;
  // Room for the bound plus the one row an insert adds before eviction.
  entry.rows.reserve(retention + 1);
}

void MetadataStore::insert_replica(ReplicationInfoRow row) {
  auto& by_image = replicas_by_image_[row.runtime];
  const auto at = std::lower_bound(
      by_image.begin(), by_image.end(), row.replica,
      [](const ReplicationInfoRow* r, ReplicaId id) { return r->replica < id; });
  CANARY_CHECK(at == by_image.end() || (*at)->replica != row.replica,
               "duplicate replica row");
  ReplicationInfoRow& stored = replicas_.emplace_back();
  stored = std::move(row);
  by_image.insert(at, &stored);
  replica_by_container_[stored.container] = &stored;
}

ReplicationInfoRow* MetadataStore::replica_by_container(ContainerId id) {
  auto it = replica_by_container_.find(id);
  if (it == replica_by_container_.end()) return nullptr;
  ReplicationInfoRow* row = it->second;
  return row->status == ReplicaStatus::kDead ? nullptr : row;
}

std::span<ReplicationInfoRow* const> MetadataStore::replicas_of(
    faas::RuntimeImage image) {
  auto it = replicas_by_image_.find(image);
  if (it == replicas_by_image_.end()) return {};
  return it->second;
}

}  // namespace canary::core
