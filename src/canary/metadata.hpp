// The Core Module's database tables (paper §IV-C1).
//
// "The five main tables created in the database are worker_info, job_info,
// function_info, checkpoint_info, and replication_info." The paper keeps
// them in CouchDB beside OpenWhisk. Here the platform is in-process and
// owns every job and function fact (JobSpec, submit time, Invocation), so
// only three tables remain, typed and in memory: worker_info (liveness),
// checkpoint_info and replication_info, with the lookups the Core Module
// performs during recovery (failed function -> runtime -> replica ->
// latest checkpoint). Those lookups run on every state commit and every
// recovery, so both are indexed on write: checkpoint_info by function and
// replication_info by image and by container.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/storage.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/slab.hpp"
#include "faas/runtime.hpp"

namespace canary::core {

/// A worker's liveness as the Core Module sees it. The node's hardware
/// (CPU, memory, slots, rack, zone) is read from cluster::NodeSpec.
struct WorkerInfoRow {
  NodeId node;
  /// The node is up and the failure detector has not confirmed it dead.
  /// The heartbeat lease itself lives in the detector.
  bool alive = true;
};

struct CheckpointInfoRow {
  CheckpointId checkpoint;
  FunctionId function;
  std::size_t state_index = 0;  // index of the committed state
  Bytes payload = Bytes::zero();
  cluster::StorageTier location = cluster::StorageTier::kKvStore;
  NodeId stored_on;  // hosting node for node-local tiers
  bool flushed_to_shared = false;
  std::string kv_key;
};

enum class ReplicaStatus { kLaunching, kActive, kConsumed, kDead };

struct ReplicationInfoRow {
  ReplicaId replica;
  faas::RuntimeImage runtime = faas::RuntimeImage::kPython3;
  NodeId worker;
  ContainerId container;
  ReplicaStatus status = ReplicaStatus::kLaunching;
};

class MetadataStore {
 public:
  // -- worker_info -------------------------------------------------------
  void upsert_worker(WorkerInfoRow row);
  const WorkerInfoRow* worker(NodeId node) const;
  std::size_t worker_count() const { return workers_.size(); }

  // -- checkpoint_info ---------------------------------------------------
  // Rows are stored per function and addressed by (function, checkpoint
  // id); each function's rows stay ordered by state index on insert.
  void insert_checkpoint(CheckpointInfoRow row);
  /// Unknown ids are a no-op.
  void remove_checkpoint(FunctionId fn, CheckpointId id);
  CheckpointInfoRow* mutable_checkpoint(FunctionId fn, CheckpointId id);
  /// Rows for `fn`, ordered oldest-first by state index. The view is
  /// invalidated by the next insert or remove for `fn`.
  std::span<const CheckpointInfoRow> checkpoints_of(FunctionId fn) const;
  std::size_t checkpoint_count(FunctionId fn) const {
    return checkpoints_of(fn).size();
  }
  void remove_checkpoints_of(FunctionId fn);
  /// Latest-n bound Algorithm 1 enforces on `fn`'s rows, kept with them
  /// (and dropped with them); 0 until set.
  unsigned checkpoint_retention(FunctionId fn) const;
  void set_checkpoint_retention(FunctionId fn, unsigned retention);

  // -- replication_info --------------------------------------------------
  void insert_replica(ReplicationInfoRow row);
  /// The live (not dead) row holding `id`, if any.
  ReplicationInfoRow* replica_by_container(ContainerId id);
  /// Every row ever inserted for `image`, dead ones included, in
  /// replica-id order. The view is invalidated by the next insert for
  /// `image`; the rows themselves never move.
  std::span<ReplicationInfoRow* const> replicas_of(faas::RuntimeImage image);

 private:
  struct FunctionCheckpoints {
    unsigned retention = 0;
    std::vector<CheckpointInfoRow> rows;
  };

  std::unordered_map<NodeId, WorkerInfoRow> workers_;
  std::unordered_map<FunctionId, FunctionCheckpoints> checkpoints_;
  /// Rows never move once appended, so the indexes hold plain pointers.
  StableSlab<ReplicationInfoRow> replicas_;
  std::unordered_map<faas::RuntimeImage, std::vector<ReplicationInfoRow*>>
      replicas_by_image_;
  std::unordered_map<ContainerId, ReplicationInfoRow*> replica_by_container_;
};

}  // namespace canary::core
