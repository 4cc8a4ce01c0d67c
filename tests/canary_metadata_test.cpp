// Unit tests for the Core Module's database tables (paper §IV-C1).
#include <gtest/gtest.h>

#include "canary/metadata.hpp"

namespace canary::core {
namespace {

TEST(MetadataWorkerTest, UpsertAndLookup) {
  MetadataStore db;
  WorkerInfoRow row;
  row.node = NodeId{3};
  db.upsert_worker(row);
  ASSERT_NE(db.worker(NodeId{3}), nullptr);
  EXPECT_TRUE(db.worker(NodeId{3})->alive);
  EXPECT_EQ(db.worker(NodeId{9}), nullptr);

  row.alive = false;
  db.upsert_worker(row);
  EXPECT_FALSE(db.worker(NodeId{3})->alive);
  EXPECT_EQ(db.worker_count(), 1u);
}

TEST(MetadataCheckpointTest, OrderedByStateIndex) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    CheckpointInfoRow row;
    row.checkpoint = CheckpointId{i};
    row.function = FunctionId{7};
    row.state_index = 3 - i;  // insert newest-first
    db.insert_checkpoint(row);
  }
  const auto rows = db.checkpoints_of(FunctionId{7});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().state_index, 0u);
  EXPECT_EQ(rows[1].state_index, 1u);
  EXPECT_EQ(rows.back().state_index, 2u);
  EXPECT_EQ(db.checkpoint_count(FunctionId{7}), 3u);
  EXPECT_TRUE(db.checkpoints_of(FunctionId{8}).empty());
}

TEST(MetadataCheckpointTest, RemoveSingleAndAll) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    CheckpointInfoRow row;
    row.checkpoint = CheckpointId{i};
    row.function = FunctionId{7};
    row.state_index = i;
    db.insert_checkpoint(row);
  }
  ASSERT_NE(db.mutable_checkpoint(FunctionId{7}, CheckpointId{2}), nullptr);
  db.remove_checkpoint(FunctionId{7}, CheckpointId{2});
  EXPECT_EQ(db.checkpoint_count(FunctionId{7}), 2u);
  EXPECT_EQ(db.mutable_checkpoint(FunctionId{7}, CheckpointId{2}), nullptr);
  // A row is addressed by (function, id): the right id under another
  // function finds nothing.
  EXPECT_EQ(db.mutable_checkpoint(FunctionId{8}, CheckpointId{3}), nullptr);
  db.remove_checkpoints_of(FunctionId{7});
  EXPECT_EQ(db.checkpoint_count(FunctionId{7}), 0u);
  EXPECT_TRUE(db.checkpoints_of(FunctionId{7}).empty());
  // Unknown ids are a no-op.
  db.remove_checkpoint(FunctionId{7}, CheckpointId{99});
  db.remove_checkpoint(FunctionId{99}, CheckpointId{1});
}

TEST(MetadataCheckpointTest, RetentionIsDroppedWithTheRows) {
  MetadataStore db;
  EXPECT_EQ(db.checkpoint_retention(FunctionId{7}), 0u);
  db.set_checkpoint_retention(FunctionId{7}, 4);
  db.set_checkpoint_retention(FunctionId{8}, 2);
  EXPECT_EQ(db.checkpoint_retention(FunctionId{7}), 4u);
  EXPECT_EQ(db.checkpoint_retention(FunctionId{8}), 2u);
  db.remove_checkpoints_of(FunctionId{7});
  EXPECT_EQ(db.checkpoint_retention(FunctionId{7}), 0u);
  EXPECT_EQ(db.checkpoint_retention(FunctionId{8}), 2u);
}

TEST(MetadataCheckpointDeathTest, DuplicateRowAborts) {
  MetadataStore db;
  CheckpointInfoRow row;
  row.checkpoint = CheckpointId{1};
  row.function = FunctionId{7};
  db.insert_checkpoint(row);
  row.state_index = 1;
  EXPECT_DEATH(db.insert_checkpoint(row), "duplicate checkpoint row");
}

TEST(MetadataReplicaTest, InsertAndQueryByImage) {
  MetadataStore db;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ReplicationInfoRow row;
    row.replica = ReplicaId{i};
    row.runtime =
        i == 3 ? faas::RuntimeImage::kJava8 : faas::RuntimeImage::kPython3;
    row.container = ContainerId{i * 10};
    db.insert_replica(row);
  }
  EXPECT_EQ(db.replicas_of(faas::RuntimeImage::kPython3).size(), 2u);
  EXPECT_EQ(db.replicas_of(faas::RuntimeImage::kJava8).size(), 1u);
  EXPECT_TRUE(db.replicas_of(faas::RuntimeImage::kNodeJs14).empty());

  // Replicas inserted out of id order come back in id order.
  for (const std::uint64_t id : {9u, 5u, 7u}) {
    ReplicationInfoRow row;
    row.replica = ReplicaId{id};
    row.runtime = faas::RuntimeImage::kNodeJs14;
    row.container = ContainerId{id * 10};
    db.insert_replica(row);
  }
  const auto rows = db.replicas_of(faas::RuntimeImage::kNodeJs14);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0]->replica, ReplicaId{5});
  EXPECT_EQ(rows[1]->replica, ReplicaId{7});
  EXPECT_EQ(rows[2]->replica, ReplicaId{9});
}

TEST(MetadataReplicaTest, LookupByContainerSkipsDead) {
  MetadataStore db;
  ReplicationInfoRow row;
  row.replica = ReplicaId{1};
  row.container = ContainerId{5};
  db.insert_replica(row);
  ReplicationInfoRow* live = db.replica_by_container(ContainerId{5});
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->replica, ReplicaId{1});
  // The view and the container index reach the same row.
  EXPECT_EQ(db.replicas_of(faas::RuntimeImage::kPython3).front(), live);
  live->status = ReplicaStatus::kDead;
  EXPECT_EQ(db.replica_by_container(ContainerId{5}), nullptr);
  EXPECT_EQ(db.replica_by_container(ContainerId{99}), nullptr);
}

}  // namespace
}  // namespace canary::core
