// Unit tests for the Checkpointing Module (Algorithm 1).
#include <gtest/gtest.h>

#include <optional>

#include "canary/checkpointing.hpp"
#include "cluster/network.hpp"

namespace canary::core {
namespace {

faas::FunctionSpec spec_with_payload(Bytes payload, std::size_t states = 4,
                                     Duration dur = Duration::sec(3.0)) {
  faas::FunctionSpec fn;
  fn.name = "fn";
  fn.states = faas::StateTable(states, {dur, payload});
  return fn;
}

class CheckpointingTest : public ::testing::Test {
 protected:
  CheckpointingTest()
      : cluster_(cluster::Cluster::testbed(4)),
        network_(&cluster_, {}),
        storage_(cluster::StorageHierarchy::testbed()),
        store_(kv::KvConfig{}, cluster_.node_ids()) {}

  CheckpointingModule make_module(CheckpointingConfig config = {}) {
    return CheckpointingModule(sim_, cluster_, storage_, network_, store_,
                               metrics_, config);
  }

  faas::Invocation invocation_for(const faas::FunctionSpec& spec,
                                  std::uint64_t id = 1,
                                  NodeId node = NodeId{1}) {
    faas::Invocation inv;
    inv.id = FunctionId{id};
    inv.job = JobId{1};
    inv.spec = &spec;
    inv.node = node;
    return inv;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  cluster::StorageHierarchy storage_;
  kv::KvStore store_;
  obs::MetricRegistry metrics_;
};

TEST_F(CheckpointingTest, DisabledModuleIsFree) {
  CheckpointingConfig config;
  config.enabled = false;
  auto module = make_module(config);
  const auto spec = spec_with_payload(Bytes::mib(1));
  const auto inv = invocation_for(spec);
  EXPECT_EQ(module.state_epilogue(inv, 0), Duration::zero());
  module.on_state_committed(inv, 0);
  EXPECT_EQ(store_.keys_with_prefix("").size(), 0u);
  const auto plan = module.restore_plan(inv.id, NodeId{1});
  EXPECT_EQ(plan.from_state, 0u);
  EXPECT_FALSE(plan.checkpoint.has_value());
}

TEST_F(CheckpointingTest, SmallPayloadWritesToKv) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(1));
  const auto inv = invocation_for(spec);
  // KV write: 0.5ms latency + 1 MiB at 900 MiB/s.
  const auto epilogue = module.state_epilogue(inv, 0);
  EXPECT_NEAR(epilogue.to_seconds(), 0.0005 + 1.0 / 900.0, 1e-6);

  module.on_state_committed(inv, 0);
  EXPECT_EQ(store_.keys_with_prefix("").size(), 1u);
  EXPECT_TRUE(store_.contains(CheckpointingModule::kv_key(inv.id, 0)));
  const auto rows = module.checkpoints_of(inv.id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().location, cluster::StorageTier::kKvStore);
  EXPECT_TRUE(rows.front().flushed_to_shared);
}

TEST_F(CheckpointingTest, OversizedPayloadSpills) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(98));  // > 4 MiB KV limit
  const auto inv = invocation_for(spec);
  // Spill: ramdisk write + KV metadata write.
  const double ramdisk = 30e-6 + 98.0 / 4000.0;
  const double kv_meta = 0.0005 + (512.0 / (1024 * 1024)) / 900.0;
  EXPECT_NEAR(module.state_epilogue(inv, 0).to_seconds(), ramdisk + kv_meta,
              1e-6);

  module.on_state_committed(inv, 0);
  const auto rows = module.checkpoints_of(inv.id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.front().location, cluster::StorageTier::kRamdisk);
  EXPECT_FALSE(rows.front().flushed_to_shared);  // async flush pending
  EXPECT_EQ(rows.front().stored_on, NodeId{1});
  EXPECT_EQ(metrics_.counter("checkpoint_spills"), 1.0);
  // The KV store holds only the location record.
  const auto entry = store_.get(CheckpointingModule::kv_key(inv.id, 0));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value().logical_size.count(), 512u);

  // After the async flush completes the spilled checkpoint is shared.
  sim_.run();
  EXPECT_TRUE(module.checkpoints_of(inv.id).front().flushed_to_shared);
}

TEST_F(CheckpointingTest, ZeroPayloadStillRecordsState) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::zero());
  const auto inv = invocation_for(spec);
  EXPECT_GT(module.state_epilogue(inv, 0), Duration::zero());
  module.on_state_committed(inv, 0);
  EXPECT_EQ(module.checkpoints_of(inv.id).size(), 1u);
}

TEST_F(CheckpointingTest, RetentionKeepsLatestN) {
  auto module = make_module();
  // Slow states (3s) => retention 3 (the paper's initial n).
  const auto spec = spec_with_payload(Bytes::mib(1), /*states=*/6);
  EXPECT_EQ(module.retention_for(spec), 3u);
  const auto inv = invocation_for(spec);
  for (std::size_t i = 0; i < 6; ++i) module.on_state_committed(inv, i);
  const auto rows = module.checkpoints_of(inv.id);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().state_index, 3u);
  EXPECT_EQ(rows.back().state_index, 5u);
  // Evicted KV keys are gone, retained ones remain.
  EXPECT_FALSE(store_.contains(CheckpointingModule::kv_key(inv.id, 0)));
  EXPECT_TRUE(store_.contains(CheckpointingModule::kv_key(inv.id, 5)));
}

TEST_F(CheckpointingTest, EachFunctionKeepsItsOwnLatestN) {
  auto module = make_module();
  // One job, two functions: slow states keep 3, fast states keep 5.
  const auto slow = spec_with_payload(Bytes::kib(16), 8, Duration::sec(3.0));
  const auto fast = spec_with_payload(Bytes::kib(16), 8, Duration::msec(200));
  ASSERT_EQ(module.retention_for(slow), 3u);
  ASSERT_EQ(module.retention_for(fast), 5u);
  const auto a = invocation_for(slow, 1);
  const auto b = invocation_for(fast, 2);
  ASSERT_EQ(a.job, b.job);
  for (std::size_t i = 0; i < 8; ++i) {
    module.on_state_committed(a, i);
    module.on_state_committed(b, i);
  }
  const auto slow_rows = module.checkpoints_of(a.id);
  ASSERT_EQ(slow_rows.size(), 3u);
  EXPECT_EQ(slow_rows.front().state_index, 5u);
  const auto fast_rows = module.checkpoints_of(b.id);
  ASSERT_EQ(fast_rows.size(), 5u);
  EXPECT_EQ(fast_rows.front().state_index, 3u);
  EXPECT_FALSE(store_.contains(CheckpointingModule::kv_key(a.id, 4)));
  EXPECT_TRUE(store_.contains(CheckpointingModule::kv_key(b.id, 4)));
  EXPECT_EQ(store_.keys_with_prefix("").size(), 8u);
}

TEST_F(CheckpointingTest, DynamicRetentionAdapts) {
  auto module = make_module();
  // Oversized payloads: keep fewer.
  EXPECT_EQ(module.retention_for(spec_with_payload(Bytes::mib(98))), 2u);
  // Fast states: keep more.
  EXPECT_EQ(module.retention_for(
                spec_with_payload(Bytes::kib(16), 4, Duration::msec(200))),
            5u);
  // Medium cadence: initial + 1.
  EXPECT_EQ(module.retention_for(
                spec_with_payload(Bytes::kib(16), 4, Duration::sec(1.0))),
            4u);
  // Empty spec falls back to the initial value.
  faas::FunctionSpec empty;
  EXPECT_EQ(module.retention_for(empty), 3u);
}

TEST_F(CheckpointingTest, ExplicitModeShrinksPayload) {
  CheckpointingConfig config;
  config.explicit_payload_factor = 0.25;
  auto module = make_module(config);
  const auto spec = spec_with_payload(Bytes::mib(8));  // 8 MiB nominal
  const auto inv = invocation_for(spec);
  // 8 MiB * 0.25 = 2 MiB: fits the KV limit, no spill.
  module.on_state_committed(inv, 0);
  EXPECT_EQ(module.checkpoints_of(inv.id).front().location,
            cluster::StorageTier::kKvStore);
  EXPECT_EQ(metrics_.counter("checkpoint_spills"), 0.0);
}

TEST_F(CheckpointingTest, RestorePlanUsesLatest) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(1));
  const auto inv = invocation_for(spec);
  module.on_state_committed(inv, 0);
  module.on_state_committed(inv, 1);
  const auto plan = module.restore_plan(inv.id, NodeId{2});
  EXPECT_EQ(plan.from_state, 2u);
  EXPECT_TRUE(plan.checkpoint.has_value());
  EXPECT_GT(plan.restore_time, Duration::zero());
}

TEST_F(CheckpointingTest, RecommitReplacesRow) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(1));
  const auto inv = invocation_for(spec);
  module.on_state_committed(inv, 0);
  module.on_state_committed(inv, 0);  // re-executed after a restore
  EXPECT_EQ(module.checkpoints_of(inv.id).size(), 1u);
}

TEST_F(CheckpointingTest, UnflushedLocalCheckpointDiesWithNode) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(98), /*states=*/4);
  auto inv = invocation_for(spec, 1, NodeId{1});
  module.on_state_committed(inv, 0);
  sim_.run();  // flush checkpoint 0 to NFS
  module.on_state_committed(inv, 1);  // not yet flushed

  cluster_.fail_node(NodeId{1});
  const auto plan = module.restore_plan(inv.id, NodeId{2});
  // Checkpoint 1's only copy died unflushed; fall back to checkpoint 0,
  // which was flushed to shared storage.
  EXPECT_EQ(plan.from_state, 1u);
  EXPECT_TRUE(plan.checkpoint.has_value());
}

TEST_F(CheckpointingTest, AllCheckpointsLostRestartsFromScratch) {
  CheckpointingConfig config;
  config.async_flush_delay = Duration::sec(1000);  // flush never completes
  auto module = make_module(config);
  const auto spec = spec_with_payload(Bytes::mib(98));
  auto inv = invocation_for(spec, 1, NodeId{1});
  module.on_state_committed(inv, 0);
  cluster_.fail_node(NodeId{1});
  const auto plan = module.restore_plan(inv.id, NodeId{2});
  EXPECT_EQ(plan.from_state, 0u);
  EXPECT_FALSE(plan.checkpoint.has_value());
}

TEST_F(CheckpointingTest, CrossNodeRestorePaysTransfer) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(98));
  auto inv = invocation_for(spec, 1, NodeId{1});
  module.on_state_committed(inv, 0);
  const auto local = module.restore_plan(inv.id, NodeId{1});
  const auto remote = module.restore_plan(inv.id, NodeId{2});
  EXPECT_GT(remote.restore_time, local.restore_time);
}

TEST_F(CheckpointingTest, DropFunctionClearsEverything) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(1));
  const auto inv = invocation_for(spec);
  module.on_state_committed(inv, 0);
  module.on_state_committed(inv, 1);
  module.drop_function(inv.id);
  EXPECT_EQ(module.checkpoints_of(inv.id).size(), 0u);
  EXPECT_EQ(store_.keys_with_prefix("").size(), 0u);
  EXPECT_EQ(module.restore_plan(inv.id, NodeId{1}).from_state, 0u);
}

TEST_F(CheckpointingTest, OrderedByStateIndex) {
  auto module = make_module();
  // Fast states: retention 5 keeps every row below.
  const auto spec = spec_with_payload(Bytes::kib(16), 4, Duration::msec(200));
  const auto inv = invocation_for(spec, 7);
  for (const std::size_t idx : {2u, 0u, 1u}) module.on_state_committed(inv, idx);
  const auto rows = module.checkpoints_of(inv.id);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].state_index, 0u);
  EXPECT_EQ(rows[1].state_index, 1u);
  EXPECT_EQ(rows[2].state_index, 2u);
  EXPECT_TRUE(module.checkpoints_of(FunctionId{8}).empty());
}

TEST_F(CheckpointingTest, RemoveSingleAndAll) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(1), /*states=*/6);
  const auto inv = invocation_for(spec, 7);
  for (std::size_t i = 0; i < 3; ++i) module.on_state_committed(inv, i);
  const CheckpointId replaced = module.checkpoints_of(inv.id)[1].checkpoint;
  // A recommit replaces exactly its own row, under a new checkpoint id.
  module.on_state_committed(inv, 1);
  auto rows = module.checkpoints_of(inv.id);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].state_index, 1u);
  EXPECT_NE(rows[1].checkpoint, replaced);
  // Retention (3 for slow states) evicts exactly the oldest row.
  module.on_state_committed(inv, 3);
  rows = module.checkpoints_of(inv.id);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().state_index, 1u);
  EXPECT_FALSE(store_.contains(CheckpointingModule::kv_key(inv.id, 0)));
  // Dropping the function removes every row and key; an unknown function
  // is a no-op.
  module.drop_function(inv.id);
  EXPECT_TRUE(module.checkpoints_of(inv.id).empty());
  EXPECT_TRUE(store_.keys_with_prefix("").empty());
  module.drop_function(inv.id);
  module.drop_function(FunctionId{99});
}

TEST_F(CheckpointingTest, RetentionIsDroppedWithTheRows) {
  auto module = make_module();
  const auto slow = spec_with_payload(Bytes::kib(16), 8, Duration::sec(3.0));
  const auto fast = spec_with_payload(Bytes::kib(16), 8, Duration::msec(200));
  const auto a = invocation_for(slow, 7);
  const auto b = invocation_for(slow, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    module.on_state_committed(a, i);
    module.on_state_committed(b, i);
  }
  EXPECT_EQ(module.checkpoints_of(a.id).size(), 3u);
  // The bound is kept with the rows and dropped with them: the same id
  // committing again under another spec gets that spec's bound, while
  // function 8 keeps its own.
  module.drop_function(a.id);
  const auto again = invocation_for(fast, 7);
  for (std::size_t i = 0; i < 8; ++i) module.on_state_committed(again, i);
  EXPECT_EQ(module.checkpoints_of(a.id).size(), 5u);
  module.on_state_committed(b, 7);
  EXPECT_EQ(module.checkpoints_of(b.id).size(), 3u);
}

TEST_F(CheckpointingTest, EpilogueIsPure) {
  auto module = make_module();
  const auto spec = spec_with_payload(Bytes::mib(2));
  const auto inv = invocation_for(spec);
  const auto first = module.state_epilogue(inv, 1);
  module.on_state_committed(inv, 1);
  EXPECT_EQ(module.state_epilogue(inv, 1), first);
}

}  // namespace
}  // namespace canary::core
