// Unit tests for the cluster substrate: nodes, topology, network model,
// and the storage hierarchy.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/network.hpp"
#include "cluster/storage.hpp"
#include "common/rng.hpp"

namespace canary::cluster {
namespace {

// ---- node ------------------------------------------------------------

TEST(NodeTest, ReserveAndRelease) {
  Node node(NodeId{1}, NodeSpec{});
  EXPECT_TRUE(node.reserve(Bytes::gib(1)).ok());
  EXPECT_EQ(node.used_slots(), 1u);
  EXPECT_EQ(node.used_memory().count(), Bytes::gib(1).count());
  node.release(Bytes::gib(1));
  EXPECT_EQ(node.used_slots(), 0u);
  EXPECT_EQ(node.used_memory().count(), 0u);
}

TEST(NodeTest, SlotExhaustion) {
  NodeSpec spec;
  spec.container_slots = 2;
  Node node(NodeId{1}, spec);
  EXPECT_TRUE(node.reserve(Bytes::mib(1)).ok());
  EXPECT_TRUE(node.reserve(Bytes::mib(1)).ok());
  const Status third = node.reserve(Bytes::mib(1));
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.error().code, ErrorCode::kResourceExhausted);
}

TEST(NodeTest, MemoryExhaustion) {
  NodeSpec spec;
  spec.memory = Bytes::gib(4);
  Node node(NodeId{1}, spec);
  EXPECT_TRUE(node.reserve(Bytes::gib(3)).ok());
  EXPECT_FALSE(node.can_host(Bytes::gib(2)));
  EXPECT_FALSE(node.reserve(Bytes::gib(2)).ok());
  EXPECT_TRUE(node.reserve(Bytes::gib(1)).ok());
}

TEST(NodeTest, DeadNodeRefusesWork) {
  Node node(NodeId{1}, NodeSpec{});
  node.mark_failed();
  EXPECT_FALSE(node.alive());
  EXPECT_FALSE(node.can_host(Bytes::mib(1)));
  EXPECT_EQ(node.reserve(Bytes::mib(1)).error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(node.free_slots(), 0u);
}

TEST(NodeTest, HeterogeneousProfiles) {
  // Older hardware: slower and more failure-prone (paper §I).
  EXPECT_GT(speed_factor(CpuClass::kXeonGold6126),
            speed_factor(CpuClass::kXeonGold6240R));
  EXPECT_GT(failure_weight(CpuClass::kXeonGold6126),
            failure_weight(CpuClass::kXeonGold6240R));
}

// ---- cluster -----------------------------------------------------------

TEST(ClusterTest, TestbedShape) {
  const auto cluster = Cluster::testbed(16);
  EXPECT_EQ(cluster.size(), 16u);
  EXPECT_EQ(cluster.alive_count(), 16u);
  // Four nodes per rack.
  EXPECT_EQ(cluster.node(NodeId{1}).spec().rack, 0u);
  EXPECT_EQ(cluster.node(NodeId{5}).spec().rack, 1u);
  EXPECT_EQ(cluster.node(NodeId{16}).spec().rack, 3u);
  // Mixed CPU classes.
  EXPECT_NE(cluster.node(NodeId{1}).spec().cpu, cluster.node(NodeId{2}).spec().cpu);
}

TEST(ClusterTest, LeastLoadedPrefersIdleLowestId) {
  auto cluster = Cluster::testbed(4);
  ASSERT_TRUE(cluster.node(NodeId{1}).reserve(Bytes::mib(256)).ok());
  const auto pick = cluster.least_loaded(Bytes::mib(256));
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, NodeId{2});
}

TEST(ClusterTest, LeastLoadedSkipsDeadNodes) {
  auto cluster = Cluster::testbed(2);
  cluster.fail_node(NodeId{1});
  const auto pick = cluster.least_loaded(Bytes::mib(1));
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, NodeId{2});
}

TEST(ClusterTest, LeastLoadedExcluding) {
  auto cluster = Cluster::testbed(3);
  const auto pick =
      cluster.least_loaded_excluding(Bytes::mib(1), {NodeId{1}, NodeId{2}});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, NodeId{3});
  const auto none = cluster.least_loaded_excluding(
      Bytes::mib(1), {NodeId{1}, NodeId{2}, NodeId{3}});
  EXPECT_FALSE(none.has_value());
}

TEST(ClusterTest, SaturationReturnsNullopt) {
  std::vector<NodeSpec> specs(1);
  specs[0].container_slots = 1;
  Cluster cluster(std::move(specs));
  ASSERT_TRUE(cluster.node(NodeId{1}).reserve(Bytes::mib(1)).ok());
  EXPECT_FALSE(cluster.least_loaded(Bytes::mib(1)).has_value());
}

TEST(ClusterTest, AliveNodeIdsTracksFailures) {
  auto cluster = Cluster::testbed(4);
  cluster.fail_node(NodeId{2});
  const auto alive = cluster.alive_node_ids();
  EXPECT_EQ(alive.size(), 3u);
  EXPECT_EQ(cluster.alive_count(), 3u);
}

TEST(ClusterTest, WeightedRandomOnlyPicksAlive) {
  auto cluster = Cluster::testbed(4);
  cluster.fail_node(NodeId{1});
  cluster.fail_node(NodeId{2});
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto pick = cluster.weighted_random_alive(rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(*pick == NodeId{3} || *pick == NodeId{4});
  }
}

TEST(ClusterTest, WeightedRandomFavoursOldHardware) {
  auto cluster = Cluster::testbed(6);  // two of each CPU class
  Rng rng(17);
  int old_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto pick = cluster.weighted_random_alive(rng);
    ASSERT_TRUE(pick.has_value());
    if (cluster.node(*pick).spec().cpu == CpuClass::kXeonGold6126) ++old_hits;
  }
  // 6126 weight 1.45 of total (1.45+0.85+1.0)*2 => expected ~0.439.
  EXPECT_NEAR(static_cast<double>(old_hits) / n, 1.45 / 3.30, 0.02);
}

TEST(ClusterTest, WeightedRandomEmptyWhenAllDead) {
  auto cluster = Cluster::testbed(2);
  cluster.fail_node(NodeId{1});
  cluster.fail_node(NodeId{2});
  Rng rng(1);
  EXPECT_FALSE(cluster.weighted_random_alive(rng).has_value());
}

TEST(ClusterTest, RackDistance) {
  const auto cluster = Cluster::testbed(8);
  EXPECT_EQ(cluster.rack_distance(NodeId{1}, NodeId{2}), 0u);
  EXPECT_EQ(cluster.rack_distance(NodeId{1}, NodeId{5}), 1u);
}

TEST(ClusterDeathTest, UnknownNodeAborts) {
  const auto cluster = Cluster::testbed(2);
  EXPECT_DEATH((void)cluster.node(NodeId{99}), "unknown node id");
}

// ---- network ----------------------------------------------------------------

TEST(NetworkTest, LoopbackIsFree) {
  const auto cluster = Cluster::testbed(4);
  NetworkModel net(&cluster, {});
  EXPECT_EQ(net.latency(NodeId{1}, NodeId{1}), Duration::zero());
  EXPECT_EQ(net.transfer_time(NodeId{2}, NodeId{2}, Bytes::gib(1)),
            Duration::zero());
}

TEST(NetworkTest, CrossRackCostsMore) {
  const auto cluster = Cluster::testbed(8);
  NetworkModel net(&cluster, {});
  EXPECT_LT(net.latency(NodeId{1}, NodeId{2}), net.latency(NodeId{1}, NodeId{5}));
}

TEST(NetworkTest, TransferTimeScalesWithPayload) {
  const auto cluster = Cluster::testbed(4);
  NetworkModel net(&cluster, {});
  const auto small = net.transfer_time(NodeId{1}, NodeId{2}, Bytes::mib(10));
  const auto large = net.transfer_time(NodeId{1}, NodeId{2}, Bytes::mib(100));
  EXPECT_GT(large, small);
  // 110 MiB at 1100 MiB/s ~ 0.1 s plus latency.
  EXPECT_NEAR(net.transfer_time(NodeId{1}, NodeId{2}, Bytes::mib(110)).to_seconds(),
              0.1, 0.01);
}

TEST(NetworkTest, CongestionSharesBandwidthWithFloor) {
  const auto cluster = Cluster::testbed(4);
  NetworkModel net(&cluster, {});
  const auto alone = net.transfer_time(NodeId{1}, NodeId{2}, Bytes::mib(100), 1);
  const auto shared = net.transfer_time(NodeId{1}, NodeId{2}, Bytes::mib(100), 2);
  const auto mobbed = net.transfer_time(NodeId{1}, NodeId{2}, Bytes::mib(100), 100);
  EXPECT_GT(shared, alone);
  EXPECT_GT(mobbed, shared);
  // The floor caps the slowdown at 1/congestion_floor.
  EXPECT_LT(mobbed.to_seconds(), alone.to_seconds() / 0.35 + 0.01);
}

// ---- storage -----------------------------------------------------------------

TEST(StorageTest, TestbedHasExpectedTiers) {
  const auto storage = StorageHierarchy::testbed();
  EXPECT_TRUE(storage.has_tier(StorageTier::kKvStore));
  EXPECT_TRUE(storage.has_tier(StorageTier::kRamdisk));
  EXPECT_TRUE(storage.has_tier(StorageTier::kPmem));
  EXPECT_TRUE(storage.has_tier(StorageTier::kNfs));
  EXPECT_FALSE(storage.has_tier(StorageTier::kExternal));
}

TEST(StorageTest, SpillPrefersFastTiers) {
  const auto storage = StorageHierarchy::testbed();
  const auto tier = storage.spill_tier_for(Bytes::mib(100));
  ASSERT_TRUE(tier.has_value());
  EXPECT_EQ(*tier, StorageTier::kRamdisk);
}

TEST(StorageTest, SpillFallsBackForHugePayloads) {
  const auto storage = StorageHierarchy::testbed();
  const auto tier = storage.spill_tier_for(Bytes::gib(64));
  ASSERT_TRUE(tier.has_value());
  EXPECT_EQ(*tier, StorageTier::kPmem);
  const auto huge = storage.spill_tier_for(Bytes::gib(512));
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(*huge, StorageTier::kNfs);
}

TEST(StorageTest, WriteTimeScalesWithPayload) {
  const auto storage = StorageHierarchy::testbed();
  const auto small = storage.write_time(StorageTier::kNfs, Bytes::mib(10));
  const auto large = storage.write_time(StorageTier::kNfs, Bytes::mib(100));
  EXPECT_GT(large, small);
  // NFS at 110 MiB/s: 110 MiB ~ 1s.
  EXPECT_NEAR(storage.write_time(StorageTier::kNfs, Bytes::mib(110)).to_seconds(),
              1.0, 0.05);
}

TEST(StorageTest, RamdiskFasterThanNfs) {
  const auto storage = StorageHierarchy::testbed();
  EXPECT_LT(storage.write_time(StorageTier::kRamdisk, Bytes::mib(100)),
            storage.write_time(StorageTier::kNfs, Bytes::mib(100)));
  EXPECT_LT(storage.read_time(StorageTier::kPmem, Bytes::mib(100)),
            storage.read_time(StorageTier::kNfs, Bytes::mib(100)));
}

TEST(StorageDeathTest, MissingTierAborts) {
  const auto storage = StorageHierarchy::testbed();
  EXPECT_DEATH((void)storage.profile(StorageTier::kExternal),
               "storage tier not configured");
}

}  // namespace
}  // namespace canary::cluster
