// Unit tests for the Replication Module (Algorithm 2) and the Runtime
// Manager Module.
#include <gtest/gtest.h>

#include <optional>

#include "canary/replication.hpp"
#include "canary/runtime_manager.hpp"
#include "cluster/network.hpp"
#include "faas/retry.hpp"

namespace canary::core {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  std::uint32_t rack = 0;
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cpu = cluster::CpuClass::kXeonGold6242;
    specs[i].rack = rack;
    if (i % 4 == 3) ++rack;
  }
  return specs;
}

faas::FunctionSpec probe(faas::RuntimeImage image) {
  faas::FunctionSpec fn;
  fn.name = "probe";
  fn.runtime = image;
  fn.states = faas::StateTable(1, {Duration::sec(5.0), {}});
  return fn;
}

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : cluster_(uniform_nodes(8)),
        network_(&cluster_, {}),
        platform_(sim_, cluster_, network_, make_platform_config(), metrics_),
        retry_(platform_),
        manager_(platform_) {
    platform_.set_recovery_handler(&retry_);
  }

  static faas::PlatformConfig make_platform_config() {
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    return config;
  }

  ReplicationModule make_module(ReplicationConfig config = {}) {
    return ReplicationModule(platform_, manager_, metrics_, config);
  }

  /// Launch a real Python replica container on `node` and register it; it
  /// is pending until the simulator runs it to Warm.
  ContainerId launch_replica(NodeId node) {
    const auto launched = platform_.launch_warm_container(
        node, faas::RuntimeImage::kPython3,
        faas::ContainerPurpose::kRuntimeReplica);
    EXPECT_TRUE(launched.ok());
    manager_.register_replica(faas::RuntimeImage::kPython3, launched.value());
    return launched.value();
  }

  NodeId node_of(std::optional<ContainerId> container) const {
    return platform_.container(container.value()).node;
  }

  JobId submit(faas::RuntimeImage image, std::size_t count) {
    faas::JobSpec job;
    job.name = "job";
    for (std::size_t i = 0; i < count; ++i) job.functions.push_back(probe(image));
    auto result = platform_.submit_job(std::move(job));
    EXPECT_TRUE(result.ok());
    return result.value();
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  faas::Platform platform_;
  faas::RetryHandler retry_;
  RuntimeManagerModule manager_;
};

// ---- runtime manager -----------------------------------------------------

TEST_F(ReplicationTest, RuntimeManagerLifecycle) {
  const auto image = faas::RuntimeImage::kPython3;
  const ContainerId replica = launch_replica(NodeId{1});
  EXPECT_EQ(manager_.pending_count(image), 1u);
  EXPECT_EQ(manager_.active_count(image), 0u);
  EXPECT_EQ(manager_.replica_nodes(image), std::vector<NodeId>{NodeId{1}});
  sim_.run();  // launch + init: the container turns Warm
  EXPECT_EQ(manager_.pending_count(image), 0u);
  EXPECT_EQ(manager_.active_count(image), 1u);
  // Destroyed while unclaimed: forgotten once, and no longer counted.
  platform_.destroy_warm_container(replica);
  EXPECT_TRUE(manager_.forget(image, replica));
  EXPECT_FALSE(manager_.forget(image, replica));
  EXPECT_EQ(manager_.active_count(image), 0u);
  EXPECT_TRUE(manager_.replica_nodes(image).empty());
}

TEST_F(ReplicationTest, AcquirePrefersLocality) {
  launch_replica(NodeId{5});  // rack 1
  launch_replica(NodeId{2});  // rack 0, same rack as prefer
  launch_replica(NodeId{1});  // exact preferred node
  sim_.run();

  const auto picked = manager_.acquire(faas::RuntimeImage::kPython3, NodeId{1});
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(node_of(picked), NodeId{1});
  // Claimed replicas are not offered again, even while still Warm.
  EXPECT_TRUE(platform_.container(*picked).warm_idle());
  const auto second = manager_.acquire(faas::RuntimeImage::kPython3, NodeId{1});
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(node_of(second), NodeId{2});  // same rack beats other rack
  const auto third = manager_.acquire(faas::RuntimeImage::kPython3, NodeId{1});
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(node_of(third), NodeId{5});
  EXPECT_FALSE(
      manager_.acquire(faas::RuntimeImage::kPython3, NodeId{1}).has_value());
  EXPECT_EQ(manager_.active_count(faas::RuntimeImage::kPython3), 0u);
}

TEST_F(ReplicationTest, AcquireSkipsDeadNodes) {
  launch_replica(NodeId{3});
  sim_.run();
  cluster_.fail_node(NodeId{3});
  EXPECT_FALSE(
      manager_.acquire(faas::RuntimeImage::kPython3, std::nullopt).has_value());
}

TEST_F(ReplicationTest, RetireOnePicksNewest) {
  // A replica is as old as its container: launch real ones a second apart.
  launch_replica(NodeId{1});
  ContainerId newest;
  sim_.schedule_after(Duration::sec(1.0),
                      [&] { newest = launch_replica(NodeId{2}); });
  sim_.run();
  const auto retired = manager_.retire_one(faas::RuntimeImage::kPython3);
  ASSERT_TRUE(retired.has_value());
  EXPECT_EQ(*retired, newest);
  EXPECT_EQ(manager_.active_count(faas::RuntimeImage::kPython3), 1u);
}

// ---- replication targets ---------------------------------------------------

TEST_F(ReplicationTest, TargetZeroWhenIdleOrDisabled) {
  auto dr = make_module();
  EXPECT_EQ(dr.target_replicas(faas::RuntimeImage::kPython3), 0u);
  ReplicationConfig off;
  off.enabled = false;
  auto disabled = make_module(off);
  disabled.on_job_submitted(submit(faas::RuntimeImage::kPython3, 10));
  EXPECT_EQ(disabled.target_replicas(faas::RuntimeImage::kPython3), 0u);
}

TEST_F(ReplicationTest, LenientKeepsExactlyOne) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kLenient;
  auto module = make_module(config);
  module.on_job_submitted(submit(faas::RuntimeImage::kPython3, 40));
  EXPECT_EQ(module.target_replicas(faas::RuntimeImage::kPython3), 1u);
}

TEST_F(ReplicationTest, AggressiveScalesWithActiveFunctions) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kAggressive;
  config.aggressive_fraction = 0.25;
  auto module = make_module(config);
  module.on_job_submitted(submit(faas::RuntimeImage::kPython3, 40));
  EXPECT_EQ(module.target_replicas(faas::RuntimeImage::kPython3), 10u);
}

TEST_F(ReplicationTest, DynamicFollowsObservedFailureRate) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kDynamic;
  auto module = make_module(config);
  const JobId job = submit(faas::RuntimeImage::kPython3, 40);
  module.on_job_submitted(job);
  const auto before = module.target_replicas(faas::RuntimeImage::kPython3);
  EXPECT_GE(before, 1u);

  // Report many failures: the posterior rate and the target rise.
  faas::Invocation inv;
  const auto& spec = platform_.job_spec(job);
  inv.spec = &spec.functions.front();
  for (int i = 0; i < 20; ++i) module.on_failure_observed(inv);
  const auto after = module.target_replicas(faas::RuntimeImage::kPython3);
  EXPECT_GT(after, before);
  // Bounded by the cap fraction.
  EXPECT_LE(after, static_cast<unsigned>(40 * kDynamicCapFraction) + 1);
  EXPECT_GT(module.estimated_failure_rate(), 0.2);
}

TEST_F(ReplicationTest, ReconcileLaunchesAndPlacesAntiSpof) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kAggressive;
  config.aggressive_fraction = 0.25;
  auto module = make_module(config);
  module.on_job_submitted(submit(faas::RuntimeImage::kPython3, 12));
  // Target = 3; all should be launching on distinct nodes.
  EXPECT_EQ(manager_.pending_count(faas::RuntimeImage::kPython3), 3u);
  const auto nodes = manager_.replica_nodes(faas::RuntimeImage::kPython3);
  EXPECT_EQ(nodes.size(), 3u);  // deduplicated => all distinct
  sim_.run();
  EXPECT_GE(metrics_.counter("replicas_launched"), 3.0);
}

TEST_F(ReplicationTest, FurtherReplicaFollowsLiveFunctionRacks) {
  // Nodes 1-4 sit in rack 0, nodes 5-8 in rack 1. At fraction 1 the
  // aggressive target is one replica per submitted function, so each
  // submission below places exactly one more replica. Among free nodes
  // without a replica, placement picks the lowest id, unless a rack
  // hosts a started function.
  ReplicationConfig config;
  config.mode = ReplicationMode::kAggressive;
  config.aggressive_fraction = 1.0;
  auto module = make_module(config);
  const auto image = faas::RuntimeImage::kPython3;
  // Nothing runs the dispatch ticks, so every container is a replica and
  // the newest one has the highest id: one id per launch.
  auto newest_replica = [&] {
    const auto launched =
        static_cast<std::uint64_t>(metrics_.counter("replicas_launched"));
    return platform_.container(ContainerId{launched}).node;
  };

  const JobId job = submit(image, 1);
  faas::Invocation inv;
  inv.id = platform_.job_functions(job).front();
  inv.spec = &platform_.job_spec(job).functions.front();
  inv.node = NodeId{6};
  module.on_attempt_started(inv);
  module.on_job_submitted(job);
  EXPECT_EQ(newest_replica(), NodeId{6});  // first replica joins it

  // The second replica prefers the started function's rack.
  module.on_job_submitted(submit(image, 1));
  EXPECT_EQ(newest_replica(), NodeId{5});

  // The next attempt starts in rack 0: the preference moves with it.
  inv.node = NodeId{2};
  module.on_attempt_started(inv);
  module.on_job_submitted(submit(image, 1));
  EXPECT_EQ(newest_replica(), NodeId{1});

  // And back to rack 1: rack 0 no longer counts.
  inv.node = NodeId{7};
  module.on_attempt_started(inv);
  module.on_job_submitted(submit(image, 1));
  EXPECT_EQ(newest_replica(), NodeId{7});

  // Once the function completes no rack is preferred.
  module.on_function_completed(inv);
  module.on_job_submitted(submit(image, 2));
  EXPECT_EQ(newest_replica(), NodeId{2});
  EXPECT_EQ(metrics_.counter("replicas_launched"), 5.0);
}

TEST_F(ReplicationTest, CompletionRetiresExcessReplicas) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kAggressive;
  config.aggressive_fraction = 0.5;
  auto module = make_module(config);
  const JobId job = submit(faas::RuntimeImage::kPython3, 4);
  module.on_job_submitted(job);  // target 2
  sim_.run_until(TimePoint::origin() + Duration::sec(2.0));  // replicas warm
  ASSERT_EQ(manager_.active_count(faas::RuntimeImage::kPython3), 2u);

  // Complete all functions: targets drop to zero and replicas retire.
  for (const auto fid : platform_.job_functions(job)) {
    module.on_function_completed(platform_.invocation(fid));
  }
  EXPECT_EQ(manager_.active_count(faas::RuntimeImage::kPython3), 0u);
  EXPECT_GE(metrics_.counter("replicas_retired"), 2.0);
}

TEST_F(ReplicationTest, ConsumedReplicaIsReplaced) {
  ReplicationConfig config;
  config.mode = ReplicationMode::kLenient;
  auto module = make_module(config);
  module.on_job_submitted(submit(faas::RuntimeImage::kPython3, 4));
  sim_.run_until(TimePoint::origin() + Duration::sec(2.0));
  ASSERT_EQ(manager_.active_count(faas::RuntimeImage::kPython3), 1u);

  const auto acquired =
      manager_.acquire(faas::RuntimeImage::kPython3, std::nullopt);
  ASSERT_TRUE(acquired.has_value());
  module.on_replica_consumed(faas::RuntimeImage::kPython3);
  // A replacement replica is launching.
  EXPECT_EQ(manager_.pending_count(faas::RuntimeImage::kPython3), 1u);
}

}  // namespace
}  // namespace canary::core
