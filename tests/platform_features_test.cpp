// Tests for platform feature extensions: function timeouts, container
// reuse (warm pool), and checkpoint compression.
#include <gtest/gtest.h>

#include <optional>

#include "canary/checkpointing.hpp"
#include "cluster/network.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"

namespace canary {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

faas::FunctionSpec simple_fn(std::size_t states = 2,
                             Duration dur = Duration::sec(1.0)) {
  faas::FunctionSpec fn;
  fn.name = "f";
  fn.states = faas::StateTable(states, {dur, Bytes::zero()});
  fn.finalize = Duration::msec(100);
  return fn;
}

class FeatureTest : public ::testing::Test {
 protected:
  FeatureTest() : cluster_(uniform_nodes(2)), network_(&cluster_, {}) {}

  faas::Platform& make_platform(faas::PlatformConfig config = {}) {
    config.scheduler_overhead = Duration::zero();
    platform_.emplace(sim_, cluster_, network_, config, metrics_);
    retry_.emplace(*platform_);
    platform_->set_recovery_handler(&*retry_);
    return *platform_;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  std::optional<faas::Platform> platform_;
  std::optional<faas::RetryHandler> retry_;
};

// ---- timeouts ----------------------------------------------------------

TEST_F(FeatureTest, TimeoutKillsLongAttempt) {
  faas::PlatformConfig config;
  config.limits.function_timeout = Duration::sec(1.5);
  auto& p = make_platform(config);
  // 2x1s states + 0.8s cold start: the first attempt blows the 1.5s
  // timeout; retries keep timing out => the retry budget must stop it.
  retry_.emplace(p, faas::RetryHandler::Config{2});
  p.set_recovery_handler(&*retry_);
  faas::JobSpec job;
  job.functions.push_back(simple_fn());
  const auto id = p.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  EXPECT_GE(metrics_.counter("timeouts"), 1.0);
  EXPECT_FALSE(p.job_completed(id.value()));
  EXPECT_EQ(retry_->giveups(), 1);
}

TEST_F(FeatureTest, GenerousTimeoutNeverFires) {
  faas::PlatformConfig config;
  config.limits.function_timeout = Duration::sec(100.0);
  auto& p = make_platform(config);
  faas::JobSpec job;
  job.functions.push_back(simple_fn());
  const auto id = p.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  EXPECT_EQ(metrics_.counter("timeouts"), 0.0);
  EXPECT_TRUE(p.job_completed(id.value()));
}

TEST_F(FeatureTest, TimeoutDisabledByDefault) {
  auto& p = make_platform();
  faas::JobSpec job;
  job.functions.push_back(simple_fn(8, Duration::sec(100.0)));
  const auto id = p.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  EXPECT_TRUE(p.job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("timeouts"), 0.0);
}

// ---- container reuse -----------------------------------------------------

TEST_F(FeatureTest, ReuseSkipsColdStartForSecondWave) {
  faas::PlatformConfig config;
  config.reuse_containers = true;
  auto& p = make_platform(config);

  faas::JobSpec first;
  first.functions.push_back(simple_fn(1));
  const auto a = p.submit_job(first);
  ASSERT_TRUE(a.ok());

  // Second job arrives 3s in — first completes at ~1.9s, so its pooled
  // container is idle and inside the reuse window.
  std::optional<JobId> b;
  sim_.schedule_after(Duration::sec(3.0), [&] {
    EXPECT_EQ(p.warm_container_count(faas::RuntimeImage::kPython3), 1u);
    faas::JobSpec second;
    second.functions.push_back(simple_fn(1));
    auto submitted = p.submit_job(second);
    ASSERT_TRUE(submitted.ok());
    b = submitted.value();
  });
  sim_.run();

  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(p.job_completed(a.value()));
  ASSERT_TRUE(p.job_completed(*b));
  EXPECT_EQ(metrics_.counter("pool_reuses"), 1.0);
  EXPECT_EQ(metrics_.counter("cold_starts"), 1.0);  // only the first wave
  EXPECT_EQ(metrics_.counter("containers_pooled"), 2.0);
  // Second function: warm dispatch (8ms) + 1s state + 0.1s finalize,
  // starting from its 3s submission.
  EXPECT_EQ(p.job_completion_time(*b).count_usec(), 4'108'000);
}

TEST_F(FeatureTest, PooledContainerExpiresAfterIdleTimeout) {
  faas::PlatformConfig config;
  config.reuse_containers = true;
  config.warm_pool_idle_timeout = Duration::sec(5.0);
  auto& p = make_platform(config);
  faas::JobSpec job;
  job.functions.push_back(simple_fn(1));
  const auto id = p.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  ASSERT_TRUE(p.job_completed(id.value()));
  // The idle timer fired during run(): the pool container is gone and its
  // node capacity released.
  EXPECT_EQ(p.warm_container_count(faas::RuntimeImage::kPython3), 0u);
  EXPECT_EQ(cluster_.node(NodeId{1}).used_slots(), 0u);
  EXPECT_EQ(cluster_.node(NodeId{2}).used_slots(), 0u);
}

TEST_F(FeatureTest, ReuseBillingPausesWhileIdle) {
  faas::PlatformConfig config;
  config.reuse_containers = true;
  config.warm_pool_idle_timeout = Duration::sec(5.0);
  auto& p = make_platform(config);
  faas::JobSpec job;
  job.functions.push_back(simple_fn(1));
  const auto id = p.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();  // completes at ~1.9s; pool expiry at ~6.9s
  p.finalize_usage();
  ASSERT_TRUE(p.job_completed(id.value()));
  // Billed interval covers only creation..completion, not the idle tail.
  double billed = 0.0;
  for (const auto& rec : p.usage().records()) billed += rec.duration().to_seconds();
  EXPECT_NEAR(billed, 1.9, 0.05);
}

TEST_F(FeatureTest, ReuseOffTearsDownImmediately) {
  auto& p = make_platform();
  faas::JobSpec job;
  job.functions.push_back(simple_fn(1));
  const auto id = p.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  EXPECT_TRUE(p.job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("containers_pooled"), 0.0);
  EXPECT_EQ(p.warm_container_count(faas::RuntimeImage::kPython3), 0u);
}

// ---- checkpoint compression -------------------------------------------------

class CompressionTest : public ::testing::Test {
 protected:
  CompressionTest()
      : cluster_(cluster::Cluster::testbed(4)),
        network_(&cluster_, {}),
        storage_(cluster::StorageHierarchy::testbed()),
        store_(kv::KvConfig{}, cluster_.node_ids()) {}

  core::CheckpointingModule make_module(core::CheckpointingConfig config) {
    return core::CheckpointingModule(sim_, cluster_, storage_, network_,
                                     store_, metrics_, config);
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  cluster::StorageHierarchy storage_;
  kv::KvStore store_;
  obs::MetricRegistry metrics_;
};

TEST_F(CompressionTest, CompressionAvoidsSpill) {
  // 8 MiB nominal payload, 4 MiB KV limit: uncompressed spills,
  // compressed (8/2.8 = 2.9 MiB) fits the KV store.
  faas::FunctionSpec spec;
  spec.states = faas::StateTable(2, {Duration::sec(2.0), Bytes::mib(8)});
  faas::Invocation inv;
  inv.id = FunctionId{1};
  inv.spec = &spec;
  inv.node = NodeId{1};

  core::CheckpointingConfig off;
  auto plain = make_module(off);
  plain.on_state_committed(inv, 0);
  EXPECT_EQ(plain.checkpoints_of(inv.id).front().location,
            cluster::StorageTier::kRamdisk);
  plain.drop_function(inv.id);

  core::CheckpointingConfig on;
  on.compress = true;
  auto compressed = make_module(on);
  compressed.on_state_committed(inv, 0);
  EXPECT_EQ(compressed.checkpoints_of(inv.id).front().location,
            cluster::StorageTier::kKvStore);
  EXPECT_LT(compressed.checkpoints_of(inv.id).front().payload, Bytes::mib(3));
}

TEST_F(CompressionTest, EpilogueIncludesCompressionCpu) {
  faas::FunctionSpec spec;
  spec.states = faas::StateTable(1, {Duration::sec(1.0), Bytes::mib(100)});
  faas::Invocation inv;
  inv.id = FunctionId{2};
  inv.spec = &spec;
  inv.node = NodeId{1};

  core::CheckpointingConfig on;
  on.compress = true;
  auto module = make_module(on);
  core::CheckpointingConfig off;
  auto plain = make_module(off);
  // Compressed epilogue: 100 MiB at 400 MiB/s CPU (0.25s) + writing
  // ~35.7 MiB instead of 100 MiB. Both effects must show.
  const double with = module.state_epilogue(inv, 0).to_seconds();
  const double without = plain.state_epilogue(inv, 0).to_seconds();
  EXPECT_GT(with, 0.25);          // contains the CPU cost
  EXPECT_LT(with, without + 0.3);  // bounded: write savings offset CPU
}

TEST_F(CompressionTest, RestoreIncludesDecompression) {
  faas::FunctionSpec spec;
  spec.states = faas::StateTable(1, {Duration::sec(1.0), Bytes::mib(2)});
  faas::Invocation inv;
  inv.id = FunctionId{3};
  inv.spec = &spec;
  inv.node = NodeId{1};

  core::CheckpointingConfig on;
  on.compress = true;
  auto module = make_module(on);
  module.on_state_committed(inv, 0);
  const auto plan = module.restore_plan(inv.id, NodeId{2});
  ASSERT_TRUE(plan.checkpoint.has_value());
  // Restore = KV read of ~0.73 MiB + decompression of 2 MiB at 1200 MiB/s.
  EXPECT_GT(plan.restore_time.to_seconds(), 2.0 / 1200.0);
}

}  // namespace
}  // namespace canary
