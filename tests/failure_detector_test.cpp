// Fault surface v2: heartbeat failure detection, the recovery watchdog,
// checkpoint-corruption fallback, and a mini chaos sweep. Detection
// latency here is emergent — produced by missed heartbeats crossing the
// phi thresholds, not by a configured constant.
#include <gtest/gtest.h>

#include <unordered_map>

#include "canary/checkpointing.hpp"
#include "cluster/network.hpp"
#include "harness/chaos.hpp"
#include "obs/event_log.hpp"
#include "workloads/workloads.hpp"

namespace canary::harness {
namespace {

std::vector<faas::JobSpec> small_web_jobs(std::size_t functions = 20) {
  return {workloads::make_job(workloads::WorkloadKind::kWebService, functions)};
}

ScenarioConfig detection_config(Duration heartbeat_interval) {
  ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.1;
  config.cluster_nodes = 8;
  config.seed = 1234;
  config.detection.enabled = true;
  config.detection.heartbeat_interval = heartbeat_interval;
  return config;
}

/// Worst node-failure confirmation latency observed in the causal log.
double max_node_detection_latency(const RunResult& result) {
  double worst = 0.0;
  std::unordered_map<std::uint64_t, TimePoint> open;
  for (const obs::Event& event : *result.events) {
    if (event.kind() == obs::EventKind::kFailure &&
        event.name() == obs::Name::kNodeFailure) {
      open[event.trace().value()] = event.at();
    } else if (event.kind() == obs::EventKind::kDetect) {
      auto it = open.find(event.trace().value());
      if (it == open.end()) continue;
      const double latency = (event.at() - it->second).to_seconds();
      open.erase(it);
      if (latency > worst) worst = latency;
    }
  }
  return worst;
}

/// Every function that completed did so exactly once.
void expect_exactly_once(const RunResult& result) {
  ASSERT_NE(result.events, nullptr);
  ASSERT_FALSE(result.events->truncated());
  std::unordered_map<std::uint64_t, int> completes;
  for (const obs::Event& event : *result.events) {
    if (event.kind() == obs::EventKind::kComplete &&
        event.function().valid()) {
      ++completes[event.function().value()];
    }
  }
  EXPECT_GT(completes.size(), 0u);
  for (const auto& [fn, count] : completes) {
    EXPECT_EQ(count, 1) << "function " << fn << " completed " << count
                        << " times";
  }
}

TEST(FailureDetectorScenarioTest, HeartbeatModeRecoversNodeFailure) {
  auto config = detection_config(Duration::msec(500));
  config.node_failure_offsets = {Duration::sec(3.0)};
  const auto result = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.metrics.counter("workers_confirmed_dead"), 1.0);
  EXPECT_EQ(result.undetected_failures, 0u);
  expect_exactly_once(result);
  // The confirmation must land within the analytic bound:
  // interval * (1 + timeout + confirm) + 2 sweeps.
  const auto& det = config.detection;
  const double bound =
      (det.heartbeat_interval *
           (1.0 + det.timeout_multiplier + det.confirm_multiplier) +
       det.sweep_interval * 2.0)
          .to_seconds();
  const double latency = max_node_detection_latency(result);
  EXPECT_GT(latency, 0.0);
  EXPECT_LE(latency, bound);
}

TEST(FailureDetectorScenarioTest, DetectionLatencyScalesWithInterval) {
  // Emergence check: halving the heartbeat cadence has to show up as a
  // proportionally later confirmation — a configured constant would not.
  auto fast = detection_config(Duration::msec(200));
  fast.node_failure_offsets = {Duration::sec(3.0)};
  auto slow = detection_config(Duration::msec(800));
  slow.node_failure_offsets = {Duration::sec(3.0)};
  const auto fast_result = ScenarioRunner::run(fast, small_web_jobs());
  const auto slow_result = ScenarioRunner::run(slow, small_web_jobs());
  ASSERT_TRUE(fast_result.completed);
  ASSERT_TRUE(slow_result.completed);
  const double fast_latency = max_node_detection_latency(fast_result);
  const double slow_latency = max_node_detection_latency(slow_result);
  ASSERT_GT(fast_latency, 0.0);
  EXPECT_GT(slow_latency, fast_latency);
  // The critical-path decomposition carries the emergent slice.
  EXPECT_GT(slow_result.breakdown
                .recovery_components[obs::PathComponent::kDetection],
            0.0);
}

TEST(FailureDetectorScenarioTest, FalseSuspicionCancelsCleanly) {
  // A delay window long enough to suspect a live worker but shorter than
  // the confirm threshold: the late beat un-suspects it, nobody is
  // fenced, and no function runs twice.
  auto config = detection_config(Duration::msec(500));
  config.detection.timeout_multiplier = 2.0;   // suspect after 1s gap
  config.detection.confirm_multiplier = 4.0;   // confirm after 3s gap
  config.error_rate = 0.0;
  failure::FailureInjector::HeartbeatFault fault;
  fault.start = TimePoint::origin() + Duration::sec(2.0);
  fault.duration = Duration::sec(2.0);
  fault.delay = Duration::msec(1500);  // between the two thresholds
  fault.node = NodeId{3};
  config.heartbeat_faults.push_back(fault);
  const auto result = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.metrics.counter("false_suspicions"), 1.0);
  EXPECT_EQ(result.metrics.counter("workers_confirmed_dead"), 0.0);
  EXPECT_GE(result.injected.heartbeats_delayed, 1u);
  expect_exactly_once(result);
}

TEST(FailureDetectorScenarioTest, AsymmetricPartitionFalseSuspicionHeals) {
  // One-way heartbeat loss from a live worker (fault surface v3): a
  // short asymmetric window cuts node 3's outbound traffic so its beats
  // are dropped at send, long enough to suspect it but shorter than the
  // confirm threshold. On heal the next beat must un-suspect it exactly
  // once — nobody fenced, nothing re-executed.
  auto config = detection_config(Duration::msec(500));
  config.detection.timeout_multiplier = 2.0;  // suspect after 1s gap
  config.detection.confirm_multiplier = 4.0;  // confirm after 3s gap
  config.error_rate = 0.0;
  ScenarioConfig::PartitionFault window;
  window.at = Duration::sec(2.0);
  window.duration = Duration::sec(2.0);  // max gap ~2.5s, between thresholds
  window.from = {NodeId{3}};
  for (std::size_t n = 1; n <= 8; ++n) {
    if (n != 3) window.to.push_back(NodeId{n});
  }
  config.partitions.push_back(window);
  const auto result = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.metrics.counter("false_suspicions"), 1.0);
  EXPECT_EQ(result.metrics.counter("workers_confirmed_dead"), 0.0);
  EXPECT_GT(result.metrics.counter("heartbeats_partition_dropped"), 0.0);
  EXPECT_EQ(result.injected.partitions_started, 1u);
  EXPECT_EQ(result.injected.partitions_healed, 1u);
  EXPECT_EQ(result.partitions_active_end, 0u);
  EXPECT_EQ(result.counters.count("nodes_fenced_logical"), 0u);
  EXPECT_TRUE(result.confirmed_workers_fenced);
  expect_exactly_once(result);
}

TEST(FailureDetectorScenarioTest, AsymmetricPartitionConfirmsWithinBound) {
  // The same one-way loss held past the confirm threshold: the victim is
  // alive but unreachable, so the detector logically fences it. The
  // fence must land within the analytic heartbeat bound of the window
  // opening, and the run still resolves exactly-once (the zombie side's
  // work never double-commits).
  auto config = detection_config(Duration::msec(500));
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 4.0;
  config.error_rate = 0.0;
  ScenarioConfig::PartitionFault window;
  window.at = Duration::sec(2.0);
  window.duration = Duration::sec(6.0);  // well past the 3s confirm gap
  window.from = {NodeId{3}};
  for (std::size_t n = 1; n <= 8; ++n) {
    if (n != 3) window.to.push_back(NodeId{n});
  }
  config.partitions.push_back(window);
  const auto result = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.metrics.counter("workers_confirmed_dead"), 1.0);
  const auto fenced = result.counters.find("nodes_fenced_logical");
  ASSERT_NE(fenced, result.counters.end());
  EXPECT_GE(fenced->second, 1.0);
  // Fence latency from window open, against the same analytic bound as
  // a real node death: interval * (1 + timeout + confirm) + 2 sweeps.
  ASSERT_NE(result.events, nullptr);
  double fence_at = -1.0;
  for (const obs::Event& event : *result.events) {
    if (event.kind() == obs::EventKind::kAnnotation &&
        event.name() == obs::Name::kNodeFenced) {
      fence_at = event.at().to_seconds();
      break;
    }
  }
  ASSERT_GE(fence_at, 0.0);
  const auto& det = config.detection;
  const double bound =
      (det.heartbeat_interval *
           (1.0 + det.timeout_multiplier + det.confirm_multiplier) +
       det.sweep_interval * 2.0)
          .to_seconds();
  const double latency = fence_at - window.at.to_seconds();
  EXPECT_GT(latency, 0.0);
  EXPECT_LE(latency, bound);
  EXPECT_EQ(result.undetected_failures, 0u);
  expect_exactly_once(result);
}

TEST(FailureDetectorScenarioTest, WatchdogReroutesStalledRecovery) {
  // A gray node stretches cold launches ~30x; recoveries dispatched onto
  // it blow the action timeout and must be rerouted elsewhere instead of
  // waiting out the slowdown.
  ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.strategy.canary.recovery_action_timeout = Duration::msec(500);
  config.error_rate = 1.0;  // every function loses its container once
  config.injection_mode = failure::InjectionMode::kOncePerFunction;
  config.cluster_nodes = 4;
  config.seed = 77;
  ScenarioConfig::GrayFailure gray;
  gray.at = Duration::sec(0.5);
  gray.duration = Duration::sec(40.0);
  gray.slowdown = 30.0;
  gray.node = NodeId{1};
  config.gray_failures.push_back(gray);
  const auto result = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_TRUE(result.completed);
  const auto stalls = result.counters.find("recovery_stalls");
  ASSERT_NE(stalls, result.counters.end());
  EXPECT_GE(stalls->second, 1.0);
  expect_exactly_once(result);
}

TEST(FailureDetectorScenarioTest, DisabledDetectorLeavesRunUntouched) {
  // The v2 surface is opt-in: with detection off and no action timeout,
  // none of the new counters move (the byte-identity gate in CI depends
  // on this staying true).
  ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.2;
  config.cluster_nodes = 8;
  config.seed = 1234;
  config.node_failure_offsets = {Duration::sec(3.0)};
  const auto result = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.metrics.counter("worker_suspicions"), 0.0);
  EXPECT_EQ(result.metrics.counter("workers_confirmed_dead"), 0.0);
  EXPECT_EQ(result.undetected_failures, 0u);
  EXPECT_EQ(result.counters.count("recovery_stalls"), 0u);
  EXPECT_EQ(result.counters.count("nodes_fenced"), 0u);
}

TEST(ChaosSweepTest, MiniSweepHoldsAllInvariants) {
  // A handful of full chaos scenarios inline in the unit suite; the
  // campaign's cell table lives in bench/chaos_campaign.
  for (std::uint64_t seed = 4242; seed < 4248; ++seed) {
    const ChaosOutcome outcome = run_chaos_scenario({}, seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_TRUE(outcome.completed) << "seed " << seed;
  }
}

TEST(ChaosSweepTest, ShardedMiniSweepHoldsAllInvariants) {
  // The same scenarios split over 4 partitions x 4 worker threads, every
  // oracle evaluated inside every partition.
  for (std::uint64_t seed = 30001; seed < 30003; ++seed) {
    const ChaosOutcome outcome = run_chaos_scenario({.partitions = 4}, seed);
    EXPECT_TRUE(outcome.violations.empty())
        << "seed " << seed << ": " << outcome.violations.front();
    EXPECT_TRUE(outcome.completed) << "seed " << seed;
  }
}

}  // namespace
}  // namespace canary::harness

namespace canary::core {
namespace {

class CorruptionFallbackTest : public ::testing::Test {
 protected:
  CorruptionFallbackTest()
      : cluster_(cluster::Cluster::testbed(4)),
        network_(&cluster_, {}),
        storage_(cluster::StorageHierarchy::testbed()),
        store_(kv::KvConfig{}, cluster_.node_ids()) {}

  CheckpointingModule make_module() {
    return CheckpointingModule(sim_, cluster_, storage_, network_, store_,
                               metrics_, {});
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  cluster::StorageHierarchy storage_;
  kv::KvStore store_;
  obs::MetricRegistry metrics_;
};

TEST_F(CorruptionFallbackTest, CorruptNewestFallsBackToOlderCheckpoint) {
  auto module = make_module();
  faas::FunctionSpec spec;
  spec.name = "fn";
  spec.states = faas::StateTable(4, {Duration::sec(3.0), Bytes::mib(1)});
  faas::Invocation inv;
  inv.id = FunctionId{1};
  inv.job = JobId{1};
  inv.spec = &spec;
  inv.node = NodeId{1};
  for (std::size_t s = 0; s < 2; ++s) {
    (void)module.state_epilogue(inv, s);
    module.on_state_committed(inv, s);
  }
  const auto healthy = module.restore_plan(inv.id, NodeId{2});
  EXPECT_EQ(healthy.from_state, 2u);

  // Bit rot on the newest checkpoint: the plan must drop to state 0's
  // intact copy rather than restore damaged bytes.
  ASSERT_TRUE(store_.corrupt_entry(CheckpointingModule::kv_key(inv.id, 1)));
  const auto degraded = module.restore_plan(inv.id, NodeId{2});
  EXPECT_EQ(degraded.from_state, 1u);
  EXPECT_GE(metrics_.counter("checkpoint_corrupt_skipped"), 1.0);

  // Both checkpoints damaged: full re-execution, never a corrupt restore.
  ASSERT_TRUE(store_.corrupt_entry(CheckpointingModule::kv_key(inv.id, 0)));
  const auto rebuilt = module.restore_plan(inv.id, NodeId{2});
  EXPECT_EQ(rebuilt.from_state, 0u);
  EXPECT_FALSE(rebuilt.checkpoint.has_value());
  EXPECT_EQ(metrics_.counter("restored_corrupt_checkpoints"), 0.0);
}

TEST_F(CorruptionFallbackTest, WriteFailureDegradesWithoutMetadataRow) {
  // Every KV cache node dead and no persistence: the put fails, the
  // module logs and counts it, and no checkpoint row advertises a
  // checkpoint that was never stored.
  kv::KvConfig kv_config;
  kv_config.native_persistence = false;
  kv::KvStore dead_store(kv_config, cluster_.node_ids());
  for (const NodeId node : cluster_.node_ids()) dead_store.fail_node(node);
  CheckpointingModule module(sim_, cluster_, storage_, network_, dead_store,
                             metrics_, {});
  faas::FunctionSpec spec;
  spec.states = faas::StateTable(1, {Duration::sec(3.0), Bytes::mib(1)});
  faas::Invocation inv;
  inv.id = FunctionId{2};
  inv.job = JobId{1};
  inv.spec = &spec;
  inv.node = NodeId{1};
  (void)module.state_epilogue(inv, 0);
  module.on_state_committed(inv, 0);
  EXPECT_GE(metrics_.counter("checkpoint_write_failures"), 1.0);
  EXPECT_TRUE(module.checkpoints_of(inv.id).empty());
  const auto plan = module.restore_plan(inv.id, NodeId{2});
  EXPECT_EQ(plan.from_state, 0u);
  EXPECT_FALSE(plan.checkpoint.has_value());
}

}  // namespace
}  // namespace canary::core
