// End-to-end tests for the Core Module: validated submission, queueing,
// checkpoint-based recovery onto replicated runtimes, cold fallback, and
// recovery placement around a heartbeat-suspected worker.
#include <gtest/gtest.h>

#include <optional>

#include "canary/core.hpp"
#include "canary/failure_detector.hpp"
#include "cluster/network.hpp"
#include "failure/injector.hpp"

namespace canary::core {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

faas::FunctionSpec stateful_function(std::size_t states = 4) {
  faas::FunctionSpec fn;
  fn.name = "stateful";
  fn.runtime = faas::RuntimeImage::kPython3;
  fn.states = faas::StateTable(states, {Duration::sec(1.0), Bytes::kib(64)});
  fn.finalize = Duration::msec(200);
  return fn;
}

/// Kills attempt 1 of function `victim` at a fixed offset.
class KillOne : public faas::FailurePolicy {
 public:
  KillOne(FunctionId victim, Duration offset)
      : victim_(victim), offset_(offset) {}
  std::optional<Duration> plan_kill(const faas::Invocation& inv, int attempt,
                                    Duration) override {
    if (inv.id == victim_ && attempt == 1) return offset_;
    return std::nullopt;
  }

 private:
  FunctionId victim_;
  Duration offset_;
};

class CoreModuleTest : public ::testing::Test {
 protected:
  CoreModuleTest()
      : cluster_(uniform_nodes(4)),
        network_(&cluster_, {}),
        storage_(cluster::StorageHierarchy::testbed()),
        store_(kv::KvConfig{}, cluster_.node_ids()) {}

  static faas::PlatformConfig make_config() {
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    return config;
  }

  faas::Platform& platform() {
    if (!platform_) {
      platform_.emplace(sim_, cluster_, network_, make_config(), metrics_);
    }
    return *platform_;
  }

  CoreModule& make_core(CanaryConfig config = {}) {
    core_.emplace(platform(), store_, storage_, config);
    core_->install();
    return *core_;
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  cluster::StorageHierarchy storage_;
  kv::KvStore store_;
  obs::MetricRegistry metrics_;
  std::optional<faas::Platform> platform_;
  std::optional<CoreModule> core_;
};

TEST_F(CoreModuleTest, CleanRunCompletesWithCheckpoints) {
  auto& core = make_core();
  faas::JobSpec job;
  job.functions.push_back(stateful_function());
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(id.value().valid());
  sim_.run();
  EXPECT_TRUE(platform().job_completed(id.value()));
  // Checkpoints were written during execution and dropped at completion.
  EXPECT_GE(metrics_.counter("checkpoints_written"), 4.0);
  EXPECT_EQ(store_.keys_with_prefix("").size(), 0u);
  EXPECT_EQ(core.in_flight_functions(), 0u);
  // A replica was provisioned for the active runtime (DR floor of 1).
  EXPECT_GE(metrics_.counter("replicas_launched"), 1.0);
}

TEST_F(CoreModuleTest, RejectsOversizedRequests) {
  auto& core = make_core();
  faas::JobSpec job;
  auto fn = stateful_function();
  fn.memory = Bytes::gib(100);
  job.functions.push_back(fn);
  const auto id = core.submit_job(job);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(metrics_.counter("requests_rejected"), 1.0);
}

TEST_F(CoreModuleTest, QueuesWhenConcurrencyWouldOverflow) {
  faas::PlatformConfig config = make_config();
  config.limits.max_concurrent_invocations = 3;
  platform_.emplace(sim_, cluster_, network_, config, metrics_);
  auto& core = make_core();

  faas::JobSpec job1;
  for (int i = 0; i < 3; ++i) job1.functions.push_back(stateful_function(1));
  faas::JobSpec job2;
  job2.functions.push_back(stateful_function(1));

  const auto first = core.submit_job(job1);
  ASSERT_TRUE(first.ok());
  const auto second = core.submit_job(job2);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().valid());  // queued, not submitted
  EXPECT_EQ(core.queued_jobs(), 1u);
  sim_.run();
  // The queued job drained once capacity freed and completed.
  EXPECT_EQ(core.queued_jobs(), 0u);
  EXPECT_TRUE(platform().all_jobs_completed());
  EXPECT_EQ(metrics_.counter("requests_queued"), 1.0);
}

TEST_F(CoreModuleTest, RecoversOntoReplicaFromLatestCheckpoint) {
  auto& core = make_core();
  faas::JobSpec job;
  job.functions.push_back(stateful_function());
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId victim = platform().job_functions(id.value()).front();
  // Kill 3.0s in: launch+init 0.8s, ~2.2s into execution => state 0 and 1
  // committed (with epilogues), state 2 in flight.
  KillOne policy(victim, Duration::sec(3.0));
  platform().set_failure_policy(&policy);
  sim_.run();

  EXPECT_TRUE(platform().job_completed(id.value()));
  const auto& inv = platform().invocation(victim);
  EXPECT_EQ(inv.failures, 1);
  EXPECT_EQ(metrics_.counter("replica_recoveries"), 1.0);
  EXPECT_EQ(metrics_.counter("warm_starts"), 1.0);
  // Recovery was fast: detection (0.3s) + migration + restore + the
  // in-flight state redo; far below a cold restart-from-scratch.
  EXPECT_LT(inv.recovery_time.to_seconds(), 2.5);
  EXPECT_GT(inv.recovery_time.to_seconds(), 0.3);
  // The function resumed from the checkpoint, not from scratch: lost work
  // is only the in-flight state fraction.
  EXPECT_LT(inv.lost_work.to_seconds(), 1.01);
}

TEST_F(CoreModuleTest, FallsBackColdWhenNoReplica) {
  CanaryConfig config;
  config.replication.enabled = false;  // checkpoint-only Canary
  auto& core = make_core(config);
  faas::JobSpec job;
  job.functions.push_back(stateful_function());
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId victim = platform().job_functions(id.value()).front();
  KillOne policy(victim, Duration::sec(3.0));
  platform().set_failure_policy(&policy);
  sim_.run();

  EXPECT_TRUE(platform().job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("cold_fallback_recoveries"), 1.0);
  EXPECT_EQ(metrics_.counter("replica_recoveries"), 0.0);
  const auto& inv = platform().invocation(victim);
  // Pays the cold start again but keeps checkpointed progress.
  EXPECT_GT(inv.recovery_time.to_seconds(), 1.0);
  EXPECT_LT(inv.lost_work.to_seconds(), 1.01);
}

TEST_F(CoreModuleTest, MetadataTablesTrackExecution) {
  auto& core = make_core();
  faas::JobSpec job;
  job.name = "tracked";
  job.functions.push_back(stateful_function());
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();

  // Job and function facts live in the platform, their one owner.
  const faas::JobSpec& spec = platform().job_spec(id.value());
  EXPECT_EQ(spec.name, "tracked");
  EXPECT_EQ(spec.functions.size(), 1u);

  const auto& fns = platform().job_functions(id.value());
  ASSERT_EQ(fns.size(), 1u);
  const faas::Invocation& inv = platform().invocation(fns.front());
  EXPECT_EQ(inv.job, id.value());
  EXPECT_TRUE(inv.completed());
  EXPECT_EQ(inv.attempt, 1);
  EXPECT_TRUE(inv.node.valid());
}

TEST_F(CoreModuleTest, NodeFailureRecoveryUsesSurvivingCheckpoints) {
  auto& core = make_core();
  faas::JobSpec job;
  job.functions.push_back(stateful_function());
  const auto id = core.submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId victim = platform().job_functions(id.value()).front();

  sim_.schedule_after(Duration::sec(3.0), [&] {
    const NodeId host = platform().invocation(victim).node;
    platform().fail_node(host);
    store_.fail_node(host);
  });
  sim_.run();
  EXPECT_TRUE(platform().job_completed(id.value()));
  const auto& inv = platform().invocation(victim);
  EXPECT_GE(inv.failures, 1);
  // Small checkpoints live in the replicated KV store, so recovery still
  // resumed from a checkpoint (lost work bounded by one state).
  EXPECT_LT(inv.lost_work.to_seconds(), 1.01);
}

struct SuspectRecovery {
  NodeId first;      // worker attempt 1 ran on
  NodeId recovered;  // worker the recovery ran on
  bool suspected_at_kill = false;
  bool confirmed_at_kill = false;
  bool completed = false;
  double cold_fallbacks = 0.0;
};

/// One function killed 3 s into its run on worker 1 while a second long
/// function keeps worker 1 busy and three short ones have left workers
/// 2-4 empty. With `silence_victim`, worker 1's heartbeats are dropped, so
/// the detector suspects it from 1.5 s on; the confirm threshold is out of
/// reach, so it is never confirmed dead.
SuspectRecovery kill_on_worker_one(bool silence_victim) {
  sim::Simulator sim;
  cluster::Cluster cluster(uniform_nodes(4));
  cluster::NetworkModel network(&cluster, {});
  const auto storage = cluster::StorageHierarchy::testbed();
  kv::KvStore store(kv::KvConfig{}, cluster.node_ids());
  obs::MetricRegistry metrics;
  faas::PlatformConfig pconfig;
  pconfig.scheduler_overhead = Duration::zero();
  pconfig.detection_mode = faas::DetectionMode::kHeartbeat;
  faas::Platform platform(sim, cluster, network, pconfig, metrics);

  CanaryConfig config;
  config.replication.enabled = false;  // the cold path places by suspicion
  CoreModule core(platform, store, storage, config);
  core.install();
  FailureDetectorConfig dconfig;
  dconfig.enabled = true;
  dconfig.confirm_multiplier = 1000.0;
  FailureDetector detector(sim, platform, dconfig);
  const NodeId worker_one{1};
  failure::FailureInjector faults(Rng(1), failure::InjectorConfig{});
  if (silence_victim) {
    // Every heartbeat worker 1 sends is dropped; the others beat on time.
    faults.add_heartbeat_fault({.start = TimePoint::origin(),
                                .duration = Duration::sec(3600.0),
                                .drop_rate = 1.0,
                                .node = worker_one});
  }
  detector.set_fault_provider(&faults);
  core.attach_detector(detector);

  faas::JobSpec job;
  job.functions.push_back(stateful_function());   // the victim
  for (int i = 0; i < 3; ++i) job.functions.push_back(stateful_function(1));
  job.functions.push_back(stateful_function());   // keeps worker 1 busy
  const auto id = core.submit_job(job);
  EXPECT_TRUE(id.ok());
  const FunctionId victim = platform.job_functions(id.value()).front();

  SuspectRecovery out;
  struct Policy : faas::FailurePolicy {
    FunctionId victim;
    NodeId* first = nullptr;
    std::optional<Duration> plan_kill(const faas::Invocation& inv,
                                      int attempt, Duration) override {
      if (inv.id != victim || attempt != 1) return std::nullopt;
      *first = inv.node;
      return Duration::sec(3.0);
    }
  } policy;
  policy.victim = victim;
  policy.first = &out.first;
  platform.set_failure_policy(&policy);
  // Sampled between the kill (3 s) and its report to recovery (3.3 s).
  sim.schedule_at(TimePoint::origin() + Duration::sec(3.2), [&] {
    out.suspected_at_kill = detector.is_suspected(worker_one);
    out.confirmed_at_kill = detector.is_confirmed_dead(worker_one);
  });
  detector.start();
  sim.run();

  out.recovered = platform.invocation(victim).node;
  out.completed = platform.job_completed(id.value());
  out.cold_fallbacks = metrics.counter("cold_fallback_recoveries");
  return out;
}

TEST(CoreDetectorTest, KillOnSuspectedWorkerRecoversOnAnotherWorker) {
  // Control: a healthy worker 1 keeps its function (recovery prefers the
  // failed worker while it is alive and unsuspected).
  const SuspectRecovery healthy = kill_on_worker_one(false);
  ASSERT_TRUE(healthy.completed);
  EXPECT_EQ(healthy.first, NodeId{1});
  EXPECT_FALSE(healthy.suspected_at_kill);
  EXPECT_EQ(healthy.cold_fallbacks, 1.0);
  EXPECT_EQ(healthy.recovered, NodeId{1});

  // Worker 1 heartbeat-suspected but not confirmed dead: the Core Module
  // reads the suspicion off the detector and recovers elsewhere.
  const SuspectRecovery suspect = kill_on_worker_one(true);
  ASSERT_TRUE(suspect.completed);
  EXPECT_EQ(suspect.first, NodeId{1});
  EXPECT_TRUE(suspect.suspected_at_kill);
  EXPECT_FALSE(suspect.confirmed_at_kill);
  EXPECT_EQ(suspect.cold_fallbacks, 1.0);
  EXPECT_NE(suspect.recovered, NodeId{1});
}

TEST_F(CoreModuleTest, InstallTwiceAborts) {
  auto& core = make_core();
  EXPECT_DEATH(core.install(), "installed twice");
}

}  // namespace
}  // namespace canary::core
