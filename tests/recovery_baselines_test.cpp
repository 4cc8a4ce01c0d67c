// Unit tests for the state-of-the-art baselines: request replication (RR)
// and active-standby (AS), plus the strategy configuration helpers.
#include <gtest/gtest.h>

#include <optional>

#include "cluster/network.hpp"
#include "recovery/active_standby.hpp"
#include "recovery/request_replication.hpp"
#include "recovery/strategies.hpp"

namespace canary::recovery {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

faas::FunctionSpec probe() {
  faas::FunctionSpec fn;
  fn.name = "p";
  fn.runtime = faas::RuntimeImage::kPython3;
  fn.states = faas::StateTable(2, {Duration::sec(1.0), {}});
  fn.finalize = Duration::msec(100);
  return fn;
}

class KillSet : public faas::FailurePolicy {
 public:
  void kill(FunctionId id, int attempt, Duration offset) {
    plans_.push_back({id, attempt, offset});
  }
  std::optional<Duration> plan_kill(const faas::Invocation& inv, int attempt,
                                    Duration) override {
    for (const auto& plan : plans_) {
      if (plan.id == inv.id && plan.attempt == attempt) return plan.offset;
    }
    return std::nullopt;
  }

 private:
  struct Plan {
    FunctionId id;
    int attempt;
    Duration offset;
  };
  std::vector<Plan> plans_;
};

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : cluster_(uniform_nodes(4)), network_(&cluster_, {}) {
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    platform_.emplace(sim_, cluster_, network_, config, metrics_);
    platform_->set_failure_policy(&kills_);
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  KillSet kills_;
  std::optional<faas::Platform> platform_;
};

// ---- request replication -----------------------------------------------

TEST_F(BaselineTest, RrExpandJobShape) {
  RequestReplicationHandler rr(*platform_, 2);
  faas::JobSpec logical;
  logical.name = "web";
  logical.functions.push_back(probe());
  logical.functions.push_back(probe());
  const auto expanded = rr.expand_job(logical);
  EXPECT_EQ(expanded.functions.size(), 6u);
  EXPECT_EQ(expanded.name, "web+rr");
  EXPECT_EQ(expanded.functions[0].name, "p");
  EXPECT_EQ(expanded.functions[1].name, "p+r1");
  EXPECT_EQ(expanded.functions[2].name, "p+r2");
}

TEST_F(BaselineTest, RrFirstWinnerDiscardsLosers) {
  RequestReplicationHandler rr(*platform_, 1);
  platform_->set_recovery_handler(&rr);
  platform_->add_observer(&rr);

  faas::JobSpec logical;
  logical.functions.push_back(probe());
  const auto id = platform_->submit_job(rr.expand_job(logical));
  ASSERT_TRUE(id.ok());
  rr.track_job(id.value());
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("rr_group_wins"), 1.0);
  EXPECT_EQ(metrics_.counter("functions_discarded"), 1.0);
  // One race group per job: the job completes when its group's winner
  // does.
  EXPECT_NE(platform_->job_completion_time(id.value()), TimePoint::max());
}

TEST_F(BaselineTest, RrSurvivesSingleInstanceFailure) {
  RequestReplicationHandler rr(*platform_, 1);
  platform_->set_recovery_handler(&rr);
  platform_->add_observer(&rr);

  faas::JobSpec logical;
  logical.functions.push_back(probe());
  const auto expanded = rr.expand_job(logical);
  const auto id = platform_->submit_job(expanded);
  ASSERT_TRUE(id.ok());
  rr.track_job(id.value());
  // Kill the primary instance; the replica finishes the request without a
  // restart.
  kills_.kill(platform_->job_functions(id.value())[0], 1, Duration::sec(1.5));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("rr_group_restarts"), 0.0);
  EXPECT_EQ(metrics_.counter("rr_group_wins"), 1.0);
  // Completion at the replica's natural pace: 0.8 + 2.0 + 0.1 = 2.9s.
  EXPECT_NEAR(platform_->job_completion_time(id.value()).to_seconds(), 2.9,
              0.05);
}

TEST_F(BaselineTest, RrRestartsWholeGroupWhenAllDown) {
  RequestReplicationHandler rr(*platform_, 1);
  platform_->set_recovery_handler(&rr);
  platform_->add_observer(&rr);

  faas::JobSpec logical;
  logical.functions.push_back(probe());
  const auto id = platform_->submit_job(rr.expand_job(logical));
  ASSERT_TRUE(id.ok());
  rr.track_job(id.value());
  // Both instances die; the whole request restarts from the beginning.
  kills_.kill(platform_->job_functions(id.value())[0], 1, Duration::sec(1.0));
  kills_.kill(platform_->job_functions(id.value())[1], 1, Duration::sec(1.2));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("rr_group_restarts"), 1.0);
  // Restart happened after the second failure: completion > 3.9s.
  EXPECT_GT(platform_->job_completion_time(id.value()).to_seconds(), 3.5);
}

TEST_F(BaselineTest, RrLateLoserFailureIsIgnored) {
  RequestReplicationHandler rr(*platform_, 1);
  platform_->set_recovery_handler(&rr);
  platform_->add_observer(&rr);

  faas::JobSpec logical;
  logical.functions.push_back(probe());
  const auto id = platform_->submit_job(rr.expand_job(logical));
  ASSERT_TRUE(id.ok());
  rr.track_job(id.value());
  sim_.run();
  // Post-completion failure reports must not restart anything.
  const auto& inv = platform_->invocation(platform_->job_functions(id.value())[1]);
  rr.on_failure(inv, {});
  EXPECT_EQ(metrics_.counter("rr_group_restarts"), 0.0);
}

// ---- active-standby --------------------------------------------------------

TEST_F(BaselineTest, AsProvisionsStandbysAtSubmission) {
  ActiveStandbyHandler as(*platform_);
  platform_->set_recovery_handler(&as);
  platform_->add_observer(&as);

  faas::JobSpec job;
  job.functions.push_back(probe());
  job.functions.push_back(probe());
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run_until(TimePoint::origin() + Duration::sec(1.5));
  EXPECT_EQ(platform_->warm_idle_count(faas::RuntimeImage::kPython3,
                                       faas::ContainerPurpose::kStandby),
            2u);
  sim_.run();
  EXPECT_TRUE(platform_->job_completed(id.value()));
  // Standbys were torn down at completion.
  EXPECT_EQ(platform_->warm_idle_count(faas::RuntimeImage::kPython3,
                                       faas::ContainerPurpose::kStandby),
            0u);
  EXPECT_EQ(platform_->warm_container_count(faas::RuntimeImage::kPython3), 0u);
}

TEST_F(BaselineTest, AsActivatesStandbyOnFailure) {
  ActiveStandbyHandler as(*platform_);
  platform_->set_recovery_handler(&as);
  platform_->add_observer(&as);

  faas::JobSpec job;
  job.functions.push_back(probe());
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId fn = platform_->job_functions(id.value()).front();
  // Kill well after the standby is warm.
  kills_.kill(fn, 1, Duration::sec(2.0));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("as_standby_activations"), 1.0);
  EXPECT_EQ(metrics_.counter("as_cold_restarts"), 0.0);
  const auto& inv = platform_->invocation(fn);
  EXPECT_EQ(inv.attempt, 2);
  // AS restarts from the beginning (no checkpoints): all completed work
  // was lost.
  EXPECT_GT(inv.lost_work.to_seconds(), 0.9);
}

TEST_F(BaselineTest, AsFallsBackColdWhenStandbyNotReady) {
  ActiveStandbyHandler as(*platform_);
  platform_->set_recovery_handler(&as);
  platform_->add_observer(&as);

  faas::JobSpec job;
  job.functions.push_back(probe());
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId fn = platform_->job_functions(id.value()).front();
  // Kill while the standby is still launching (standby warm at ~0.8s,
  // detection adds 0.3s: kill at 0.2 => failure handled at 0.5s).
  kills_.kill(fn, 1, Duration::msec(200));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("as_cold_restarts"), 1.0);
}

TEST_F(BaselineTest, AsTearsDownTheStandbyAFailureSuperseded) {
  ActiveStandbyHandler as(*platform_);
  platform_->set_recovery_handler(&as);
  platform_->add_observer(&as);

  faas::JobSpec job;
  job.functions.push_back(probe());
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId fn = platform_->job_functions(id.value()).front();
  // The failure is handled while the first standby is still launching,
  // so the takeover provisions a second one. The first must not outlive
  // the function as a warm-idle standby.
  kills_.kill(fn, 1, Duration::msec(200));
  sim_.run();

  EXPECT_TRUE(platform_->job_completed(id.value()));
  EXPECT_EQ(metrics_.counter("as_cold_restarts"), 1.0);
  EXPECT_EQ(platform_->warm_idle_count(faas::RuntimeImage::kPython3,
                                       faas::ContainerPurpose::kStandby),
            0u);
}

TEST_F(BaselineTest, AsReplacesStandbyLostToNodeFailure) {
  ActiveStandbyHandler as(*platform_);
  platform_->set_recovery_handler(&as);
  platform_->add_observer(&as);

  faas::JobSpec job;
  job.functions.push_back(probe());
  job.functions.front().states =
      faas::StateTable(6, {Duration::sec(1.0), Bytes::zero()});
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  const FunctionId fn = platform_->job_functions(id.value()).front();

  sim_.schedule_after(Duration::sec(1.5), [&] {
    // Kill the standby's node (not the active's).
    const NodeId active_node = platform_->invocation(fn).node;
    for (const NodeId node : cluster_.alive_node_ids()) {
      if (node == active_node) continue;
      if (!platform_->containers_on(node).empty()) {
        platform_->fail_node(node);
        return;
      }
    }
  });
  sim_.run();
  EXPECT_TRUE(platform_->job_completed(id.value()));
  // A replacement standby was provisioned after the node loss.
  EXPECT_GE(metrics_.counter("node_failures"), 1.0);
}

// ---- strategy config --------------------------------------------------------

TEST(StrategyConfigTest, Labels) {
  EXPECT_EQ(StrategyConfig::ideal().label(), "ideal");
  EXPECT_EQ(StrategyConfig::retry().label(), "retry");
  EXPECT_EQ(StrategyConfig::canary_full().label(), "canary-dr");
  EXPECT_EQ(StrategyConfig::canary_full(core::ReplicationMode::kAggressive).label(),
            "canary-ar");
  EXPECT_EQ(StrategyConfig::canary_full(core::ReplicationMode::kLenient).label(),
            "canary-lr");
  EXPECT_EQ(StrategyConfig::canary_replication_only().label(), "canary-repl");
  EXPECT_EQ(StrategyConfig::canary_checkpoint_only().label(), "canary-ckpt");
  EXPECT_EQ(StrategyConfig::request_replication().label(),
            "request-replication");
  EXPECT_EQ(StrategyConfig::active_standby().label(), "active-standby");
}

TEST(StrategyConfigTest, FactoryFlags) {
  const auto repl_only = StrategyConfig::canary_replication_only();
  EXPECT_FALSE(repl_only.canary.checkpointing.enabled);
  EXPECT_TRUE(repl_only.canary.replication.enabled);
  const auto ckpt_only = StrategyConfig::canary_checkpoint_only();
  EXPECT_TRUE(ckpt_only.canary.checkpointing.enabled);
  EXPECT_FALSE(ckpt_only.canary.replication.enabled);
  EXPECT_EQ(StrategyConfig::request_replication(3).rr_replicas, 3u);
}

}  // namespace
}  // namespace canary::recovery
