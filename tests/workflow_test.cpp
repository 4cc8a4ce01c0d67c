// Tests for trigger-driven workflows: dependency validation, MapReduce
// and pipeline ordering, and failure recovery across stages.
#include <gtest/gtest.h>

#include <optional>

#include "cluster/network.hpp"
#include "faas/platform.hpp"
#include "faas/retry.hpp"
#include "harness/experiment.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

std::vector<cluster::NodeSpec> uniform_nodes(std::size_t n) {
  std::vector<cluster::NodeSpec> specs(n);
  for (auto& s : specs) s.cpu = cluster::CpuClass::kXeonGold6242;
  return specs;
}

faas::FunctionSpec step_fn(const std::string& name,
                           std::vector<std::size_t> deps = {}) {
  faas::FunctionSpec fn;
  fn.name = name;
  fn.runtime = faas::RuntimeImage::kPython3;
  fn.states = faas::StateTable(1, {Duration::sec(1.0), {}});
  fn.depends_on = std::move(deps);
  return fn;
}

class WorkflowTest : public ::testing::Test {
 protected:
  WorkflowTest() : cluster_(uniform_nodes(4)), network_(&cluster_, {}) {
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    platform_.emplace(sim_, cluster_, network_, config, metrics_);
    retry_.emplace(*platform_);
    platform_->set_recovery_handler(&*retry_);
  }

  sim::Simulator sim_;
  cluster::Cluster cluster_;
  cluster::NetworkModel network_;
  obs::MetricRegistry metrics_;
  std::optional<faas::Platform> platform_;
  std::optional<faas::RetryHandler> retry_;
};

TEST_F(WorkflowTest, CycleIsRejected) {
  faas::JobSpec job;
  job.functions.push_back(step_fn("a", {1}));
  job.functions.push_back(step_fn("b", {0}));
  const auto result = platform_->submit_job(job);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
}

TEST_F(WorkflowTest, SelfDependencyIsRejected) {
  faas::JobSpec job;
  job.functions.push_back(step_fn("a", {0}));
  EXPECT_FALSE(platform_->submit_job(job).ok());
}

TEST_F(WorkflowTest, OutOfRangeDependencyIsRejected) {
  faas::JobSpec job;
  job.functions.push_back(step_fn("a", {7}));
  EXPECT_FALSE(platform_->submit_job(job).ok());
}

TEST_F(WorkflowTest, DependentWaitsForTrigger) {
  faas::JobSpec job;
  job.functions.push_back(step_fn("up"));
  job.functions.push_back(step_fn("down", {0}));
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  const auto& up = platform_->invocation(platform_->job_functions(id.value())[0]);
  const auto& down =
      platform_->invocation(platform_->job_functions(id.value())[1]);
  EXPECT_TRUE(up.completed());
  EXPECT_TRUE(down.completed());
  // The dependent's first dispatch strictly follows the trigger.
  EXPECT_GE(down.first_dispatch_time, up.completion_time);
  EXPECT_TRUE(platform_->job_completed(id.value()));
}

TEST_F(WorkflowTest, DiamondDependencyOrder) {
  faas::JobSpec job;
  job.functions.push_back(step_fn("src"));
  job.functions.push_back(step_fn("left", {0}));
  job.functions.push_back(step_fn("right", {0}));
  job.functions.push_back(step_fn("sink", {1, 2}));
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  const auto& fns = platform_->job_functions(id.value());
  const auto& left = platform_->invocation(fns[1]);
  const auto& right = platform_->invocation(fns[2]);
  const auto& sink = platform_->invocation(fns[3]);
  EXPECT_GE(sink.first_dispatch_time,
            std::max(left.completion_time, right.completion_time));
  EXPECT_TRUE(platform_->job_completed(id.value()));
}

TEST_F(WorkflowTest, MapReduceOrderingHolds) {
  const auto job = workloads::make_mapreduce_job(6, 2);
  const auto id = platform_->submit_job(job);
  ASSERT_TRUE(id.ok());
  sim_.run();
  ASSERT_TRUE(platform_->job_completed(id.value()));
  const auto& fns = platform_->job_functions(id.value());
  TimePoint last_mapper = TimePoint::origin();
  for (std::size_t m = 0; m < 6; ++m) {
    last_mapper =
        std::max(last_mapper, platform_->invocation(fns[m]).completion_time);
  }
  for (std::size_t r = 6; r < 8; ++r) {
    EXPECT_GE(platform_->invocation(fns[r]).first_dispatch_time, last_mapper);
  }
}

TEST_F(WorkflowTest, UpstreamFailureDelaysDownstream) {
  class KillFirstMapper : public faas::FailurePolicy {
   public:
    std::optional<Duration> plan_kill(const faas::Invocation& inv, int attempt,
                                      Duration) override {
      if (inv.spec->name == "map-0" && attempt == 1) return Duration::sec(3.0);
      return std::nullopt;
    }
  } policy;
  platform_->set_failure_policy(&policy);

  const auto clean = [&] {
    // Reference run without failures in a fresh fixture.
    sim::Simulator sim;
    auto cluster = cluster::Cluster(uniform_nodes(4));
    cluster::NetworkModel network(&cluster, {});
    obs::MetricRegistry metrics;
    faas::PlatformConfig config;
    config.scheduler_overhead = Duration::zero();
    faas::Platform platform(sim, cluster, network, config, metrics);
    faas::RetryHandler retry(platform);
    platform.set_recovery_handler(&retry);
    const auto id = platform.submit_job(workloads::make_mapreduce_job(4, 2));
    sim.run();
    return platform.job_completion_time(id.value());
  }();

  const auto id = platform_->submit_job(workloads::make_mapreduce_job(4, 2));
  ASSERT_TRUE(id.ok());
  sim_.run();
  ASSERT_TRUE(platform_->job_completed(id.value()));
  // The failed mapper pushed the whole reduce stage out.
  EXPECT_GT(platform_->job_completion_time(id.value()), clean);
}

TEST_F(WorkflowTest, PipelineBuilderShape) {
  const auto job = workloads::make_pipeline_job(3, 2);
  ASSERT_EQ(job.functions.size(), 6u);
  EXPECT_TRUE(job.functions[0].depends_on.empty());
  EXPECT_EQ(job.functions[2].depends_on, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(job.functions[5].depends_on, (std::vector<std::size_t>{2, 3}));
}

TEST_F(WorkflowTest, PipelineRunsStageByStage) {
  const auto id = platform_->submit_job(workloads::make_pipeline_job(3, 2));
  ASSERT_TRUE(id.ok());
  sim_.run();
  ASSERT_TRUE(platform_->job_completed(id.value()));
  const auto& fns = platform_->job_functions(id.value());
  for (std::size_t stage = 1; stage < 3; ++stage) {
    TimePoint prev_done = TimePoint::origin();
    for (std::size_t w = 0; w < 2; ++w) {
      prev_done = std::max(
          prev_done,
          platform_->invocation(fns[(stage - 1) * 2 + w]).completion_time);
    }
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_GE(platform_->invocation(fns[stage * 2 + w]).first_dispatch_time,
                prev_done);
    }
  }
}

TEST(WorkflowHarnessTest, CanaryRecoversMapReduceFasterThanRetry) {
  const std::vector<faas::JobSpec> jobs = {workloads::make_mapreduce_job(20, 5)};
  auto run = [&](recovery::StrategyConfig strategy) {
    harness::ScenarioConfig config;
    config.strategy = strategy;
    config.error_rate = 0.3;
    config.cluster_nodes = 8;
    config.seed = 31;
    return harness::run_repetitions(config, jobs, 3);
  };
  const auto retry = run(recovery::StrategyConfig::retry());
  const auto canary = run(recovery::StrategyConfig::canary_full());
  EXPECT_EQ(retry.incomplete_runs, 0u);
  EXPECT_EQ(canary.incomplete_runs, 0u);
  EXPECT_LT(canary.total_recovery_s.mean(), retry.total_recovery_s.mean());
  EXPECT_LT(canary.makespan_s.mean(), retry.makespan_s.mean());
}

}  // namespace
}  // namespace canary
