// Integration tests for the experiment harness: every strategy runs to
// completion, the paper's qualitative relationships hold, and runs are
// deterministic and reproducible.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/calibration.hpp"
#include "harness/experiment.hpp"
#include "harness/fan_out.hpp"
#include "workloads/workloads.hpp"

namespace canary::harness {
namespace {

std::vector<faas::JobSpec> small_web_jobs(std::size_t functions = 20) {
  return {workloads::make_job(workloads::WorkloadKind::kWebService, functions)};
}

ScenarioConfig base_config(recovery::StrategyConfig strategy,
                           double error_rate) {
  ScenarioConfig config;
  config.strategy = strategy;
  config.error_rate = error_rate;
  config.cluster_nodes = 8;
  config.seed = 1234;
  return config;
}

// Every strategy completes a faulty run.
class StrategyCompletionTest
    : public ::testing::TestWithParam<recovery::StrategyKind> {};

TEST_P(StrategyCompletionTest, CompletesUnderFailures) {
  recovery::StrategyConfig strategy;
  strategy.kind = GetParam();
  const auto result =
      ScenarioRunner::run(base_config(strategy, 0.3), small_web_jobs());
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_GT(result.cost_usd, 0.0);
  EXPECT_GT(result.simulated_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyCompletionTest,
    ::testing::Values(recovery::StrategyKind::kIdeal,
                      recovery::StrategyKind::kRetry,
                      recovery::StrategyKind::kCanary,
                      recovery::StrategyKind::kRequestReplication,
                      recovery::StrategyKind::kActiveStandby));

TEST(ScenarioRunnerTest, IdealHasNoFailures) {
  const auto result = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::ideal(), 0.5), small_web_jobs());
  EXPECT_EQ(result.failures, 0.0);
  EXPECT_EQ(result.total_recovery_s, 0.0);
  EXPECT_EQ(result.lost_work_s, 0.0);
}

TEST(ScenarioRunnerTest, DeterministicForSameSeed) {
  const auto config = base_config(recovery::StrategyConfig::canary_full(), 0.25);
  const auto a = ScenarioRunner::run(config, small_web_jobs());
  const auto b = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_recovery_s, b.total_recovery_s);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

TEST(ScenarioRunnerTest, SeedsChangeOutcomes) {
  auto config = base_config(recovery::StrategyConfig::retry(), 0.25);
  const auto a = ScenarioRunner::run(config, small_web_jobs());
  config.seed = 999;
  const auto b = ScenarioRunner::run(config, small_web_jobs());
  EXPECT_NE(a.total_recovery_s, b.total_recovery_s);
}

TEST(ScenarioRunnerTest, CanaryBeatsRetryOnRecovery) {
  const auto retry = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::retry(), 0.3), small_web_jobs());
  const auto canary = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::canary_full(), 0.3),
      small_web_jobs());
  EXPECT_LT(canary.total_recovery_s, retry.total_recovery_s * 0.5);
  EXPECT_LT(canary.makespan_s, retry.makespan_s);
}

TEST(ScenarioRunnerTest, RetryRecoveryGrowsWithErrorRate) {
  double last = 0.0;
  for (const double rate : {0.1, 0.3, 0.5}) {
    const auto result = ScenarioRunner::run(
        base_config(recovery::StrategyConfig::retry(), rate),
        small_web_jobs(40));
    EXPECT_GT(result.total_recovery_s, last);
    last = result.total_recovery_s;
  }
}

TEST(ScenarioRunnerTest, CanaryRecoveryStaysFlat) {
  // Paper Fig. 4/6: Canary's recovery stays "fairly constant" and close
  // to ideal while retry grows linearly.
  const auto low = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::canary_full(), 0.1),
      small_web_jobs(40));
  const auto high = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::canary_full(), 0.5),
      small_web_jobs(40));
  const auto retry_high = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::retry(), 0.5), small_web_jobs(40));
  // Canary at 50% errors still recovers far faster than retry at 50%.
  EXPECT_LT(high.total_recovery_s, retry_high.total_recovery_s * 0.4);
  // Per-failure recovery cost is stable across error rates.
  EXPECT_LT(high.mean_recovery_s, low.mean_recovery_s * 2.5 + 0.5);
}

TEST(ScenarioRunnerTest, NodeFailuresHandled) {
  auto config = base_config(recovery::StrategyConfig::canary_full(), 0.1);
  config.node_failure_offsets = {Duration::sec(3.0), Duration::sec(6.0)};
  const auto result = ScenarioRunner::run(config, small_web_jobs(30));
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.counters.at("node_failures"), 1.0);
}

TEST(ScenarioRunnerTest, RrAndAsCostMoreThanCanary) {
  // Paper Fig. 10: RR and AS cost up to 2.7x / 2.8x Canary.
  const auto canary = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::canary_full(), 0.2),
      small_web_jobs(30));
  const auto rr = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::request_replication(1), 0.2),
      small_web_jobs(30));
  const auto as = ScenarioRunner::run(
      base_config(recovery::StrategyConfig::active_standby(), 0.2),
      small_web_jobs(30));
  EXPECT_GT(rr.cost_usd, canary.cost_usd * 1.3);
  EXPECT_GT(as.cost_usd, canary.cost_usd * 1.1);
}

TEST(ScenarioRunnerTest, StorageHierarchyOverrideChangesCheckpointCosts) {
  // DL checkpoints spill; an NFS-only hierarchy makes every spill ~35x
  // slower than the testbed's ramdisk, which must show up in makespan.
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kDlTraining, 20)};
  auto config = base_config(recovery::StrategyConfig::canary_full(), 0.0);
  const auto testbed = ScenarioRunner::run(config, jobs);
  config.storage = cluster::StorageHierarchy({
      {cluster::StorageTier::kKvStore, Duration::usec(500), 900.0, 1200.0,
       Bytes::gib(8), true, true},
      {cluster::StorageTier::kNfs, Duration::msec(1), 110.0, 160.0,
       Bytes::gib(1024), true, true},
  });
  const auto lean = ScenarioRunner::run(config, jobs);
  EXPECT_TRUE(lean.completed);
  EXPECT_GT(lean.makespan_s, testbed.makespan_s + 1.0);
}

// ---- repetitions ---------------------------------------------------------

TEST(ExperimentTest, RepetitionsAggregate) {
  const auto agg =
      run_repetitions(base_config(recovery::StrategyConfig::retry(), 0.3),
                      small_web_jobs(), 5);
  EXPECT_EQ(agg.makespan_s.count(), 5u);
  EXPECT_EQ(agg.incomplete_runs, 0u);
  EXPECT_GT(agg.total_recovery_s.mean(), 0.0);
  EXPECT_GT(agg.failures.mean(), 0.0);
}

TEST(ExperimentTest, RepetitionsAreReproducible) {
  const auto config = base_config(recovery::StrategyConfig::canary_full(), 0.3);
  const auto a = run_repetitions(config, small_web_jobs(), 4);
  const auto b = run_repetitions(config, small_web_jobs(), 4);
  EXPECT_EQ(a.makespan_s.mean(), b.makespan_s.mean());
  EXPECT_EQ(a.cost_usd.mean(), b.cost_usd.mean());
}

TEST(ExperimentTest, RepetitionsVaryAcrossSeeds) {
  const auto agg =
      run_repetitions(base_config(recovery::StrategyConfig::retry(), 0.3),
                      small_web_jobs(), 6);
  EXPECT_GT(agg.total_recovery_s.stddev(), 0.0);
}

// ---- calibration twin ----------------------------------------------------

TEST(CalibrationTwinTest, ComponentsPartitionTheMeanWindow) {
  // A small checkpoint-only workload in the shape realexec_validate
  // measures: six 20 ms steps, 64 KiB checkpoints, a kill mid-run.
  CalibrationWorkload workload;
  workload.name = "census";
  workload.steps = 6;
  workload.step_exec = Duration::msec(20);
  workload.checkpoint_bytes = Bytes::kib(64);
  workload.kill_after_step = 2;
  workload.strategy = recovery::StrategyConfig::canary_checkpoint_only();
  workload.repetitions = 3;
  const CalibrationTwinResult twin = run_calibration_twin(workload);
  ASSERT_GE(twin.recoveries, 1u);
  EXPECT_GT(twin.window_s, 0.0);
  EXPECT_NEAR(twin.components.total(), twin.window_s, 1e-3);
}

TEST(CalibrationTwinTest, CensusKillAfterCommitMeasuresRestoreAndReExec) {
  // Census steps are short (1.9 ms) next to the twin's startup (launch +
  // init, 18 ms), so a kill placed at the real run's wall offset would
  // land before the first step. Placed after the commit of step 2, it
  // costs a checkpoint restore and a re-run of step 3.
  CalibrationWorkload workload;
  workload.name = "census";
  workload.steps = 6;
  workload.step_exec = Duration::usec(1900);
  workload.checkpoint_bytes = Bytes::kib(2344);
  workload.kill_after_step = 2;
  workload.strategy = recovery::StrategyConfig::canary_checkpoint_only();
  workload.repetitions = 3;
  const CalibrationTwinResult twin = run_calibration_twin(workload);
  ASSERT_GE(twin.recoveries, 1u);
  EXPECT_GT(twin.components[obs::PathComponent::kRestore], 0.0);
  EXPECT_GT(twin.components[obs::PathComponent::kReExec], 0.0);
}

// ---- fan-out -------------------------------------------------------------

TEST(FanOutTest, ResultsComeBackInIndexOrderAtAnyWorkerCount) {
  for (const unsigned workers : {0u, 1u, 3u, 64u}) {
    const std::vector<std::string> out = fan_out(
        17, workers, [](std::size_t i) { return std::to_string(i * i); });
    ASSERT_EQ(out.size(), 17u) << "workers=" << workers;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], std::to_string(i * i)) << "workers=" << workers;
    }
  }
  EXPECT_TRUE(fan_out(0, 4, [](std::size_t i) { return i; }).empty());
}

TEST(FanOutTest, RethrowsATaskException) {
  EXPECT_THROW(fan_out(8, 4,
                       [](std::size_t i) -> int {
                         if (i == 5) throw std::runtime_error("task 5");
                         return 0;
                       }),
               std::runtime_error);
}

TEST(ExperimentTest, HelperMath) {
  EXPECT_DOUBLE_EQ(reduction_pct(10.0, 2.0), 80.0);
  EXPECT_DOUBLE_EQ(overhead_pct(10.0, 11.0), 10.0);
  EXPECT_DOUBLE_EQ(reduction_pct(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(overhead_pct(0.0, 5.0), 0.0);
}

}  // namespace
}  // namespace canary::harness
