// Tests for the workload model builders and the dollar-cost model.
#include <gtest/gtest.h>

#include "cost/cost_model.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

using workloads::WorkloadKind;

TEST(WorkloadSpecTest, DlTrainingShape) {
  const auto fn = workloads::dl_training_function();
  EXPECT_EQ(fn.runtime, faas::RuntimeImage::kDlTrain);
  EXPECT_EQ(fn.states.size(), 10u);
  // ResNet50 weights exceed the 4 MiB KV entry limit: spill path.
  EXPECT_GT(fn.states.front().checkpoint_payload, Bytes::mib(4));
  EXPECT_GT(fn.finalize, Duration::zero());
  EXPECT_EQ(fn.effective_memory().count(), Bytes::gib(4).count());
}

TEST(WorkloadSpecTest, WebServiceShape) {
  const auto fn = workloads::web_service_function();
  EXPECT_EQ(fn.states.size(), 50u);  // 50 requests
  EXPECT_EQ(fn.runtime, faas::RuntimeImage::kDbQuery);
  EXPECT_LT(fn.states.front().checkpoint_payload, Bytes::mib(1));
}

TEST(WorkloadSpecTest, GraphBfsShape) {
  const auto fn = workloads::graph_bfs_function();
  EXPECT_EQ(fn.states.size(), 50u);  // 50M vertices, ckpt per 1M
  EXPECT_EQ(fn.runtime, faas::RuntimeImage::kGraphBfsPy);
}

TEST(WorkloadSpecTest, CompressionAndSparkShapes) {
  EXPECT_EQ(workloads::compression_function().states.size(), 5u);
  EXPECT_EQ(workloads::spark_mining_function().states.size(), 16u);
  EXPECT_EQ(workloads::spark_mining_function().runtime,
            faas::RuntimeImage::kSparkDiversity);
}

TEST(WorkloadSpecTest, RuntimeProbeUsesRequestedImage) {
  const auto fn =
      workloads::runtime_probe_function(faas::RuntimeImage::kJava8, 4);
  EXPECT_EQ(fn.runtime, faas::RuntimeImage::kJava8);
  EXPECT_EQ(fn.states.size(), 4u);
  EXPECT_NE(fn.name.find("java8"), std::string::npos);
}

TEST(WorkloadJobTest, MakeJobNamesFunctions) {
  const auto job = workloads::make_job(WorkloadKind::kWebService, 5);
  EXPECT_EQ(job.functions.size(), 5u);
  EXPECT_EQ(job.name, "web-service");
  EXPECT_NE(job.functions[3].name.find("-3"), std::string::npos);
}

TEST(WorkloadJobTest, MixedBatchRoundRobinsKinds) {
  const auto job = workloads::make_mixed_batch(10);
  ASSERT_EQ(job.functions.size(), 10u);
  EXPECT_EQ(job.functions[0].runtime, faas::RuntimeImage::kDlTrain);
  EXPECT_EQ(job.functions[1].runtime, faas::RuntimeImage::kDbQuery);
  EXPECT_EQ(job.functions[5].runtime, faas::RuntimeImage::kDlTrain);
}

TEST(WorkloadJobTest, KindNames) {
  EXPECT_EQ(workloads::to_string_view(WorkloadKind::kDlTraining),
            "dl-training");
  EXPECT_EQ(workloads::to_string_view(WorkloadKind::kGraphBfs), "graph-bfs");
}

TEST(WorkloadSpecTest, TotalStateWork) {
  faas::FunctionSpec fn;
  fn.states = std::vector<faas::StateSpec>{{Duration::sec(1.0), {}},
                                           {Duration::sec(2.0), {}}};
  EXPECT_EQ(fn.total_state_work(), Duration::sec(3.0));
}

// ---- cost model ------------------------------------------------------------

faas::Container container_with(ContainerId id, Bytes memory,
                               faas::ContainerPurpose purpose,
                               TimePoint created) {
  faas::Container c;
  c.id = id;
  c.node = NodeId{1};
  c.image = faas::RuntimeImage::kPython3;
  c.memory = memory;
  c.purpose = purpose;
  c.created = created;
  return c;
}

TEST(CostModelTest, SingleContainerCost) {
  faas::UsageLedger ledger;
  ledger.open(container_with(ContainerId{1}, Bytes::gib(1),
                             faas::ContainerPurpose::kFunction,
                             TimePoint::origin()));
  ledger.close(ContainerId{1}, TimePoint::origin() + Duration::sec(100.0));
  cost::CostModel model;
  // 100 s * 1 GB * $0.000017.
  EXPECT_NEAR(model.cost_usd(ledger), 0.0017, 1e-9);
}

TEST(CostModelTest, BreakdownByPurpose) {
  faas::UsageLedger ledger;
  ledger.open(container_with(ContainerId{1}, Bytes::gib(1),
                             faas::ContainerPurpose::kFunction,
                             TimePoint::origin()));
  ledger.open(container_with(ContainerId{2}, Bytes::gib(2),
                             faas::ContainerPurpose::kRuntimeReplica,
                             TimePoint::origin()));
  ledger.open(container_with(ContainerId{3}, Bytes::gib(1),
                             faas::ContainerPurpose::kStandby,
                             TimePoint::origin()));
  const TimePoint end = TimePoint::origin() + Duration::sec(10.0);
  ledger.close_all_open(end);
  cost::CostModel model;
  const auto breakdown = model.breakdown(ledger);
  EXPECT_NEAR(breakdown.function_usd, 10 * 1 * 0.000017, 1e-12);
  EXPECT_NEAR(breakdown.replica_usd, 10 * 2 * 0.000017, 1e-12);
  EXPECT_NEAR(breakdown.standby_usd, 10 * 1 * 0.000017, 1e-12);
  EXPECT_NEAR(breakdown.rr_usd, 0.0, 1e-12);
  EXPECT_NEAR(breakdown.total_usd, model.cost_usd(ledger), 1e-12);
}

TEST(CostModelTest, OpenIntervalsExcludedUntilClosed) {
  faas::UsageLedger ledger;
  ledger.open(container_with(ContainerId{1}, Bytes::gib(1),
                             faas::ContainerPurpose::kFunction,
                             TimePoint::origin()));
  cost::CostModel model;
  EXPECT_EQ(model.cost_usd(ledger), 0.0);
  ledger.close_all_open(TimePoint::origin() + Duration::sec(1.0));
  EXPECT_GT(model.cost_usd(ledger), 0.0);
}

TEST(CostModelTest, ReopenedContainerClosesNewestInterval) {
  faas::UsageLedger ledger;
  auto c = container_with(ContainerId{1}, Bytes::gib(1),
                          faas::ContainerPurpose::kFunction,
                          TimePoint::origin());
  ledger.open(c);
  ledger.close(ContainerId{1}, TimePoint::origin() + Duration::sec(5.0));
  c.created = TimePoint::origin() + Duration::sec(10.0);
  ledger.open(c);
  ledger.close(ContainerId{1}, TimePoint::origin() + Duration::sec(12.0));
  EXPECT_EQ(ledger.records().size(), 2u);
  EXPECT_NEAR(ledger.total_gb_seconds(), 7.0, 1e-9);
}

}  // namespace
}  // namespace canary
