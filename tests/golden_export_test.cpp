// Golden export digests: the exact bytes of one run report and one chrome
// trace, pinned as FNV-1a hashes.
//
// The determinism tests prove that a run serialises to the same bytes
// twice; they cannot see a change that moves every run's bytes the same
// way (a record that drops a field, a name rendered differently, a
// reordered export). This test pins the bytes themselves. The scenario is
// the smoke `run_report` entry's shape — Canary with dynamic replication
// on a 40-function web-service job, a node failure at 8 s, a 60 s SLA —
// with spans and events on, so both exporters walk every record kind the
// log holds for a Canary recovery. Its outcome depends on no
// unordered-container iteration order.
//
// A change that moves these bytes on purpose re-pins both constants and
// says why; any other change must leave them alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/chrome_trace.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

/// 64-bit FNV-1a of `bytes`, as 16 lowercase hex digits.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

harness::ScenarioConfig golden_config() {
  harness::ScenarioConfig config;
  config.strategy =
      recovery::StrategyConfig::canary_full(core::ReplicationMode::kDynamic);
  config.strategy.canary.sla_aware = true;
  config.error_rate = 0.2;
  config.cluster_nodes = 16;
  config.seed = 7;
  config.node_failure_offsets = {Duration::sec(8.0)};
  config.record_spans = true;
  config.record_events = true;
  return config;
}

std::vector<faas::JobSpec> golden_jobs() {
  faas::JobSpec job = workloads::make_job(workloads::WorkloadKind::kWebService,
                                          /*functions=*/40);
  job.sla = Duration::sec(60.0);
  return {job};
}

TEST(GoldenExportTest, RunReportBytesArePinned) {
  const harness::Aggregate agg =
      harness::run_repetitions(golden_config(), golden_jobs(), 3);
  const std::string json =
      harness::make_report("golden_export", golden_config(), agg).to_json();
  ASSERT_EQ(agg.incomplete_runs, 0u);
  ASSERT_GT(agg.breakdown.recovery_count, 0u);
  ASSERT_GT(agg.breakdown.slo_targets, 0u);
  EXPECT_EQ(fnv1a_hex(json), "8b4ea4e48aaef857") << json.size() << " bytes";
}

TEST(GoldenExportTest, ChromeTraceBytesArePinned) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(golden_config(), golden_jobs());
  ASSERT_TRUE(run.completed);
  ASSERT_NE(run.spans, nullptr);
  ASSERT_NE(run.events, nullptr);
  EXPECT_EQ(run.events_dropped, 0u);
  std::ostringstream out;
  obs::write_chrome_trace(out, run.spans.get(), run.events.get());
  const std::string trace = out.str();
  EXPECT_EQ(fnv1a_hex(trace), "cffd336c81143f0c") << trace.size() << " bytes";
}

// The same run with attribution on adds the counter tracks: one "C"
// record per stream and window of a run-scale time series.
TEST(GoldenExportTest, ChromeTraceWithTimeSeriesBytesArePinned) {
  harness::ScenarioConfig config = golden_config();
  config.attribution = true;
  const harness::RunResult run =
      harness::ScenarioRunner::run(config, golden_jobs());
  ASSERT_TRUE(run.completed);
  ASSERT_TRUE(run.attribution.has_value());
  ASSERT_GT(run.attribution->timeseries.windows().size(), 1u);
  std::ostringstream out;
  obs::write_chrome_trace(out, run.spans.get(), run.events.get(),
                          &run.attribution->timeseries);
  const std::string trace = out.str();
  EXPECT_EQ(fnv1a_hex(trace), "9f412b3f63634bec") << trace.size() << " bytes";
}

}  // namespace
}  // namespace canary
