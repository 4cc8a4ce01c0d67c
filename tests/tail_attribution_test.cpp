// End-to-end tests for the tail-latency attribution view: a seeded
// node-failure scenario must yield, for every target percentile, the
// nearest-rank completion of its group, whose component attribution sums
// to its measured latency within one simulated millisecond — the
// acceptance bound that makes "61% of the p99.9 is detection" an exact
// statement rather than an estimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/report.hpp"
#include "obs/tail_analyzer.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

harness::ScenarioConfig attribution_scenario() {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.2;
  config.cluster_nodes = 8;
  config.seed = 90210;
  // A node failure mid-run puts detection + restore into the tail, so
  // the attribution has non-trivial components to partition.
  config.node_failure_offsets.push_back(Duration::sec(6.0));
  config.attribution = true;
  return config;
}

std::vector<faas::JobSpec> attribution_jobs() {
  std::vector<faas::JobSpec> jobs;
  jobs.push_back(workloads::make_mixed_batch(24));
  return jobs;
}

TEST(TailAttributionTest, AttributionSumsToMeasuredLatencyWithinOneMs) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.completed);
  ASSERT_TRUE(run.attribution.has_value());
  ASSERT_FALSE(run.attribution->tail.groups.empty());

  for (const obs::TailGroup& group : run.attribution->tail.groups) {
    ASSERT_EQ(group.percentiles.size(), obs::kTailPercentiles.size());
    for (const obs::TailAttribution& a : group.percentiles) {
      EXPECT_GT(a.samples, 0u) << group.metric << " p" << a.percentile;
      // The representative's latency vs. its causal partition: the two
      // are derived independently (root-to-completion timestamps vs.
      // the component sum) and must agree to 1 sim-ms.
      EXPECT_NEAR(a.attributed_s, a.latency_s, 1e-3)
          << group.metric << " p" << a.percentile << " trace " << a.trace;
    }
  }
}

TEST(TailAttributionTest, RepresentativeIsTheNearestRankCompletion) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.attribution.has_value());
  const obs::TailReport& tail = run.attribution->tail;
  ASSERT_NE(run.events, nullptr);
  ASSERT_FALSE(run.events->truncated());

  // Rebuild every group straight from the log: a function's latency runs
  // from its first event to its kComplete, and its family comes from its
  // kSubmit/kQueued name.
  struct Function {
    TimePoint root;
    TimePoint completed = TimePoint::max();
    std::string family;
  };
  std::map<FunctionId, Function> functions;
  for (const obs::Event& event : *run.events) {
    if (!event.function().valid()) continue;
    const auto [it, first] = functions.try_emplace(event.function());
    Function& fn = it->second;
    if (first) fn.root = event.at();
    if ((event.kind() == obs::EventKind::kSubmit ||
         event.kind() == obs::EventKind::kQueued) &&
        fn.family.empty()) {
      fn.family =
          obs::base_function_name(run.events->text(event.name()).view());
    }
    if (event.kind() == obs::EventKind::kComplete &&
        fn.completed == TimePoint::max()) {
      fn.completed = event.at();
    }
  }
  std::map<std::string, std::vector<std::pair<Duration, FunctionId>>> groups;
  for (const auto& [id, fn] : functions) {
    if (fn.completed == TimePoint::max()) continue;
    const auto entry = std::make_pair(fn.completed - fn.root, id);
    groups["tail_latency"].push_back(entry);
    groups["tail_latency.fn." + fn.family].push_back(entry);
  }

  ASSERT_EQ(tail.groups.size(), groups.size());
  for (const obs::TailGroup& group : tail.groups) {
    const auto it = groups.find(group.metric);
    ASSERT_NE(it, groups.end()) << group.metric;
    std::vector<std::pair<Duration, FunctionId>>& sorted = it->second;
    std::sort(sorted.begin(), sorted.end());  // by (latency, function id)
    const auto n = static_cast<double>(sorted.size());
    ASSERT_EQ(group.percentiles.size(), obs::kTailPercentiles.size());
    for (const obs::TailAttribution& a : group.percentiles) {
      EXPECT_EQ(a.samples, sorted.size()) << group.metric;
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(a.percentile / 100.0 * n - 1e-9)));
      const auto& [latency, function] = sorted[rank - 1];
      EXPECT_EQ(a.function, function.value())
          << group.metric << " p" << a.percentile << ": rank " << rank
          << " of " << sorted.size();
      EXPECT_EQ(a.latency_s, latency.to_seconds())
          << group.metric << " p" << a.percentile;
    }
  }
}

TEST(TailAttributionTest, PerFamilyHistogramsGetTheirOwnGroups) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.attribution.has_value());
  bool run_wide = false;
  bool per_family = false;
  for (const obs::TailGroup& group : run.attribution->tail.groups) {
    if (group.metric == "tail_latency") run_wide = true;
    if (group.metric.rfind("tail_latency.fn.", 0) == 0) per_family = true;
  }
  EXPECT_TRUE(run_wide) << "missing the run-wide tail_latency group";
  EXPECT_TRUE(per_family) << "missing per-function-family groups";
}

TEST(TailAttributionTest, TimeSeriesRollupsCoverTheRun) {
  const harness::RunResult run =
      harness::ScenarioRunner::run(attribution_scenario(), attribution_jobs());
  ASSERT_TRUE(run.attribution.has_value());
  const obs::TimeSeries& series = run.attribution->timeseries;
  ASSERT_FALSE(series.windows().empty());

  double completions = 0.0;
  double node_failures = 0.0;
  std::int64_t prev_start = -1;
  for (const obs::TimeSeries::Window& w : series.windows()) {
    EXPECT_GT(w.start.count_usec(), prev_start) << "windows out of order";
    prev_start = w.start.count_usec();
    const auto c = w.counters.find("completions");
    if (c != w.counters.end()) completions += c->second;
    const auto n = w.counters.find("node_failures");
    if (n != w.counters.end()) node_failures += n->second;
  }
  EXPECT_GT(completions, 0.0) << "no completion landed in any window";
  EXPECT_EQ(node_failures, 1.0) << "the injected node failure is missing";
}

TEST(TailAttributionTest, DisabledLeavesReportWithoutAttributionSections) {
  harness::ScenarioConfig config = attribution_scenario();
  config.attribution = false;
  const std::vector<faas::JobSpec> jobs = attribution_jobs();

  const harness::Aggregate agg = harness::run_repetitions(config, jobs, 2);
  EXPECT_FALSE(agg.attribution.has_value());
  const std::string json =
      harness::make_report("tail_off_probe", config, agg).to_json();
  EXPECT_NE(json.find("canary.run_report/v3"), std::string::npos);
  EXPECT_EQ(json.find("\"tail\""), std::string::npos);
  EXPECT_EQ(json.find("\"timeseries\""), std::string::npos);
  // No tail group may appear when attribution is off.
  EXPECT_EQ(json.find("tail_latency"), std::string::npos);
}

TEST(TailAttributionTest, EnabledAddsTailAndTimeSeriesSections) {
  const harness::ScenarioConfig config = attribution_scenario();
  const std::vector<faas::JobSpec> jobs = attribution_jobs();

  const harness::Aggregate agg = harness::run_repetitions(config, jobs, 2);
  EXPECT_TRUE(agg.attribution.has_value());
  const std::string json =
      harness::make_report("tail_on_probe", config, agg).to_json();
  EXPECT_NE(json.find("canary.run_report/v3"), std::string::npos);
  EXPECT_NE(json.find("\"tail\""), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"attributed_s\""), std::string::npos);
}

TEST(TailAttributionTest, AttributionTurnsTheEventLogOn) {
  // The switch needs the log, so it turns it on like record_spans does:
  // with record_events off the run still yields both views, and the
  // same report as with the log requested explicitly.
  harness::ScenarioConfig unlogged = attribution_scenario();
  unlogged.record_events = false;
  const std::vector<faas::JobSpec> jobs = attribution_jobs();
  const harness::RunResult run = harness::ScenarioRunner::run(unlogged, jobs);
  ASSERT_TRUE(run.attribution.has_value());
  EXPECT_FALSE(run.attribution->tail.groups.empty());
  EXPECT_FALSE(run.attribution->timeseries.windows().empty());

  const auto render = [](const harness::ScenarioConfig& config,
                         const harness::RunResult& result) {
    harness::Aggregate agg;
    agg.add(result);
    return harness::make_report("log_probe", config, agg).to_json();
  };
  const harness::ScenarioConfig logged = attribution_scenario();
  EXPECT_EQ(render(unlogged, run),
            render(logged, harness::ScenarioRunner::run(logged, jobs)));
}

TEST(TailAttributionTest, RepetitionMergeIsDeterministicAndAssociative) {
  const harness::ScenarioConfig config = attribution_scenario();
  const std::vector<faas::JobSpec> jobs = attribution_jobs();

  // Merging A into B and B into A must pick the same representative:
  // the deeper-tail one, ties toward the smaller trace id.
  harness::ScenarioConfig other = config;
  other.seed = config.seed + 1;
  const harness::RunResult a = harness::ScenarioRunner::run(config, jobs);
  const harness::RunResult b = harness::ScenarioRunner::run(other, jobs);

  ASSERT_TRUE(a.attribution.has_value() && b.attribution.has_value());
  obs::TailReport ab = a.attribution->tail;
  ab.merge(b.attribution->tail);
  obs::TailReport ba = b.attribution->tail;
  ba.merge(a.attribution->tail);

  ASSERT_EQ(ab.groups.size(), ba.groups.size());
  for (std::size_t g = 0; g < ab.groups.size(); ++g) {
    EXPECT_EQ(ab.groups[g].metric, ba.groups[g].metric);
    ASSERT_EQ(ab.groups[g].percentiles.size(),
              ba.groups[g].percentiles.size());
    for (std::size_t i = 0; i < ab.groups[g].percentiles.size(); ++i) {
      const obs::TailAttribution& x = ab.groups[g].percentiles[i];
      const obs::TailAttribution& y = ba.groups[g].percentiles[i];
      EXPECT_EQ(x.samples, y.samples);
      EXPECT_EQ(x.trace, y.trace) << ab.groups[g].metric << " p"
                                  << x.percentile;
      EXPECT_DOUBLE_EQ(x.latency_s, y.latency_s);
    }
  }
}

}  // namespace
}  // namespace canary
