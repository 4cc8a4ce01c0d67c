// Byte-level determinism: the same scenario run twice in the same
// process must produce byte-identical run_report JSON and
// byte-identical chrome-trace output. This is the property the figure
// pipeline (and CI's cross-run `cmp`) relies on, asserted here without
// touching the filesystem so it also runs under sanitizers cheaply.
//
// In-process repetition is the stricter variant of CI's two-process
// check: it additionally catches state leaking between runs through
// globals, statics, or allocator-address-dependent ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/scenario_internal.hpp"
#include "obs/chrome_trace.hpp"
#include "realexec/backend.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

harness::ScenarioConfig scenario_under_test() {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.15;
  config.cluster_nodes = 8;
  config.seed = 20220101;
  config.node_failure_offsets.push_back(Duration::sec(5.0));
  config.record_spans = true;
  config.record_events = true;
  return config;
}

std::vector<faas::JobSpec> jobs_under_test() {
  std::vector<faas::JobSpec> jobs;
  jobs.push_back(workloads::make_mixed_batch(12));
  jobs.push_back(workloads::make_mapreduce_job(4, 2));
  return jobs;
}

std::string render_report(const harness::Aggregate& agg) {
  obs::RunReport report =
      harness::make_report("determinism_probe", scenario_under_test(), agg);
  return report.to_json();
}

/// The chrome trace, with the counter track when attribution ran.
std::string render_trace(const harness::RunResult& result) {
  std::ostringstream out;
  obs::write_chrome_trace(
      out, result.spans.get(), result.events.get(),
      result.attribution ? &result.attribution->timeseries : nullptr);
  return out.str();
}

TEST(DeterminismTest, RunReportJsonIsByteIdenticalAcrossRuns) {
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string first =
      render_report(harness::run_repetitions(config, jobs, 3));
  const std::string second =
      render_report(harness::run_repetitions(config, jobs, 3));

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "run_report JSON diverged between runs";
  EXPECT_NE(first.find("canary.run_report/v3"), std::string::npos);
}

TEST(DeterminismTest, ChromeTraceIsByteIdenticalAcrossRuns) {
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const harness::RunResult a = harness::ScenarioRunner::run(config, jobs);
  const harness::RunResult b = harness::ScenarioRunner::run(config, jobs);

  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  ASSERT_NE(a.spans, nullptr);
  ASSERT_NE(a.events, nullptr);

  const std::string trace_a = render_trace(a);
  const std::string trace_b = render_trace(b);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b) << "chrome trace diverged between runs";
}

TEST(SpanTimelineTest, EveryStrategyMarksWhatItsLogRecords) {
  // The timeline is derived from the causal log, so the two cannot
  // disagree: under every strategy, each recovery action the log records
  // has its recovery instant, and each warm provisioning its span.
  const std::vector<faas::JobSpec> jobs = jobs_under_test();
  for (const recovery::StrategyConfig& strategy :
       {recovery::StrategyConfig::canary_full(),
        recovery::StrategyConfig::retry(),
        recovery::StrategyConfig::hedged(),
        recovery::StrategyConfig::active_standby(),
        recovery::StrategyConfig::request_replication()}) {
    SCOPED_TRACE(strategy.label());
    harness::ScenarioConfig config = scenario_under_test();
    config.strategy = strategy;
    const harness::RunResult run = harness::ScenarioRunner::run(config, jobs);
    ASSERT_NE(run.spans, nullptr);
    ASSERT_NE(run.events, nullptr);
    EXPECT_EQ(run.spans_recorded, run.spans->size());
    std::size_t actions = 0;
    for (const obs::Event& event : *run.events) {
      if (event.kind() == obs::EventKind::kRecoveryAction) {
        ++actions;
        const auto marks = std::count_if(
            run.spans->begin(), run.spans->end(), [&](const obs::Span& s) {
              return s.kind == obs::SpanKind::kRecovery && s.instant &&
                     s.name == event.name() && s.start == event.at() &&
                     s.labels.function == event.function();
            });
        EXPECT_EQ(marks, 1) << run.events->text(event.name()).view() << " at "
                            << event.at().count_usec();
      } else if (event.kind() == obs::EventKind::kReplica &&
                 event.name() == obs::Name::kReplicaProvision) {
        const auto provisions = std::count_if(
            run.spans->begin(), run.spans->end(), [&](const obs::Span& s) {
              return s.kind == obs::SpanKind::kReplication &&
                     s.start == event.at() &&
                     s.labels.container == event.labels().container;
            });
        EXPECT_EQ(provisions, 1) << "container "
                                 << event.labels().container.value();
      }
    }
    EXPECT_GT(actions, 0u) << "the scenario exercised no recovery";
  }
}

TEST(DeterminismTest, AttributionSectionsAreByteIdenticalAcrossRuns) {
  // The attribution sections (tail + timeseries) must be as deterministic
  // as the rest of the report: both are derived from the event log,
  // repetition merge is associative, and window rollups key off sim time
  // only.
  harness::ScenarioConfig config = scenario_under_test();
  config.attribution = true;
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string first =
      render_report(harness::run_repetitions(config, jobs, 3));
  const std::string second =
      render_report(harness::run_repetitions(config, jobs, 3));

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "attribution report JSON diverged between runs";
  EXPECT_NE(first.find("canary.run_report/v3"), std::string::npos);
  EXPECT_NE(first.find("\"tail\""), std::string::npos);
  EXPECT_NE(first.find("\"timeseries\""), std::string::npos);
}

TEST(DeterminismTest, AttributionOffKeepsArtifactsByteIdentical) {
  // The attribution switch's contract: when off (the default), the
  // report carries the one schema tag and neither attribution section,
  // the run carries no attribution, and the chrome trace has no counter
  // track.
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string report =
      render_report(harness::run_repetitions(config, jobs, 2));
  EXPECT_NE(report.find("canary.run_report/v3"), std::string::npos);
  EXPECT_EQ(report.find("\"tail\""), std::string::npos);
  EXPECT_EQ(report.find("\"timeseries\""), std::string::npos);
  EXPECT_EQ(report.find("dropped_by_kind"), std::string::npos);

  const harness::RunResult run = harness::ScenarioRunner::run(config, jobs);
  EXPECT_FALSE(run.attribution.has_value());
  EXPECT_EQ(render_trace(run).find("\"ph\":\"C\""), std::string::npos);
}

TEST(DeterminismTest, RealBackendUnselectedLeavesSimArtifactsByteIdentical) {
  // The substrate seam's contract: linking the real-execution backend —
  // and even running it, forks, SIGKILLs and all — must not perturb a
  // single byte of the simulator's artifacts. The sim side is the
  // attribution report + chrome trace this suite already pins; the
  // figure benches (fig04/06/09/11) are the same pipeline, held
  // byte-identical by CI's cross-run cmp against pre-generated artifacts.
  harness::ScenarioConfig config = scenario_under_test();
  config.attribution = true;
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string report_before =
      render_report(harness::run_repetitions(config, jobs, 2));
  const harness::RunResult run_before = harness::ScenarioRunner::run(config, jobs);
  const std::string trace_before = render_trace(run_before);

  // Exercise the real backend in between: fork workers, kill one
  // mid-execution, recover from a checkpoint.
  realexec::RealScenarioConfig real;
  real.kernel = realexec::KernelKind::kCensus;
  real.seed = 33;
  real.size_param = 200'000;
  real.steps_total = 8;
  real.policy = realexec::RecoveryPolicy::kCheckpointRestore;
  real.kill_after_commit_step = 2;
  real.kills = 1;
  real.heartbeat_interval = Duration::msec(60);
  real.timeout_multiplier = 5.0;
  realexec::RealBackend backend;
  const realexec::RealScenarioResult real_result = backend.run(real);
  ASSERT_TRUE(real_result.completed);
  ASSERT_TRUE(real_result.violations.empty());

  const std::string report_after =
      render_report(harness::run_repetitions(config, jobs, 2));
  const harness::RunResult run_after = harness::ScenarioRunner::run(config, jobs);

  EXPECT_EQ(report_before, report_after)
      << "running the real backend perturbed the sim report";
  EXPECT_EQ(trace_before, render_trace(run_after))
      << "running the real backend perturbed the chrome trace";
  EXPECT_NE(report_before.find("\"timeseries\""), std::string::npos);
}

// ---- sharded execution: worker-count invariance -----------------------
//
// The sharded path's contract: the partition count fixes the model,
// worker threads only map partitions onto cores. With partitions pinned
// at 8, the merged report and the multi-process chrome trace must be
// byte-identical at workers ∈ {1, 2, 4, 8} — with and without traffic,
// hedging, and attribution enabled.

harness::ScenarioConfig sharded_scenario(unsigned workers) {
  harness::ScenarioConfig config = scenario_under_test();
  config.cluster_nodes = 48;  // 6 nodes per partition
  config.sharding.partitions = 8;
  config.sharding.workers = workers;
  return config;
}

std::vector<faas::JobSpec> sharded_jobs() {
  std::vector<faas::JobSpec> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(workloads::make_mixed_batch(4 + i % 5));
  }
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(workloads::make_mapreduce_job(4, 2));
  }
  return jobs;
}

void add_traffic(harness::ScenarioConfig& config) {
  config.traffic.enabled = true;
  config.traffic.horizon = Duration::sec(10.0);
  for (int s = 0; s < 8; ++s) {
    traffic::StreamConfig stream;
    stream.name = "det-stream-" + std::to_string(s);
    faas::StateSpec state;
    state.duration = Duration::msec(150 + 40 * s);
    state.checkpoint_payload = Bytes::of(128 * 1024);
    stream.fn.states = faas::StateTable(1, state);
    stream.fn.finalize = Duration::msec(40);
    stream.arrival.rate_hz = 4.0 + s;
    stream.sla = Duration::sec(6.0);
    stream.admission.max_concurrent = 6;
    stream.admission.queue_capacity = 16;
    config.traffic.streams.push_back(std::move(stream));
  }
  config.traffic.autoscaler.enabled = true;
  config.traffic.autoscaler.max_warm = 6;
}

void add_hedging(harness::ScenarioConfig& config) {
  recovery::HedgeConfig hedge;
  hedge.percentile = 90.0;
  hedge.min_samples = 6;
  hedge.initial_delay = Duration::msec(800);
  hedge.max_outstanding = 8;
  config.strategy = recovery::StrategyConfig::hedged(hedge);
  harness::ScenarioConfig::GrayFailure gray;
  gray.at = Duration::sec(3.0);
  config.gray_failures.push_back(gray);
}

void add_attribution(harness::ScenarioConfig& config) {
  config.attribution = true;
}

void add_partitions(harness::ScenarioConfig& config) {
  // The v3 partition surface, active inside every partition: a zone
  // bipartition that fences the slice's minority side, plus a correlated
  // zone outage landing on the already-fenced nodes (skipped kills).
  config.detection.enabled = true;
  config.detection.heartbeat_interval = Duration::msec(250);
  config.detection.timeout_multiplier = 2.0;
  config.detection.confirm_multiplier = 1.0;
  config.detection.sweep_interval = Duration::msec(100);
  config.detection.horizon = Duration::sec(600.0);
  config.fault_domain_spread = true;
  harness::ScenarioConfig::PartitionFault window;
  window.at = Duration::sec(2.0);
  window.duration = Duration::sec(3.0);
  window.zone = 1;
  config.partitions.push_back(window);
  config.zone_outages.push_back({Duration::sec(6.0), 1});
}

std::string render_sharded_report(const harness::RunResult& result,
                                  const harness::ScenarioConfig& config) {
  harness::Aggregate agg;
  agg.add(result);
  return harness::make_report("shard_probe", config, agg).to_json();
}

/// Every shard's spans, events and series, one trace document per shard,
/// concatenated in shard order.
std::string render_sharded_trace(const harness::RunResult& result) {
  std::ostringstream out;
  for (const auto& shard : result.shards) {
    obs::write_chrome_trace(out, shard->spans.get(), shard->events.get(),
                            shard->attribution
                                ? &shard->attribution->timeseries
                                : nullptr);
  }
  return out.str();
}

void expect_worker_invariant(
    const std::function<void(harness::ScenarioConfig&)>& mutate) {
  const std::vector<faas::JobSpec> jobs = sharded_jobs();
  std::string reference_report;
  std::string reference_trace;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    harness::ScenarioConfig config = sharded_scenario(workers);
    if (mutate) mutate(config);
    const harness::RunResult result =
        harness::ScenarioRunner::run(config, jobs);
    ASSERT_EQ(result.shards.size(), 8u);
    const std::string report = render_sharded_report(result, config);
    const std::string trace = render_sharded_trace(result);
    ASSERT_FALSE(report.empty());
    ASSERT_FALSE(trace.empty());
    if (workers == 1) {
      reference_report = report;
      reference_trace = trace;
      continue;
    }
    EXPECT_EQ(report, reference_report)
        << "merged report diverged at workers=" << workers;
    EXPECT_EQ(trace, reference_trace)
        << "sharded trace diverged at workers=" << workers;
  }
}

TEST(ShardInvarianceTest, ReportAndTraceInvariantAcrossWorkerCounts) {
  expect_worker_invariant(nullptr);
}

TEST(ShardInvarianceTest, InvariantWithTraffic) {
  expect_worker_invariant([](harness::ScenarioConfig& c) { add_traffic(c); });
}

TEST(ShardInvarianceTest, InvariantWithHedging) {
  expect_worker_invariant([](harness::ScenarioConfig& c) { add_hedging(c); });
}

TEST(ShardInvarianceTest, InvariantWithAttribution) {
  expect_worker_invariant(
      [](harness::ScenarioConfig& c) { add_attribution(c); });
}

TEST(ShardInvarianceTest, InvariantWithPartitions) {
  // Worker invariance with the partition surface ENABLED: zone cuts,
  // logical fencing, and the correlated outage resolve inside each
  // partition, so the worker count still must not change a byte.
  expect_worker_invariant(
      [](harness::ScenarioConfig& c) { add_partitions(c); });
}

TEST(DeterminismTest, PartitionSurfaceOffKeepsArtifactsByteIdentical) {
  // The partition-off contract: a scenario that never schedules a
  // partition, zone outage, or fault-domain spread produces a report and
  // trace with zero v3-surface artifacts — the same bytes a pre-surface
  // build would emit (CI cross-checks the figure outputs the same way).
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const std::string report =
      render_report(harness::run_repetitions(config, jobs, 2));
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.find("partitions_started"), std::string::npos);
  EXPECT_EQ(report.find("zombie_commit_attempts"), std::string::npos);
  EXPECT_EQ(report.find("stale_epoch_rejects"), std::string::npos);
  EXPECT_EQ(report.find("nodes_fenced_logical"), std::string::npos);
  EXPECT_EQ(report.find("heartbeats_partition_dropped"), std::string::npos);

  const harness::RunResult run = harness::ScenarioRunner::run(config, jobs);
  EXPECT_EQ(run.injected.partitions_started, 0u);
  EXPECT_EQ(run.injected.zone_outages, 0u);
  EXPECT_EQ(run.metrics.counter("heartbeats_partition_dropped"), 0.0);
  EXPECT_EQ(run.kv_stale_epoch_rejects, 0u);
  EXPECT_EQ(run.kv_quorum_blocked_puts, 0u);
  const std::string trace = render_trace(run);
  EXPECT_EQ(trace.find("partition_start"), std::string::npos);
  EXPECT_EQ(trace.find("partition_heal"), std::string::npos);
  EXPECT_EQ(trace.find("node_fenced"), std::string::npos);
  EXPECT_EQ(trace.find("injected_zone_outage"), std::string::npos);
}

// A partition is exactly the standalone scenario derive_partition_config
// describes: running it inside a sharded run must not change one model
// result, its bill included — a partition's cost may not depend on how
// long the other partitions ran.
void expect_partitions_match_standalone(const harness::ScenarioConfig& config,
                                        const std::vector<faas::JobSpec>& jobs) {
  const unsigned partitions = config.sharding.partitions;
  const harness::RunResult sharded = harness::ScenarioRunner::run(config, jobs);
  ASSERT_EQ(sharded.shards.size(), partitions);
  for (unsigned p = 0; p < partitions; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    std::vector<faas::JobSpec> part_jobs;
    for (std::size_t j = p; j < jobs.size(); j += partitions) {
      part_jobs.push_back(jobs[j]);
    }
    const harness::RunResult alone = harness::ScenarioRunner::run(
        harness::internal::derive_partition_config(config, p, partitions),
        part_jobs);
    const harness::RunResult& shard = *sharded.shards[p];
    EXPECT_EQ(shard.makespan_s, alone.makespan_s);
    EXPECT_EQ(shard.total_recovery_s, alone.total_recovery_s);
    EXPECT_EQ(shard.lost_work_s, alone.lost_work_s);
    EXPECT_EQ(shard.failures, alone.failures);
    EXPECT_EQ(shard.simulated_events, alone.simulated_events);
    EXPECT_EQ(shard.counters, alone.counters);
    EXPECT_EQ(shard.cost_usd, alone.cost_usd);
    EXPECT_EQ(shard.usage_gb_seconds, alone.usage_gb_seconds);
  }
}

TEST(ShardInvarianceTest, PartitionsMatchStandaloneRuns) {
  expect_partitions_match_standalone(sharded_scenario(4), sharded_jobs());
  // Sharded chaos scenarios, with and without the partition overlay.
  for (const std::uint64_t seed : {30001u, 30002u}) {
    SCOPED_TRACE("sharded chaos seed " + std::to_string(seed));
    const harness::ChaosScenario s =
        harness::make_chaos_scenario({.partitions = 4}, seed);
    expect_partitions_match_standalone(s.config, s.jobs);
  }
  for (const std::uint64_t seed : {10004u, 10008u}) {
    SCOPED_TRACE("sharded partition chaos seed " + std::to_string(seed));
    const harness::ChaosScenario s = harness::make_chaos_scenario(
        {.partition = true, .partitions = 4}, seed);
    expect_partitions_match_standalone(s.config, s.jobs);
  }
}

TEST(ShardInvarianceTest, ShardingOffIsUntouched) {
  // One partition (the default) must route through the monolithic path
  // and leave no sharded artifacts behind.
  const harness::RunResult result =
      harness::ScenarioRunner::run(scenario_under_test(), jobs_under_test());
  EXPECT_TRUE(result.shards.empty());
}

TEST(DeterminismTest, HeadlineScalarsAreReproducible) {
  const harness::ScenarioConfig config = scenario_under_test();
  const std::vector<faas::JobSpec> jobs = jobs_under_test();

  const harness::RunResult a = harness::ScenarioRunner::run(config, jobs);
  const harness::RunResult b = harness::ScenarioRunner::run(config, jobs);

  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_recovery_s, b.total_recovery_s);
  EXPECT_EQ(a.lost_work_s, b.lost_work_s);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
  EXPECT_EQ(a.metrics.counters(), b.metrics.counters());
}

}  // namespace
}  // namespace canary
