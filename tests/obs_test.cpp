// Tests for the observability layer: span timeline, tail attribution and
// time series derivation from the causal log, histogram percentile math,
// deterministic JSON exporters, and byte-identical run reports across
// identical seeded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/event_log.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metric_registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/tail_analyzer.hpp"
#include "obs/time_series.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

using obs::EventKind;
using obs::EventLog;
using obs::Histogram;
using obs::JsonWriter;
using obs::MetricRegistry;
using obs::RunReport;
using obs::Span;
using obs::SpanKind;
using obs::SpanLabels;

// ---------------------------------------------------------------------------
// derive_spans
// ---------------------------------------------------------------------------

TimePoint at_us(std::int64_t usec) { return TimePoint::from_usec(usec); }

SpanLabels fn_labels(std::uint64_t function, int attempt = 1) {
  return SpanLabels{JobId{1}, FunctionId{function}, ContainerId{function},
                    NodeId{1}, attempt};
}

/// Hand-built log helper: one trace per function, events chained in
/// append order.
struct LogBuilder {
  EventLog log;
  std::vector<obs::TraceContext> traces;

  explicit LogBuilder(std::size_t capacity = 1u << 20) : log(capacity) {}

  obs::EventId add(EventKind kind, std::string_view name, std::int64_t usec,
                   SpanLabels labels, obs::EventId cause = obs::kNoEvent) {
    const std::size_t slot = labels.function.value();
    if (traces.size() <= slot) traces.resize(slot + 1);
    if (!traces[slot].valid()) traces[slot].trace = log.new_trace();
    return log.extend(traces[slot], kind, log.intern(name), at_us(usec),
                      labels, cause);
  }
};

void expect_span(const EventLog& log, const Span& span, SpanKind kind,
                 std::string_view name, std::int64_t start, std::int64_t end) {
  const obs::NameText text = log.text(span.name);
  EXPECT_EQ(span.kind, kind);
  EXPECT_EQ(text.view(), name);
  EXPECT_EQ(span.start, at_us(start)) << text.view();
  EXPECT_EQ(span.end, at_us(end)) << text.view();
}

TEST(DeriveSpansTest, PhaseChainClosesEachPhaseAtTheNext) {
  LogBuilder b;
  b.add(EventKind::kSubmit, "fn", 0, fn_labels(1));
  b.add(EventKind::kLaunch, "launch", 10, fn_labels(1));
  b.add(EventKind::kInit, "init", 40, fn_labels(1));
  b.add(EventKind::kExec, "exec", 55, fn_labels(1));
  b.add(EventKind::kStateCommit, "state_0", 80, fn_labels(1));
  b.add(EventKind::kFinalize, "finalize", 90, fn_labels(1));
  b.add(EventKind::kComplete, "complete", 97, fn_labels(1));

  const std::vector<Span> spans = obs::derive_spans(b.log, at_us(500));
  ASSERT_EQ(spans.size(), 4u);
  expect_span(b.log, spans[0], SpanKind::kLaunch, "launch", 10, 40);
  expect_span(b.log, spans[1], SpanKind::kInit, "init", 40, 55);
  expect_span(b.log, spans[2], SpanKind::kExec, "exec", 55, 90);
  // The completion closes the last phase; nothing waits for `end`.
  expect_span(b.log, spans[3], SpanKind::kFinalize, "finalize", 90, 97);
  for (const Span& span : spans) {
    EXPECT_FALSE(span.instant);
    EXPECT_EQ(span.labels.function, FunctionId{1});
    EXPECT_EQ(span.labels.attempt, 1);
  }
  EXPECT_EQ(spans.capacity(), spans.size());  // sized by the counting pass
}

TEST(DeriveSpansTest, InterleavedFunctionsCloseIndependently) {
  // Two invocations' phases interleave in the log; each phase closes at
  // its own function's next step, never at the other's.
  LogBuilder b;
  b.add(EventKind::kLaunch, "launch", 0, fn_labels(1));
  b.add(EventKind::kRestore, "warm_dispatch", 5, fn_labels(2));
  b.add(EventKind::kExec, "exec", 20, fn_labels(2));
  b.add(EventKind::kInit, "init", 30, fn_labels(1));
  b.add(EventKind::kComplete, "complete", 60, fn_labels(2));
  b.add(EventKind::kExec, "exec", 70, fn_labels(1));
  b.add(EventKind::kComplete, "complete", 95, fn_labels(1));

  const std::vector<Span> spans = obs::derive_spans(b.log, at_us(500));
  ASSERT_EQ(spans.size(), 5u);
  expect_span(b.log, spans[0], SpanKind::kLaunch, "launch", 0, 30);
  expect_span(b.log, spans[1], SpanKind::kRestore, "warm_dispatch", 5, 20);
  expect_span(b.log, spans[2], SpanKind::kExec, "exec", 20, 60);
  expect_span(b.log, spans[3], SpanKind::kInit, "init", 30, 70);
  expect_span(b.log, spans[4], SpanKind::kExec, "exec", 70, 95);
  EXPECT_EQ(spans[1].labels.function, FunctionId{2});
  EXPECT_EQ(spans[3].labels.function, FunctionId{1});
}

TEST(DeriveSpansTest, FailureRecoveryCheckpointAndReplication) {
  LogBuilder b;
  SpanLabels replica;
  replica.container = ContainerId{9};
  replica.node = NodeId{3};
  obs::TraceContext warm;
  warm.trace = b.log.new_trace();
  b.log.extend(warm, EventKind::kReplica, obs::Name::kReplicaProvision,
               at_us(2), replica);
  b.add(EventKind::kExec, "exec", 10, fn_labels(1));
  b.add(EventKind::kStateCommit, "state_0", 40, fn_labels(1));
  b.log.append_checkpoint(b.traces[1], 0, at_us(40), fn_labels(1),
                          Duration::usec(6));
  SpanLabels node_only;
  node_only.node = NodeId{1};
  const obs::EventId node_failure = b.log.append_raw(
      b.log.new_trace(), obs::kNoEvent, EventKind::kNodeFailure,
      obs::Name::kNodeFailure, at_us(50), node_only);
  const obs::EventId failure = b.add(EventKind::kFailure, "node_failure", 50,
                                     fn_labels(1), node_failure);
  b.log.append(warm, EventKind::kReplica, obs::Name::kReplicaReady, at_us(52),
               replica);
  b.add(EventKind::kDetect, "detect", 60, fn_labels(1));
  b.add(EventKind::kRecoveryAction, "replica_recovery", 60, fn_labels(1));
  b.add(EventKind::kRestore, "warm_dispatch", 60, fn_labels(1, 2));
  b.add(EventKind::kExec, "exec", 70, fn_labels(1, 2));
  b.add(EventKind::kRecovered, "recovered", 85, fn_labels(1, 2), failure);
  b.add(EventKind::kComplete, "complete", 90, fn_labels(1, 2));
  // A completion with nothing open is a no-op.
  b.add(EventKind::kComplete, "complete", 91, fn_labels(1, 2));

  const std::vector<Span> spans = obs::derive_spans(b.log, at_us(500));
  ASSERT_EQ(spans.size(), 9u);
  // Output order is event order.
  expect_span(b.log, spans[0], SpanKind::kReplication, "replica_provision", 2, 52);
  EXPECT_EQ(spans[0].labels.container, ContainerId{9});
  EXPECT_EQ(spans[0].labels.node, NodeId{3});
  // The failure closed the attempt's exec phase at the kill.
  expect_span(b.log, spans[1], SpanKind::kExec, "exec", 10, 50);
  // Checkpoint span: the write window ending at the commit.
  expect_span(b.log, spans[2], SpanKind::kCheckpoint, "checkpoint", 34, 40);
  expect_span(b.log, spans[3], SpanKind::kNodeFailure, "node_failure", 50, 50);
  EXPECT_TRUE(spans[3].instant);
  EXPECT_FALSE(spans[3].labels.function.valid());
  expect_span(b.log, spans[4], SpanKind::kFailure, "node_failure", 50, 50);
  EXPECT_TRUE(spans[4].instant);
  expect_span(b.log, spans[5], SpanKind::kRecovery, "replica_recovery", 60, 60);
  EXPECT_TRUE(spans[5].instant);
  expect_span(b.log, spans[6], SpanKind::kRestore, "warm_dispatch", 60, 70);
  expect_span(b.log, spans[7], SpanKind::kExec, "exec", 70, 90);
  // The recovery window runs from its cause (the failure) to regained work.
  expect_span(b.log, spans[8], SpanKind::kRecovery, "recovery", 50, 85);
  EXPECT_FALSE(spans[8].instant);
  EXPECT_EQ(spans[8].labels.attempt, 2);
}

TEST(DeriveSpansTest, UnfinishedSpansCloseAtEnd) {
  LogBuilder b;
  SpanLabels replica;
  replica.container = ContainerId{4};
  obs::TraceContext warm;
  warm.trace = b.log.new_trace();
  b.log.extend(warm, EventKind::kReplica, obs::Name::kReplicaProvision,
               at_us(5), replica);
  b.add(EventKind::kLaunch, "launch", 10, fn_labels(1));
  b.add(EventKind::kExec, "exec", 20, fn_labels(2));
  // A ready for a container with no open provision closes nothing.
  SpanLabels stranger;
  stranger.container = ContainerId{7};
  b.log.append_raw(b.log.new_trace(), obs::kNoEvent, EventKind::kReplica,
                   obs::Name::kReplicaReady, at_us(30), stranger);

  const std::vector<Span> spans = obs::derive_spans(b.log, at_us(100));
  ASSERT_EQ(spans.size(), 3u);
  expect_span(b.log, spans[0], SpanKind::kReplication, "replica_provision", 5, 100);
  expect_span(b.log, spans[1], SpanKind::kLaunch, "launch", 10, 100);
  expect_span(b.log, spans[2], SpanKind::kExec, "exec", 20, 100);
}

TEST(DeriveSpansTest, TruncatedLogTruncatesTheTimeline) {
  // The timeline is a view of the log: events the capacity cap dropped
  // leave their spans missing or unclosed, and the drop count says so.
  LogBuilder b(/*capacity=*/2);
  b.add(EventKind::kLaunch, "launch", 10, fn_labels(1));
  b.add(EventKind::kExec, "exec", 20, fn_labels(1));
  b.add(EventKind::kFinalize, "finalize", 30, fn_labels(1));
  b.add(EventKind::kComplete, "complete", 35, fn_labels(1));
  EXPECT_EQ(b.log.dropped(), 2u);

  const std::vector<Span> spans = obs::derive_spans(b.log, at_us(40));
  ASSERT_EQ(spans.size(), 2u);
  expect_span(b.log, spans[0], SpanKind::kLaunch, "launch", 10, 20);
  expect_span(b.log, spans[1], SpanKind::kExec, "exec", 20, 40);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExactStatsAndEdgePercentiles) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(50.0), 0.0);
  for (double v : {4.0, 1.0, 3.0, 2.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 5.0);
}

TEST(HistogramTest, PercentileWithinRelativeErrorBound) {
  // Log-linear bucketing with 64 sub-buckets per octave bounds the
  // relative quantile error at ~1/64; check against the exact empirical
  // percentiles of a deterministic sample set.
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> dist(0.001, 90.0);
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {50.0, 95.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::min<double>(values.size() - 1, p / 100.0 * values.size()));
    const double exact = values[rank];
    EXPECT_NEAR(h.percentile(p), exact, exact * 0.02)
        << "p" << p << " outside the bucketing error bound";
  }
}

TEST(HistogramTest, MergeMatchesConcatenatedStream) {
  Histogram a, b, both;
  for (int i = 1; i <= 100; ++i) {
    const double v = 0.37 * i;
    (i % 2 == 0 ? a : b).record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p));
  }
}

TEST(HistogramTest, NegativeValuesClampButCount) {
  Histogram h;
  h.record(-2.5);
  h.record(1.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -2.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), -2.5);
}

TEST(HistogramTest, PercentileEdgeTable) {
  // Pin the nearest-rank contract (rank = ceil(p/100 * n), 1-based) on a
  // table of edge cases. Values are well separated so each lands in its
  // own bucket; the 2% bound is the log-linear bucketing error, not
  // slack in the rank math — a rank off by one selects a neighbouring
  // value, 2x away, and fails loudly.
  struct Case {
    std::size_t n;       // record 1.0, 2.0, ..., n
    double p;
    double expected;     // value at the nearest rank
  };
  const Case kCases[] = {
      {1, 50.0, 1.0},      // a single sample is every percentile
      {1, 99.9, 1.0},
      {2, 50.0, 1.0},      // ceil(1.0) == 1: the lower sample
      {2, 50.1, 2.0},      // just past the boundary: the upper one
      {4, 25.0, 1.0},      // exact boundary ranks must not round up...
      {4, 50.0, 2.0},
      {4, 75.0, 3.0},
      {4, 76.0, 4.0},      // ...but anything past them must
      {10, 10.0, 1.0},
      {10, 90.0, 9.0},
      {10, 91.0, 10.0},
      // FP-rank guard: 0.975 * 40 is 39.000000000000007 in binary;
      // without the guard ceil() inflates the rank to 40 and p97.5
      // reports the max instead of the 39th sample.
      {40, 97.5, 39.0},
      {40, 2.5, 1.0},
      {1000, 99.9, 999.0},
  };
  for (const Case& c : kCases) {
    Histogram h;
    for (std::size_t i = 1; i <= c.n; ++i) h.record(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(c.p), c.expected, c.expected * 0.02)
        << "n=" << c.n << " p=" << c.p;
  }
}

// ---------------------------------------------------------------------------
// attribute_tail
// ---------------------------------------------------------------------------

TEST(AttributeTailTest, PicksTheNearestRankCompletionOfEachGroup) {
  LogBuilder b;
  const auto sec = [](double s) { return static_cast<std::int64_t>(s * 1e6); };
  std::vector<obs::EventId> completes(8, obs::kNoEvent);
  const auto complete = [&](std::uint64_t fn, double at) {
    completes[fn] = b.add(EventKind::kComplete, "complete", sec(at),
                          fn_labels(fn));
  };
  // Two families. alpha-0 and alpha-1 tie at 3 s, and alpha-1 completes
  // first; beta-0 is open-loop, so its window starts at its kQueued
  // arrival, 2 s before its kSubmit. alpha-3 never completes and beta-2
  // is shed: neither is in any group.
  b.add(EventKind::kSubmit, "alpha-1", 0, fn_labels(2));
  b.add(EventKind::kSubmit, "alpha-2", 0, fn_labels(3));
  b.add(EventKind::kQueued, "beta-0", 0, fn_labels(4));
  b.add(EventKind::kSubmit, "alpha-3", 0, fn_labels(6));
  b.add(EventKind::kQueued, "beta-2", 0, fn_labels(7));
  b.add(EventKind::kExec, "exec", sec(0.2), fn_labels(3));
  b.add(EventKind::kExec, "exec", sec(1.0), fn_labels(2));
  complete(3, 1.0);
  b.add(EventKind::kSubmit, "beta-1", sec(1.0), fn_labels(5));
  b.add(EventKind::kExec, "exec", sec(1.0), fn_labels(6));
  b.add(EventKind::kShed, "beta-2", sec(1.0), fn_labels(7));
  b.add(EventKind::kExec, "exec", sec(1.5), fn_labels(5));
  b.add(EventKind::kSubmit, "alpha-0", sec(2.0), fn_labels(1));
  b.add(EventKind::kSubmit, "beta-0", sec(2.0), fn_labels(4));
  b.add(EventKind::kExec, "exec", sec(2.5), fn_labels(1));
  complete(2, 3.0);
  b.add(EventKind::kExec, "exec", sec(3.0), fn_labels(4));
  complete(5, 3.0);
  complete(1, 5.0);
  complete(4, 9.0);
  b.add(EventKind::kStateCommit, "state_0", sec(20.0), fn_labels(6));

  const obs::CriticalPathAnalyzer paths(b.log);
  const obs::TailReport report = obs::attribute_tail(paths);

  struct Expected {
    std::string metric;
    std::uint64_t samples;
    // Representative function and its latency at p50 / p99 / p99.9.
    std::array<std::uint64_t, 3> function;
    std::array<double, 3> latency_s;
  };
  // Sorted by (latency, id): run-wide alpha-2 1 s, beta-1 2 s, alpha-0
  // 3 s, alpha-1 3 s, beta-0 9 s — the p50 (rank 3) is alpha-0, the
  // smaller id of the tie.
  const std::vector<Expected> expected = {
      {"tail_latency", 5, {1, 4, 4}, {3.0, 9.0, 9.0}},
      {"tail_latency.fn.alpha", 3, {1, 2, 2}, {3.0, 3.0, 3.0}},
      {"tail_latency.fn.beta", 2, {5, 4, 4}, {2.0, 9.0, 9.0}},
  };
  ASSERT_EQ(report.groups.size(), expected.size());
  for (std::size_t g = 0; g < expected.size(); ++g) {
    const obs::TailGroup& group = report.groups[g];
    EXPECT_EQ(group.metric, expected[g].metric);
    ASSERT_EQ(group.percentiles.size(), obs::kTailPercentiles.size());
    for (std::size_t i = 0; i < group.percentiles.size(); ++i) {
      const obs::TailAttribution& a = group.percentiles[i];
      EXPECT_EQ(a.percentile, obs::kTailPercentiles[i]);
      EXPECT_EQ(a.samples, expected[g].samples) << group.metric;
      EXPECT_EQ(a.function, expected[g].function[i])
          << group.metric << " p" << a.percentile;
      EXPECT_DOUBLE_EQ(a.latency_s, expected[g].latency_s[i])
          << group.metric << " p" << a.percentile;
      EXPECT_NEAR(a.attributed_s, a.latency_s, 1e-9);
      EXPECT_EQ(a.trace, b.log.find(completes[a.function])->trace().value());
    }
  }
  // The open-loop window includes its 2 s admission wait.
  const obs::TailAttribution& open_loop = report.groups[0].percentiles[1];
  EXPECT_DOUBLE_EQ(open_loop.components[obs::PathComponent::kQueueing], 2.0);
  EXPECT_DOUBLE_EQ(open_loop.components[obs::PathComponent::kScheduling],
                   1.0);
  EXPECT_DOUBLE_EQ(open_loop.components[obs::PathComponent::kExec], 6.0);
}

// ---------------------------------------------------------------------------
// derive_time_series
// ---------------------------------------------------------------------------

std::int64_t sec_us(double s) { return static_cast<std::int64_t>(s * 1e6); }

obs::TimeSeries derive_series(const EventLog& log, std::size_t nodes = 8) {
  return obs::derive_time_series(log, obs::CriticalPathAnalyzer(log), nodes);
}

using Values = std::map<std::string, double>;

TEST(DeriveTimeSeriesTest, EachEventLandsInItsStreamAndWindow) {
  LogBuilder b;
  // Function 1 is open-loop: queued at 0.5 s, submitted at 2.2 s.
  // kQueued, kSubmit and kExec record nothing, so the series opens at the
  // first cold start (window 2 s) and the trailing kExec adds no window.
  b.add(EventKind::kQueued, "web-1", sec_us(0.5), fn_labels(1));
  b.add(EventKind::kSubmit, "web-1", sec_us(2.2), fn_labels(1));
  b.add(EventKind::kSubmit, "web-2", sec_us(2.2), fn_labels(2));
  b.add(EventKind::kLaunch, "launch", sec_us(2.4), fn_labels(1));
  b.add(EventKind::kExec, "exec", sec_us(2.6), fn_labels(2));
  const obs::EventId failure = b.add(EventKind::kFailure, "container_kill",
                                     sec_us(3.1), fn_labels(2));
  b.add(EventKind::kDetect, "detect", sec_us(3.3), fn_labels(2));
  b.add(EventKind::kExec, "exec", sec_us(4.0), fn_labels(1));
  b.add(EventKind::kRecovered, "recovered", sec_us(5.6), fn_labels(2, 2),
        failure);
  b.add(EventKind::kComplete, "complete", sec_us(5.9), fn_labels(1));
  b.add(EventKind::kShed, "web-3", sec_us(5.9), fn_labels(3));
  b.add(EventKind::kExec, "exec", sec_us(9.0), fn_labels(2, 2));

  const obs::TimeSeries series = derive_series(b.log);
  ASSERT_EQ(series.windows().size(), 4u);
  EXPECT_EQ(series.evicted(), 0u);
  const auto& w = series.windows();
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].start, at_us(sec_us(2.0 + static_cast<double>(i))));
    EXPECT_TRUE(w[i].levels.empty());
  }
  EXPECT_EQ(w[0].counters, (Values{{"cold_starts", 1.0}}));
  EXPECT_EQ(w[1].counters, (Values{{"detections", 1.0}, {"failures", 1.0}}));
  EXPECT_TRUE(w[2].counters.empty());  // a gap is a window with no events
  EXPECT_EQ(w[3].counters, (Values{{"completions", 1.0},
                                   {"recoveries", 1.0},
                                   {"shed", 1.0}}));
  EXPECT_TRUE(w[0].samples.empty() && w[1].samples.empty() &&
              w[2].samples.empty());
  ASSERT_EQ(w[3].samples.size(), 2u);
  // Latency runs from the kQueued arrival (5.9 - 0.5), not from kSubmit.
  const Histogram& latency = w[3].samples.at("latency");
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_DOUBLE_EQ(latency.min(), 5.4);
  EXPECT_DOUBLE_EQ(latency.max(), 5.4);
  // Recovery time runs along the kRecovered cause edge (5.6 - 3.1).
  const Histogram& recovery = w[3].samples.at("recovery_time");
  EXPECT_EQ(recovery.count(), 1u);
  EXPECT_DOUBLE_EQ(recovery.sum(), 2.5);
}

TEST(DeriveTimeSeriesTest, NodesUpCountsDownOnNodeFailureAndFence) {
  LogBuilder b;
  const auto ambient = [&](EventKind kind, const char* name, double at,
                           std::uint64_t node) {
    SpanLabels labels;
    labels.node = NodeId{node};
    b.log.append_raw(b.log.new_trace(), obs::kNoEvent, kind,
                     b.log.intern(name), at_us(sec_us(at)), labels);
  };
  ambient(EventKind::kNodeFailure, "node_failure", 1.5, 2);
  ambient(EventKind::kAnnotation, "node_fenced", 3.2, 3);
  // Any other annotation (a mirrored log line) leaves the level alone.
  ambient(EventKind::kAnnotation, "worker 4 slow", 4.1, 4);

  const obs::TimeSeries series = derive_series(b.log, 8);
  ASSERT_EQ(series.windows().size(), 3u);
  const auto& w = series.windows();
  EXPECT_EQ(w[0].start, at_us(sec_us(1.0)));
  EXPECT_EQ(w[0].counters, (Values{{"node_failures", 1.0}}));
  EXPECT_EQ(w[0].levels, (Values{{"nodes_up", 7.0}}));
  EXPECT_TRUE(w[1].counters.empty() && w[1].levels.empty());
  EXPECT_TRUE(w[2].counters.empty());
  EXPECT_EQ(w[2].levels, (Values{{"nodes_up", 6.0}}));
}

TEST(DeriveTimeSeriesTest, HedgeCancelledOnThePrimaryIsAWin) {
  LogBuilder b;
  // Race A: clone 2 of primary 1 finishes first, so the primary is the
  // cancelled copy. Race B: primary 3 beats clone 4.
  b.add(EventKind::kSubmit, "fn-1", sec_us(0.1), fn_labels(1));
  b.add(EventKind::kSubmit, "fn-3", sec_us(0.1), fn_labels(3));
  b.add(EventKind::kHedged, "hedged", sec_us(0.5), fn_labels(1));
  b.add(EventKind::kSubmit, "fn-1", sec_us(0.5), fn_labels(2));
  b.add(EventKind::kHedged, "hedged", sec_us(0.6), fn_labels(3));
  b.add(EventKind::kSubmit, "fn-3", sec_us(0.6), fn_labels(4));
  b.add(EventKind::kComplete, "complete", sec_us(1.2), fn_labels(2));
  b.add(EventKind::kHedgeCancelled, "hedge_cancelled", sec_us(1.2),
        fn_labels(1));
  b.add(EventKind::kComplete, "complete", sec_us(1.2), fn_labels(1));
  b.add(EventKind::kComplete, "complete", sec_us(2.3), fn_labels(3));
  b.add(EventKind::kHedgeCancelled, "hedge_cancelled", sec_us(2.3),
        fn_labels(4));
  b.add(EventKind::kComplete, "complete", sec_us(2.3), fn_labels(4));

  const obs::TimeSeries series = derive_series(b.log);
  ASSERT_EQ(series.windows().size(), 3u);
  const auto& w = series.windows();
  EXPECT_EQ(w[0].counters, (Values{{"hedges_fired", 2.0}}));
  EXPECT_EQ(w[1].counters, (Values{{"completions", 2.0}, {"hedge_wins", 1.0}}));
  EXPECT_EQ(w[2].counters,
            (Values{{"completions", 2.0}, {"hedge_cancelled", 1.0}}));
  // The winning clone is measured from its own kSubmit (1.2 - 0.5).
  EXPECT_DOUBLE_EQ(w[1].samples.at("latency").min(), 0.7);
  EXPECT_DOUBLE_EQ(w[1].samples.at("latency").max(), 1.1);
}

TEST(DeriveTimeSeriesTest, RingKeeps512WindowsAndCountsEvictions) {
  LogBuilder b;
  b.add(EventKind::kLaunch, "launch", 0, fn_labels(1));
  b.add(EventKind::kLaunch, "launch", sec_us(599.5), fn_labels(2));

  const obs::TimeSeries series = derive_series(b.log);
  ASSERT_EQ(series.windows().size(), obs::kTimeSeriesMaxWindows);
  EXPECT_EQ(series.windows().size(), 512u);
  EXPECT_EQ(series.evicted(), 88u);
  EXPECT_EQ(series.windows().front().start, at_us(sec_us(88.0)));
  EXPECT_TRUE(series.windows().front().counters.empty());
  EXPECT_EQ(series.windows().back().start, at_us(sec_us(599.0)));
  EXPECT_EQ(series.windows().back().counters, (Values{{"cold_starts", 1.0}}));
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, MergeAddsCountersAndMergesHistograms) {
  MetricRegistry a, b;
  a.count("failures", 3);
  b.count("failures", 2);
  b.count("recoveries");
  a.set_gauge("replicas", 1.0);
  b.set_gauge("replicas", 4.0);
  a.sample("lat", 1.0);
  b.sample("lat", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter("failures"), 5.0);
  EXPECT_DOUBLE_EQ(a.counter("recoveries"), 1.0);
  EXPECT_DOUBLE_EQ(a.counter("never_touched"), 0.0);
  EXPECT_DOUBLE_EQ(a.gauge("replicas"), 4.0);  // last writer wins
  EXPECT_EQ(a.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("lat").mean(), 2.0);
  EXPECT_TRUE(a.histogram("missing").empty());
}

// ---------------------------------------------------------------------------
// JSON writer + exporters
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndFormatsDeterministically) {
  EXPECT_EQ(JsonWriter::format_double(42.0), "42");
  EXPECT_EQ(JsonWriter::format_double(0.5), "0.5");
  EXPECT_EQ(JsonWriter::format_double(std::nan("")), "null");

  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object()
      .field("name", "x")
      .field("n", 3)
      .key("arr")
      .begin_array()
      .value(1.5)
      .value(true)
      .end_array()
      .end_object();
  EXPECT_EQ(os.str(), R"({"name":"x","n":3,"arr":[1.5,true]})");
}

/// Empty and nested objects and arrays, in objects and in arrays.
void write_shapes(JsonWriter& w) {
  w.begin_object();
  w.key("empty_object").begin_object().end_object();
  w.key("empty_array").begin_array().end_array();
  w.key("nested").begin_object().key("list").begin_array();
  w.begin_object().field("a", 1).end_object();
  w.begin_array().end_array();
  w.begin_array().value(2).value(3).end_array();
  w.end_array().end_object();
  w.end_object();
}

TEST(JsonWriterTest, GoldenShapesCompact) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  write_shapes(w);
  EXPECT_EQ(os.str(),
            R"({"empty_object":{},"empty_array":[],)"
            R"("nested":{"list":[{"a":1},[],[2,3]]}})");
}

TEST(JsonWriterTest, GoldenShapesIndented) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/2);
  write_shapes(w);
  EXPECT_EQ(os.str(), R"({
  "empty_object": {},
  "empty_array": [],
  "nested": {
    "list": [
      {
        "a": 1
      },
      [],
      [
        2,
        3
      ]
    ]
  }
})");
}

TEST(JsonWriterTest, GoldenTopLevelArrays) {
  std::ostringstream compact, indented;
  for (std::ostringstream* os : {&compact, &indented}) {
    JsonWriter w(*os, os == &compact ? 0 : 2);
    w.begin_array().value("x").begin_object().end_object().end_array();
  }
  EXPECT_EQ(compact.str(), R"(["x",{}])");
  EXPECT_EQ(indented.str(), "[\n  \"x\",\n  {}\n]");

  std::ostringstream empty;
  JsonWriter(empty, /*indent=*/2).begin_array().end_array();
  EXPECT_EQ(empty.str(), "[]");
}

TEST(JsonWriterTest, GoldenEveryValueOverload) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_array();
  w.value(std::string_view("view")).value("literal").value(std::string());
  w.value(0).value(-7).value(std::numeric_limits<int>::max());
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(std::uint64_t{0}).value(std::numeric_limits<std::uint64_t>::max());
  w.value(true).value(false);
  w.value(42.0).value(0.5).value(-0.25).value(0.0).value(-3.0);
  w.value(1e15).value(1e-7).value(1.0 / 3.0).value(123456789.125);
  w.value(std::nan("")).value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(),
            R"(["view","literal","",0,-7,2147483647,)"
            R"(-9223372036854775808,9223372036854775807,)"
            R"(0,18446744073709551615,true,false,)"
            R"(42,0.5,-0.25,0,-3,1e+15,1e-07,0.333333333333,123456789.125,)"
            R"(null,null,null])");
}

TEST(JsonWriterTest, GoldenEscapesInKeysAndValues) {
  // Every escaped byte, a control byte with a hex letter, and UTF-8 and
  // DEL bytes, which pass through unchanged.
  const std::string raw =
      std::string("q\"b\\n\nr\rt\t") + '\x01' + '\x1f' + "\xc3\xa9\x7f.";
  const std::string escaped =
      "q\\\"b\\\\n\\nr\\rt\\t\\u0001\\u001f\xc3\xa9\x7f.";
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object().field(raw, raw).field("\"", "\\").end_object();
  EXPECT_EQ(os.str(), "{\"" + escaped + "\":\"" + escaped +
                          "\",\"\\\"\":\"\\\\\"}");
}

TEST(JsonWriterTest, DocumentLongerThanTwoChunksMatchesConcatenation) {
  std::ostringstream os;
  std::string expected = "{\"records\":[";
  // One string longer than a whole chunk, with an escape inside it.
  const std::string long_value =
      std::string(100'000, 'a') + '\n' + std::string(50'000, 'b');
  {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object().key("records").begin_array();
    for (std::int64_t i = 0; i < 6000; ++i) {
      const std::string name =
          "span-" + std::to_string(i) + std::string(i % 7, 'x');
      const std::int64_t ts = i * 1'000'003 - 5'000'000;
      w.begin_object().field("name", name).field("ts", ts).end_object();
      if (i > 0) expected += ',';
      expected +=
          "{\"name\":\"" + name + "\",\"ts\":" + std::to_string(ts) + "}";
    }
    w.end_array();
    w.field("long", long_value);
    w.end_object();
  }
  expected += "],\"long\":\"" + std::string(100'000, 'a') + "\\n" +
              std::string(50'000, 'b') + "\"}";
  ASSERT_GT(expected.size(), 2u * 64 * 1024 + 150'000);
  EXPECT_EQ(os.str(), expected);
}

TEST(JsonWriterTest, DocumentReachesTheStreamWhenTheOutermostCloses) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/2);
  w.begin_object().key("inner").begin_object().field("k", 1).end_object();
  EXPECT_EQ(os.str(), "");  // still buffered inside the open document
  w.end_object();
  os << '\n';  // what the report and trace writers do next
  EXPECT_EQ(os.str(), "{\n  \"inner\": {\n    \"k\": 1\n  }\n}\n");
}

TEST(JsonWriterTest, BareScalarReachesTheStreamOnFlushOrDestruction) {
  std::ostringstream flushed, destroyed;
  {
    JsonWriter w(flushed, /*indent=*/0);
    w.value(7);
    EXPECT_EQ(flushed.str(), "");
    EXPECT_TRUE(w.flush());
    EXPECT_EQ(flushed.str(), "7");
  }
  JsonWriter(destroyed, /*indent=*/0).value("s");
  EXPECT_EQ(destroyed.str(), "\"s\"");
}

/// Accepts the first `limit` bytes written to it, then refuses the rest.
class FailingBuf final : public std::streambuf {
 public:
  explicit FailingBuf(std::size_t limit) : limit_(limit) {}
  const std::string& accepted() const { return accepted_; }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    if (accepted_.size() >= limit_) return traits_type::eof();
    accepted_.push_back(traits_type::to_char_type(ch));
    return ch;
  }

 private:
  std::size_t limit_;
  std::string accepted_;
};

TEST(JsonWriterTest, StreamThatFailsPartwayIsNotGood) {
  FailingBuf buf(100);
  std::ostream os(&buf);
  JsonWriter w(os, /*indent=*/0);
  w.begin_array();
  for (int i = 0; i < 20'000; ++i) w.value("element");
  EXPECT_FALSE(os.good());  // a full chunk was handed over and refused
  w.end_array();
  EXPECT_FALSE(os.good());
  EXPECT_FALSE(w.flush());
  EXPECT_EQ(buf.accepted(), R"(["element","element","element","element",)"
                            R"("element","element","element","element",)"
                            R"("element","element")");
}

TEST(RunReportTest, JsonRoundTripContainsEveryField) {
  RunReport report;
  report.name = "unit";
  report.set_param("strategy", "canary-dr");
  report.set_param("error_rate", 0.25);
  report.set_scalar("makespan_s_mean", 12.5);
  report.metrics.count("failures", 7);
  report.metrics.sample("lat", 2.0);
  report.series.push_back({"sweep", {"x", "y"}, {{"1", "2"}, {"3", "4"}}});
  report.add_claim("recovers faster", 81.0, "%");

  const std::string json = report.to_json();
  // Structural sanity: braces balance and all sections are present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  for (const char* needle :
       {"\"schema\": \"canary.run_report/v3\"", "\"name\": \"unit\"",
        "\"strategy\": \"canary-dr\"", "\"error_rate\": \"0.25\"",
        "\"makespan_s_mean\": 12.5", "\"failures\": 7", "\"lat\"",
        "\"p50\"", "\"sweep\"", "\"recovers faster\"", "\"measured\": 81"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
  // Serialisation is a pure function of the report's contents.
  EXPECT_EQ(json, report.to_json());
}

TEST(ChromeTraceTest, EmitsCompleteAndInstantEvents) {
  const std::vector<Span> spans = {
      Span{SpanKind::kExec, obs::Name::kExec, at_us(100), at_us(400),
           /*instant=*/false,
           SpanLabels{JobId{1}, FunctionId{2}, ContainerId{3}, NodeId{4}, 1}},
      Span{SpanKind::kFailure, obs::Name::kContainerKill, at_us(250),
           at_us(250), /*instant=*/true, SpanLabels{}},
  };

  std::ostringstream os;
  obs::write_chrome_trace(os, &spans, nullptr);
  const std::string json = os.str();
  // The exporter emits compact JSON (no whitespace after separators).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":300"), std::string::npos);
  EXPECT_NE(json.find("\"container_kill\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

/// Hand-built inputs for every record writer of the trace exporter: a
/// complete span and an instant, a log whose third event carries a
/// parent, an attempt and a cause edge (a flow pair), and the series
/// derived from that log (counter samples).
struct TraceInputs {
  std::vector<Span> spans = {
      Span{SpanKind::kExec, obs::Name::kExec, at_us(100), at_us(400),
           /*instant=*/false,
           SpanLabels{JobId{1}, FunctionId{2}, ContainerId{3}, NodeId{4}, 1}},
      Span{SpanKind::kFailure, obs::Name::kContainerKill, at_us(250),
           at_us(250), /*instant=*/true, SpanLabels{}},
  };
  LogBuilder log;
  obs::TimeSeries series;

  TraceInputs() {
    log.add(EventKind::kLaunch, "launch", sec_us(0.2), fn_labels(2));
    const obs::EventId failure = log.add(
        EventKind::kFailure, "container_kill", sec_us(1.1), fn_labels(2));
    log.add(EventKind::kRecovered, "recovered", sec_us(2.6),
            fn_labels(2, 2), failure);
    series = derive_series(log.log);
  }
};

TEST(ChromeTraceTest, GoldenSingleSection) {
  const TraceInputs in;
  std::ostringstream os;
  obs::write_chrome_trace(os, &in.spans, &in.log.log, &in.series);
  EXPECT_EQ(
      os.str(),
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"exec","cat":"exec","ph":"X","ts":100,"dur":300,"pid":1,)"
      R"("tid":4,"args":{"job":1,"function":2,"container":3,"attempt":1}},)"
      R"({"name":"container_kill","cat":"failure","ph":"i","ts":250,)"
      R"("s":"t","pid":1,"tid":0,"args":{}},)"
      R"({"name":"launch","cat":"launch","ph":"i","ts":200000,"s":"t",)"
      R"("pid":1,"tid":1,"args":{"event":0,"trace":1,"function":2,)"
      R"("attempt":1}},)"
      R"({"name":"container_kill","cat":"failure","ph":"i","ts":1100000,)"
      R"("s":"t","pid":1,"tid":1,"args":{"event":1,"trace":1,"parent":0,)"
      R"("function":2,"attempt":1}},)"
      R"({"name":"recovered","cat":"recovered","ph":"i","ts":2600000,)"
      R"("s":"t","pid":1,"tid":1,"args":{"event":2,"trace":1,"parent":1,)"
      R"("cause":1,"function":2,"attempt":2}},)"
      R"({"name":"recovered","cat":"causal","ph":"s","id":2,"ts":1100000,)"
      R"("pid":1,"tid":1},)"
      R"({"name":"recovered","cat":"causal","ph":"f","bp":"e","id":2,)"
      R"("ts":2600000,"pid":1,"tid":1},)"
      R"({"name":"ts.cold_starts","cat":"timeseries","ph":"C","ts":0,)"
      R"("pid":1,"tid":0,"args":{"value":1}},)"
      R"({"name":"ts.failures","cat":"timeseries","ph":"C","ts":1000000,)"
      R"("pid":1,"tid":0,"args":{"value":1}},)"
      R"({"name":"ts.recoveries","cat":"timeseries","ph":"C","ts":2000000,)"
      R"("pid":1,"tid":0,"args":{"value":1}},)"
      R"({"name":"ts.recovery_time.p99","cat":"timeseries","ph":"C",)"
      R"("ts":2000000,"pid":1,"tid":0,"args":{"value":1.5}}],)"
      R"("otherData":{"spans_dropped":0,"events_dropped":0}})"
      "\n");
}

TEST(ChromeTraceTest, LongNameIsEscapedAcrossChunkBoundaries) {
  // A text name longer than the writer's 64 KiB chunk that needs every
  // kind of escape, so escapes straddle the chunk boundaries.
  const std::string raw_piece = "ab\"c\\d\ne\tf\rg\x01" "h\x1f" "i";
  const std::string escaped_piece = R"(ab\"c\\d\ne\tf\rg\u0001h\u001fi)";
  std::string raw;
  std::string escaped;
  for (int i = 0; i < 4608; ++i) {
    raw += raw_piece;
    escaped += escaped_piece;
  }
  ASSERT_GT(raw.size(), 64u * 1024);

  EventLog log;
  obs::TraceContext ctx{log.new_trace()};
  log.extend(ctx, EventKind::kAnnotation, log.intern(raw), at_us(5));
  std::ostringstream os;
  obs::write_chrome_trace(os, nullptr, &log);
  const std::string expected =
      R"({"displayTimeUnit":"ms","traceEvents":[{"name":")" + escaped +
      R"(","cat":"annotation","ph":"i","ts":5,"s":"t","pid":1,"tid":0,)"
      R"("args":{"event":0,"trace":1}}],)"
      R"("otherData":{"spans_dropped":0,"events_dropped":0}})"
      "\n";
  ASSERT_GT(expected.size(), 2u * 64 * 1024);  // three chunks or more
  EXPECT_EQ(os.str(), expected);
  const std::string trace = os.str();
  const std::size_t at = trace.find(escaped);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(trace.find(escaped, at + 1), std::string::npos);
}

/// A device that accepts opens and refuses every write (ENOSPC).
constexpr const char* kFullDevice = "/dev/full";

TEST(ChromeTraceTest, FileWriteToAFullDeviceFails) {
  if (!std::filesystem::exists(kFullDevice)) {
    GTEST_SKIP() << kFullDevice << " does not exist";
  }
  const TraceInputs in;
  EXPECT_FALSE(obs::write_chrome_trace_file(kFullDevice, &in.spans,
                                            &in.log.log, &in.series));
}

TEST(RunReportTest, SaveToAFullDeviceFails) {
  if (!std::filesystem::exists(kFullDevice)) {
    GTEST_SKIP() << kFullDevice << " does not exist";
  }
  RunReport report;
  report.name = "unit";
  report.set_scalar("makespan_s_mean", 12.5);
  EXPECT_FALSE(report.save(kFullDevice));
}

// ---------------------------------------------------------------------------
// End-to-end determinism: identical seeded runs → byte-identical reports.
// ---------------------------------------------------------------------------

harness::ScenarioConfig small_config() {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.3;
  config.cluster_nodes = 8;
  config.seed = 99;
  return config;
}

TEST(ReportDeterminismTest, IdenticalSeededRunsProduceIdenticalBytes) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 30)};
  const auto config = small_config();
  const auto agg1 = harness::run_repetitions(config, jobs, 3);
  const auto agg2 = harness::run_repetitions(config, jobs, 3);
  const auto r1 = harness::make_report("determinism", config, agg1);
  const auto r2 = harness::make_report("determinism", config, agg2);
  EXPECT_EQ(r1.to_json(), r2.to_json());
  // The report actually carries data (failures happened and were measured).
  EXPECT_GT(r1.metrics.counter("failures"), 0.0);
  EXPECT_FALSE(r1.metrics.histogram("function_latency").empty());
}

TEST(ReportDeterminismTest, DifferentSeedsProduceDifferentReports) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 30)};
  auto config = small_config();
  const auto agg1 = harness::run_repetitions(config, jobs, 2);
  config.seed = 100;
  const auto agg2 = harness::run_repetitions(config, jobs, 2);
  const auto r1 = harness::make_report("determinism", config, agg1);
  const auto r2 = harness::make_report("determinism", config, agg2);
  EXPECT_NE(r1.to_json(), r2.to_json());
}

TEST(ReportDeterminismTest, SpanTimelineIsDeterministic) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 20)};
  auto config = small_config();
  config.record_spans = true;
  const auto run1 = harness::ScenarioRunner::run(config, jobs);
  const auto run2 = harness::ScenarioRunner::run(config, jobs);
  ASSERT_NE(run1.spans, nullptr);
  ASSERT_NE(run2.spans, nullptr);
  EXPECT_GT(run1.spans->size(), 0u);
  std::ostringstream t1, t2;
  obs::write_chrome_trace(t1, run1.spans.get(), nullptr);
  obs::write_chrome_trace(t2, run2.spans.get(), nullptr);
  EXPECT_EQ(t1.str(), t2.str());
}

}  // namespace
}  // namespace canary
