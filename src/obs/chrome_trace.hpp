// Chrome trace-event exporter.
//
// Serialises a SpanRecorder into the chrome://tracing / Perfetto JSON
// format ("traceEvents" with complete "X" and instant "i" events) so a
// simulated run can be inspected on a real timeline: one track per node,
// lifecycle phases nested per function attempt, checkpoint/replication/
// recovery windows overlaid. Open chrome://tracing (or ui.perfetto.dev)
// and load the file.
//
// The combined overload also serialises an EventLog: causal events become
// instant markers, and every cross-chain `cause` edge (node failure ->
// container kill, failure -> recovery completion) becomes a flow-event
// pair ("ph":"s" / "ph":"f") that renders as an arrow across tracks.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/span.hpp"
#include "obs/time_series.hpp"

namespace canary::obs {

/// One process ("pid") worth of trace inputs — a partition's spans,
/// causal events, and rollups. Any member may be null.
struct TraceSection {
  const SpanRecorder* spans = nullptr;
  const EventLog* events = nullptr;
  const TimeSeries* series = nullptr;
};

/// Write the full trace JSON document for `spans` to `os`.
void write_chrome_trace(std::ostream& os, const SpanRecorder& spans);

/// Combined export: span timeline plus causal events with flow arrows for
/// cause edges. Either input may be null.
void write_chrome_trace(std::ostream& os, const SpanRecorder* spans,
                        const EventLog* events);

/// Full export: spans + causal events + windowed rollups rendered as
/// counter tracks ("ph":"C" — one stepped graph per counter/level/p99
/// stream, named "ts.<stream>"). A null or disabled series emits exactly
/// the two-argument document, byte for byte.
void write_chrome_trace(std::ostream& os, const SpanRecorder* spans,
                        const EventLog* events, const TimeSeries* series);

/// Multi-process export for sharded runs: section i renders under
/// pid == i + 1 with a "shard i" process label, so every partition's
/// node tracks (whose ids are partition-local) group under their own
/// process lane in the viewer. A single unlabeled section at pid 1 is
/// NOT emitted by this overload — monolithic runs keep using the pointer
/// overloads above.
void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceSection>& sections);

/// Write to `path`; returns false (and leaves no partial file guarantees)
/// when the file cannot be opened.
bool write_chrome_trace_file(const std::string& path,
                             const SpanRecorder& spans);
bool write_chrome_trace_file(const std::string& path,
                             const SpanRecorder* spans,
                             const EventLog* events);
bool write_chrome_trace_file(const std::string& path,
                             const SpanRecorder* spans, const EventLog* events,
                             const TimeSeries* series);
bool write_chrome_trace_file(const std::string& path,
                             const std::vector<TraceSection>& sections);

}  // namespace canary::obs
