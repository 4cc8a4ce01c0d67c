// Chrome trace-event exporter.
//
// Serialises a run's span timeline (derive_spans) into the chrome://tracing
// / Perfetto JSON format ("traceEvents" with complete "X" and instant "i"
// events) so a simulated run can be inspected on a real timeline: one
// track per node, lifecycle phases per function attempt, checkpoint/
// replication/recovery windows overlaid. Open chrome://tracing (or
// ui.perfetto.dev) and load the file.
//
// The causal EventLog the timeline was derived from is serialised too:
// its events become instant markers, and every cross-chain `cause` edge
// (node failure -> container kill, failure -> recovery completion) becomes
// a flow-event pair ("ph":"s" / "ph":"f") that renders as an arrow across
// tracks.
//
// Every record of a kind has the same keys in the same order, so the
// exporter writes to a JsonSink (json.hpp) directly rather than through
// JsonWriter: each record is a fixed sequence of constant fragments that
// are already valid JSON, keys, separators and constant values fused
// (`","ph":"i","ts":`). Only the parts that vary are formatted: a name in
// one escape scan, ids and timestamps through std::to_chars, a counter
// value as JsonWriter::format_double's text. A counter track's name is
// written as its "ts." + stream + ".p99" pieces, never built as a string,
// so the export takes the sink's one chunk and no other allocation.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/span.hpp"
#include "obs/time_series.hpp"

namespace canary::obs {

/// Write the trace JSON document: the span timeline plus causal events
/// with flow arrows for cause edges, and windowed rollups rendered as
/// counter tracks ("ph":"C" — one stepped graph per counter/level/p99
/// stream, named "ts.<stream>"). Any input may be null; a null series
/// adds nothing, byte for byte. Span names render through `events`, the
/// log the spans were derived from; without it only literal and indexed
/// names render.
void write_chrome_trace(std::ostream& os, const std::vector<Span>* spans,
                        const EventLog* events,
                        const TimeSeries* series = nullptr);

/// Write to `path`; returns false (and leaves no partial file guarantees)
/// when the file cannot be opened or written in full.
bool write_chrome_trace_file(const std::string& path,
                             const std::vector<Span>* spans,
                             const EventLog* events,
                             const TimeSeries* series = nullptr);

}  // namespace canary::obs
