#include "obs/chrome_trace.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace canary::obs {

namespace {

/// Every record renders under one process; tracks (tid) are nodes.
constexpr std::int64_t kPid = 1;

void write_event(JsonWriter& json, const Span& span, const NameArena* names) {
  json.begin_object();
  json.field("name", render(span.name, names).view());
  json.field("cat", to_string_view(span.kind));
  json.field("ph", span.instant ? "i" : "X");
  // Trace timestamps are microseconds; the sim clock already is.
  json.field("ts", span.start.count_usec());
  if (!span.instant) {
    json.field("dur", span.duration().count_usec());
  } else {
    json.field("s", "t");  // thread-scoped instant marker
  }
  json.field("pid", kPid);
  // One track per node keeps the cluster timeline readable; spans with no
  // node (e.g. scheduler-side events) share track 0.
  json.field("tid", span.labels.node.valid()
                        ? static_cast<std::int64_t>(span.labels.node.value())
                        : std::int64_t{0});
  json.key("args").begin_object();
  if (span.labels.job.valid()) {
    json.field("job", static_cast<std::int64_t>(span.labels.job.value()));
  }
  if (span.labels.function.valid()) {
    json.field("function",
               static_cast<std::int64_t>(span.labels.function.value()));
  }
  if (span.labels.container.valid()) {
    json.field("container",
               static_cast<std::int64_t>(span.labels.container.value()));
  }
  if (span.labels.attempt > 0) json.field("attempt", span.labels.attempt);
  json.end_object();
  json.end_object();
}

std::int64_t event_tid(const Event& event) {
  const SpanLabels labels = event.labels();
  return labels.node.valid() ? static_cast<std::int64_t>(labels.node.value())
                             : std::int64_t{0};
}

void write_log_event(JsonWriter& json, const EventLog& log,
                     const Event& event) {
  const SpanLabels labels = event.labels();
  json.begin_object();
  json.field("name", log.text(event.name()).view());
  json.field("cat", to_string_view(event.kind()));
  json.field("ph", "i");
  json.field("ts", event.at().count_usec());
  json.field("s", "t");
  json.field("pid", kPid);
  json.field("tid", event_tid(event));
  json.key("args").begin_object();
  json.field("event", std::uint64_t{event.id()});
  if (event.trace().valid()) json.field("trace", event.trace().value());
  if (event.parent() != kNoEvent) {
    json.field("parent", std::uint64_t{event.parent()});
  }
  if (event.cause() != kNoEvent) {
    json.field("cause", std::uint64_t{event.cause()});
  }
  if (labels.function.valid()) {
    json.field("function", static_cast<std::int64_t>(labels.function.value()));
  }
  if (labels.attempt > 0) json.field("attempt", labels.attempt);
  json.end_object();
  json.end_object();
}

/// A `cause` edge renders as a flow arrow: a start record at the cause
/// event's (time, track) and a binding-point-enclosing finish record at
/// the effect's. Chrome pairs the two through the shared id.
void write_flow_pair(JsonWriter& json, const EventLog& log, const Event& cause,
                     const Event& effect) {
  const NameText name = log.text(effect.name());
  json.begin_object();
  json.field("name", name.view());
  json.field("cat", "causal");
  json.field("ph", "s");
  json.field("id", std::uint64_t{effect.id()});
  json.field("ts", cause.at().count_usec());
  json.field("pid", kPid);
  json.field("tid", event_tid(cause));
  json.end_object();

  json.begin_object();
  json.field("name", name.view());
  json.field("cat", "causal");
  json.field("ph", "f");
  json.field("bp", "e");
  json.field("id", std::uint64_t{effect.id()});
  json.field("ts", effect.at().count_usec());
  json.field("pid", kPid);
  json.field("tid", event_tid(effect));
  json.end_object();
}

/// One stepped counter sample: chrome renders consecutive "C" records
/// with the same name as a filled step graph.
void write_counter_sample(JsonWriter& json, const std::string& name,
                          std::int64_t ts_usec, double value) {
  json.begin_object();
  json.field("name", name);
  json.field("cat", "timeseries");
  json.field("ph", "C");
  json.field("ts", ts_usec);
  json.field("pid", kPid);
  json.field("tid", std::int64_t{0});
  json.key("args").begin_object();
  json.field("value", value);
  json.end_object();
  json.end_object();
}

void write_counter_tracks(JsonWriter& json, const TimeSeries& series) {
  for (const TimeSeries::Window& window : series.windows()) {
    const std::int64_t ts = window.start.count_usec();
    for (const auto& [name, value] : window.counters) {
      write_counter_sample(json, "ts." + name, ts, value);
    }
    for (const auto& [name, value] : window.levels) {
      write_counter_sample(json, "ts." + name, ts, value);
    }
    for (const auto& [name, hist] : window.samples) {
      write_counter_sample(json, "ts." + name + ".p99", ts, hist.p99());
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Span>* spans,
                        const EventLog* events, const TimeSeries* series) {
  JsonWriter json(os, /*indent=*/0);
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  if (spans != nullptr) {
    const NameArena* names = events != nullptr ? &events->names() : nullptr;
    for (const Span& span : *spans) write_event(json, span, names);
  }
  if (events != nullptr) {
    for (const Event& event : *events) {
      write_log_event(json, *events, event);
      if (const Event* cause = events->find(event.cause())) {
        write_flow_pair(json, *events, *cause, event);
      }
    }
  }
  if (series != nullptr) write_counter_tracks(json, *series);
  json.end_array();
  // Recorder health: a truncated log means this timeline is partial too,
  // since the spans are derived from it.
  const std::uint64_t events_dropped =
      events != nullptr ? events->dropped() : std::uint64_t{0};
  json.key("otherData").begin_object();
  json.field("spans_dropped",
             spans != nullptr ? events_dropped : std::uint64_t{0});
  json.field("events_dropped", events_dropped);
  json.end_object();
  json.end_object();
  os << '\n';
}

bool write_chrome_trace_file(const std::string& path,
                             const std::vector<Span>* spans,
                             const EventLog* events, const TimeSeries* series) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, spans, events, series);
  // A write error may only surface when the file buffer is flushed.
  out.close();
  return !out.fail();
}

}  // namespace canary::obs
