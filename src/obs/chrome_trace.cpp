#include "obs/chrome_trace.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace canary::obs {

namespace {

/// Writes one trace document from constant fragments (chrome_trace.hpp).
/// Every record renders under one process ("pid":1); tracks ("tid") are
/// nodes. Kind names are identifiers, so they are written as they are.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& os) : out_(os) {
    out_.put(R"({"displayTimeUnit":"ms","traceEvents":[)");
  }

  void write_span(const Span& span, const NameArena* names) {
    open_record();
    out_.put_escaped(render(span.name, names).view());
    out_.put(R"(","cat":")");
    out_.put(to_string_view(span.kind));
    // Trace timestamps are microseconds; the sim clock already is.
    if (span.instant) {  // a thread-scoped instant marker
      out_.put(R"(","ph":"i","ts":)");
      out_.put_int(span.start.count_usec());
      out_.put(R"(,"s":"t","pid":1,"tid":)");
    } else {
      out_.put(R"(","ph":"X","ts":)");
      out_.put_int(span.start.count_usec());
      out_.put(R"(,"dur":)");
      out_.put_int(span.duration().count_usec());
      out_.put(R"(,"pid":1,"tid":)");
    }
    const SpanLabels& labels = span.labels;
    out_.put_uint(tid(labels));
    out_.put(R"(,"args":{)");
    bool first = true;
    if (labels.job.valid()) arg(first, R"(,"job":)", labels.job.value());
    if (labels.function.valid()) {
      arg(first, R"(,"function":)", labels.function.value());
    }
    if (labels.container.valid()) {
      arg(first, R"(,"container":)", labels.container.value());
    }
    if (labels.attempt > 0) {
      arg(first, R"(,"attempt":)", static_cast<std::uint64_t>(labels.attempt));
    }
    out_.put("}}");
  }

  void write_log_event(const EventLog& log, const Event& event) {
    const SpanLabels labels = event.labels();
    open_record();
    out_.put_escaped(log.text(event.name()).view());
    out_.put(R"(","cat":")");
    out_.put(to_string_view(event.kind()));
    out_.put(R"(","ph":"i","ts":)");
    out_.put_int(event.at().count_usec());
    out_.put(R"(,"s":"t","pid":1,"tid":)");
    out_.put_uint(tid(labels));
    out_.put(R"(,"args":{"event":)");
    out_.put_uint(event.id());
    bool first = false;  // "event" opened the object
    if (event.trace().valid()) {
      arg(first, R"(,"trace":)", event.trace().value());
    }
    if (event.parent() != kNoEvent) arg(first, R"(,"parent":)", event.parent());
    if (event.cause() != kNoEvent) arg(first, R"(,"cause":)", event.cause());
    if (labels.function.valid()) {
      arg(first, R"(,"function":)", labels.function.value());
    }
    if (labels.attempt > 0) {
      arg(first, R"(,"attempt":)", static_cast<std::uint64_t>(labels.attempt));
    }
    out_.put("}}");
  }

  /// A `cause` edge renders as a flow arrow: a start record at the cause
  /// event's (time, track) and a binding-point-enclosing finish record at
  /// the effect's. Chrome pairs the two through the shared id.
  void write_flow_pair(const EventLog& log, const Event& cause,
                       const Event& effect) {
    const NameText name = log.text(effect.name());
    open_record();
    out_.put_escaped(name.view());
    out_.put(R"(","cat":"causal","ph":"s","id":)");
    out_.put_uint(effect.id());
    out_.put(R"(,"ts":)");
    out_.put_int(cause.at().count_usec());
    out_.put(R"(,"pid":1,"tid":)");
    out_.put_uint(tid(cause.labels()));
    out_.put(R"(},{"name":")");
    out_.put_escaped(name.view());
    out_.put(R"(","cat":"causal","ph":"f","bp":"e","id":)");
    out_.put_uint(effect.id());
    out_.put(R"(,"ts":)");
    out_.put_int(effect.at().count_usec());
    out_.put(R"(,"pid":1,"tid":)");
    out_.put_uint(tid(effect.labels()));
    out_.put('}');
  }

  /// Counter tracks: chrome renders consecutive "C" records with the same
  /// name ("ts.<stream>", "ts.<stream>.p99" for a distribution) as one
  /// filled step graph.
  void write_counter_tracks(const TimeSeries& series) {
    for (const TimeSeries::Window& window : series.windows()) {
      const std::int64_t ts = window.start.count_usec();
      for (const auto& [name, value] : window.counters) {
        write_counter_sample(name, "", ts, value);
      }
      for (const auto& [name, value] : window.levels) {
        write_counter_sample(name, "", ts, value);
      }
      for (const auto& [name, hist] : window.samples) {
        write_counter_sample(name, ".p99", ts, hist.p99());
      }
    }
  }

  /// Closes the document with the recorder health in "otherData".
  void finish(std::uint64_t spans_dropped, std::uint64_t events_dropped) {
    out_.put(R"(],"otherData":{"spans_dropped":)");
    out_.put_uint(spans_dropped);
    out_.put(R"(,"events_dropped":)");
    out_.put_uint(events_dropped);
    out_.put("}}\n");
  }

 private:
  /// One track per node keeps the cluster timeline readable; records with
  /// no node (e.g. scheduler-side events) share track 0.
  static std::uint64_t tid(const SpanLabels& labels) {
    return labels.node.valid() ? labels.node.value() : 0;
  }

  /// Starts a traceEvents record up to its name's text.
  void open_record() {
    out_.put(first_record_ ? std::string_view(R"({"name":")")
                           : std::string_view(R"(,{"name":")"));
    first_record_ = false;
  }

  /// One optional member of a record's "args" from its `,"key":`
  /// fragment; the object's first member drops the comma.
  void arg(bool& first, std::string_view comma_key, std::uint64_t value) {
    out_.put(first ? comma_key.substr(1) : comma_key);
    first = false;
    out_.put_uint(value);
  }

  void write_counter_sample(std::string_view stream, std::string_view suffix,
                            std::int64_t ts_usec, double value) {
    open_record();
    out_.put("ts.");
    out_.put_escaped(stream);
    out_.put(suffix);
    out_.put(R"(","cat":"timeseries","ph":"C","ts":)");
    out_.put_int(ts_usec);
    out_.put(R"(,"pid":1,"tid":0,"args":{"value":)");
    out_.put_double(value);
    out_.put("}}");
  }

  JsonSink out_;
  bool first_record_ = true;
};

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Span>* spans,
                        const EventLog* events, const TimeSeries* series) {
  TraceWriter trace(os);
  if (spans != nullptr) {
    const NameArena* names = events != nullptr ? &events->names() : nullptr;
    for (const Span& span : *spans) trace.write_span(span, names);
  }
  if (events != nullptr) {
    for (const Event& event : *events) {
      trace.write_log_event(*events, event);
      if (const Event* cause = events->find(event.cause())) {
        trace.write_flow_pair(*events, *cause, event);
      }
    }
  }
  if (series != nullptr) trace.write_counter_tracks(*series);
  // Recorder health: a truncated log means this timeline is partial too,
  // since the spans are derived from it.
  const std::uint64_t events_dropped =
      events != nullptr ? events->dropped() : std::uint64_t{0};
  trace.finish(spans != nullptr ? events_dropped : std::uint64_t{0},
               events_dropped);
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
