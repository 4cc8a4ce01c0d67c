#include "obs/report.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace canary::obs {

namespace {

void write_components(JsonWriter& json, const ComponentSums& sums) {
  json.begin_object();
  for (std::size_t i = 0; i < kPathComponentCount; ++i) {
    const auto component = static_cast<PathComponent>(i);
    // Queueing only exists for open-loop (traffic-driven) runs and
    // hedging only for hedged runs; keeping the keys absent otherwise
    // leaves other reports byte-identical to those produced before the
    // components existed.
    if ((component == PathComponent::kQueueing ||
         component == PathComponent::kHedging) &&
        sums.seconds[i] == 0.0) {
      continue;
    }
    json.field(to_string_view(component), sums.seconds[i]);
  }
  json.end_object();
}

void write_health(JsonWriter& json, const RecorderHealth& health) {
  json.begin_object();
  json.field("recorded", health.recorded);
  json.field("dropped", health.dropped);
  json.field("truncated", health.truncated());
  if (!health.dropped_by_kind.empty()) {
    json.key("dropped_by_kind").begin_object();
    for (const auto& [kind, count] : health.dropped_by_kind) {
      json.field(kind, count);
    }
    json.end_object();
  }
  json.end_object();
}

void write_tail(JsonWriter& json, const TailReport& tail) {
  json.key("tail").begin_object();
  json.key("groups").begin_object();
  for (const TailGroup& group : tail.groups) {
    json.key(group.metric).begin_object();
    json.key("percentiles").begin_array();
    for (const TailAttribution& a : group.percentiles) {
      json.begin_object();
      json.field("p", a.percentile);
      json.field("samples", a.samples);
      json.field("latency_s", a.latency_s);
      json.field("trace", a.trace);
      json.field("function", a.function);
      json.field("attributed_s", a.attributed_s);
      json.key("components");
      write_components(json, a.components);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void write_timeseries(JsonWriter& json, const TimeSeries& series) {
  json.key("timeseries").begin_object();
  json.field("window_s", kTimeSeriesWindow.to_seconds());
  json.field("windows", static_cast<std::uint64_t>(series.windows().size()));
  json.field("evicted", series.evicted());

  // Column-major: one row list per named stream, each row [t_s, ...].
  // Names are collected across all windows so sparse streams still line
  // up deterministically.
  std::map<std::string, int> counters;
  std::map<std::string, int> samples;
  std::map<std::string, int> levels;
  for (const TimeSeries::Window& window : series.windows()) {
    for (const auto& [name, value] : window.counters) counters[name] = 1;
    for (const auto& [name, hist] : window.samples) samples[name] = 1;
    for (const auto& [name, value] : window.levels) levels[name] = 1;
  }

  json.key("counters").begin_object();
  for (const auto& [name, unused] : counters) {
    json.key(name).begin_array();
    for (const TimeSeries::Window& window : series.windows()) {
      const auto it = window.counters.find(name);
      json.begin_array();
      json.value(window.start.to_seconds());
      json.value(it != window.counters.end() ? it->second : 0.0);
      json.end_array();
    }
    json.end_array();
  }
  json.end_object();

  json.key("quantiles").begin_object();
  for (const auto& [name, unused] : samples) {
    json.key(name).begin_array();
    for (const TimeSeries::Window& window : series.windows()) {
      const auto it = window.samples.find(name);
      json.begin_array();
      json.value(window.start.to_seconds());
      if (it != window.samples.end()) {
        json.value(static_cast<std::uint64_t>(it->second.count()));
        json.value(it->second.p50());
        json.value(it->second.p99());
      } else {
        json.value(std::uint64_t{0});
        json.value(0.0);
        json.value(0.0);
      }
      json.end_array();
    }
    json.end_array();
  }
  json.end_object();

  json.key("levels").begin_object();
  for (const auto& [name, unused] : levels) {
    json.key(name).begin_array();
    for (const TimeSeries::Window& window : series.windows()) {
      const auto it = window.levels.find(name);
      if (it == window.levels.end()) continue;  // levels may be sparse
      json.begin_array();
      json.value(window.start.to_seconds());
      json.value(it->second);
      json.end_array();
    }
    json.end_array();
  }
  json.end_object();

  json.end_object();
}

}  // namespace

void merge(std::optional<Attribution>& into,
           const std::optional<Attribution>& from) {
  if (!from) return;
  if (!into) into.emplace();
  into->tail.merge(from->tail);
  into->timeseries.merge(from->timeseries);
}

void RunReport::set_param(const std::string& key, double value) {
  params[key] = JsonWriter::format_double(value);
}

void RunReport::write_json(std::ostream& os) const {
  JsonWriter json(os, /*indent=*/2);
  json.begin_object();
  json.field("schema", kRunReportSchema);
  json.field("name", name);

  json.key("params").begin_object();
  for (const auto& [key, value] : params) json.field(key, value);
  json.end_object();

  json.key("scalars").begin_object();
  for (const auto& [key, value] : scalars) json.field(key, value);
  json.end_object();

  json.key("metrics").begin_object();
  json.key("counters").begin_object();
  for (const auto& [key, value] : metrics.counters()) json.field(key, value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [key, value] : metrics.gauges()) json.field(key, value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [key, hist] : metrics.histograms()) {
    json.key(key).begin_object();
    json.field("count", static_cast<std::uint64_t>(hist.count()));
    json.field("mean", hist.mean());
    json.field("min", hist.min());
    json.field("max", hist.max());
    json.field("p50", hist.p50());
    json.field("p95", hist.p95());
    json.field("p99", hist.p99());
    json.end_object();
  }
  json.end_object();
  json.end_object();

  json.key("breakdown").begin_object();
  json.key("recoveries").begin_object();
  json.field("count", breakdown.recovery_count);
  json.field("window_s", breakdown.recovery_window_s);
  json.key("components");
  write_components(json, breakdown.recovery_components);
  json.end_object();
  json.key("end_to_end").begin_object();
  json.key("components");
  write_components(json, breakdown.end_to_end_components);
  json.end_object();
  json.key("per_function").begin_object();
  for (const auto& [family, fb] : breakdown.per_function) {
    json.key(family).begin_object();
    json.field("functions", fb.functions);
    json.field("recoveries", fb.recoveries);
    json.field("window_s", fb.window_s);
    json.key("components");
    write_components(json, fb.recovery_components);
    json.end_object();
  }
  json.end_object();
  json.key("slo").begin_object();
  json.field("targets", breakdown.slo_targets);
  json.field("violations", breakdown.slo_violations);
  json.field("violation_ratio", breakdown.slo_violation_ratio());
  json.key("breaches_by_component").begin_object();
  for (const auto& [component, count] : breakdown.slo_breaches_by_component) {
    json.field(component, count);
  }
  json.end_object();
  json.end_object();
  json.end_object();

  json.key("obs").begin_object();
  json.key("spans");
  write_health(json, span_health);
  json.key("events");
  write_health(json, event_health);
  json.end_object();

  if (attribution) {
    write_tail(json, attribution->tail);
    write_timeseries(json, attribution->timeseries);
  }

  json.key("series").begin_array();
  for (const Series& s : series) {
    json.begin_object();
    json.field("name", s.name);
    json.key("columns").begin_array();
    for (const auto& column : s.columns) json.value(column);
    json.end_array();
    json.key("rows").begin_array();
    for (const auto& row : s.rows) {
      json.begin_array();
      for (const auto& cell : row) json.value(cell);
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  json.key("claims").begin_array();
  for (const Claim& c : claims) {
    json.begin_object();
    json.field("claim", c.claim);
    json.field("measured", c.measured);
    json.field("unit", c.unit);
    json.end_object();
  }
  json.end_array();

  json.end_object();
  os << '\n';
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool RunReport::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  // A write error may only surface when the file buffer is flushed.
  out.close();
  return !out.fail();
}

}  // namespace canary::obs
