// Machine-readable run report (the `run_report.json` schema, v3).
//
// Every bench binary and the experiment CLI emit one of these so results
// stop living in ad-hoc stdout tables: CI archives BENCH_<name>.json per
// commit and can diff the perf trajectory mechanically. The schema is
// deliberately small and stable:
//
//   {
//     "schema": "canary.run_report/v3",
//     "name": "<binary or experiment id>",
//     "params": { "<key>": "<string value>", ... },
//     "scalars": { "<key>": <number>, ... },
//     "metrics": {
//       "counters": { "<name>": <number>, ... },
//       "gauges": { "<name>": <number>, ... },
//       "histograms": {
//         "<name>": { "count", "mean", "min", "max", "p50", "p95", "p99" }
//       }
//     },
//     "breakdown": {                    // critical-path decomposition
//       "recoveries": { "count", "window_s", "components": {..} },
//       "end_to_end": { "components": {..} },
//       "per_function": { "<family>": { "functions", "recoveries",
//                                       "window_s", "components": {..} } },
//       "slo": { "targets", "violations", "violation_ratio",
//                "breaches_by_component": {..} }
//     },
//     "obs": {                          // recorder health
//       "spans":  { "recorded", "dropped", "truncated" },
//       "events": { "recorded", "dropped", "truncated" }
//     },
//     "tail": { "groups": {             // attribution only
//       "<metric>": { "percentiles": [ { "p", "samples", "latency_s",
//         "trace", "function", "attributed_s", "components": {..} } ] }
//     } },
//     "timeseries": { "window_s", "windows", "evicted",  // attribution only
//       "counters" | "levels": { "<stream>": [ [t_s, value], .. ] },
//       "quantiles": { "<stream>": [ [t_s, count, p50, p99], .. ] } },
//     "series": [ { "name", "columns": [..], "rows": [[..], ..] }, .. ],
//     "claims": [ { "claim", "measured", "unit" }, .. ]
//   }
//
// The `tail` and `timeseries` sections appear together, exactly when the
// run had ScenarioConfig::attribution on (RunReport::attribution set).
//
// Serialisation is deterministic: map keys are ordered, numbers are
// formatted locale-free, and nothing wall-clock-dependent is embedded —
// two identical seeded runs produce byte-identical reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/metric_registry.hpp"
#include "obs/tail_analyzer.hpp"
#include "obs/time_series.hpp"

namespace canary::obs {

inline constexpr std::string_view kRunReportSchema = "canary.run_report/v3";

/// The two views the attribution switch derives from a run's causal log
/// at collect time. Callers hold it as a std::optional: present exactly
/// when attribution ran, so one bit says whether either view exists.
struct Attribution {
  TailReport tail;
  TimeSeries timeseries;
};

/// Fold `from` into `into` (repetitions, partitions): present when either
/// side is, both views merged in place.
void merge(std::optional<Attribution>& into,
           const std::optional<Attribution>& from);

/// Health of one capacity-capped recorder stream. A truncated stream means
/// every count derived from it is a lower bound — the report says so
/// explicitly instead of silently under-reporting.
struct RecorderHealth {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  /// Drops attributed to one event kind (event stream only; empty unless
  /// the cap actually discarded something, so clean runs serialise
  /// exactly as before the per-kind split existed).
  std::map<std::string, std::uint64_t> dropped_by_kind;

  bool truncated() const { return dropped > 0; }
  void merge(const RecorderHealth& other) {
    recorded += other.recorded;
    dropped += other.dropped;
    for (const auto& [kind, count] : other.dropped_by_kind) {
      dropped_by_kind[kind] += count;
    }
  }
};

struct RunReport {
  std::string name;
  /// Experiment configuration, stringly-typed on purpose: params document
  /// the run, they are not re-parsed.
  std::map<std::string, std::string> params;
  /// Headline measurements (means, reductions, overheads).
  std::map<std::string, double> scalars;
  /// Full metric registry snapshot (merged across repetitions).
  MetricRegistry metrics;
  /// Critical-path decomposition (merged across repetitions); zero-valued
  /// when the run recorded no causal events.
  BreakdownReport breakdown;
  /// Recorder capacity-cap health for the span and event streams.
  RecorderHealth span_health;
  RecorderHealth event_health;

  /// Tail attribution and windowed rollups; absent from the JSON unless
  /// attribution ran.
  std::optional<Attribution> attribution;

  /// A named table, e.g. one reproduced figure's series.
  struct Series {
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Series> series;

  /// Paper-claim vs measured-value pairs from the bench printouts.
  struct Claim {
    std::string claim;
    double measured = 0.0;
    std::string unit;
  };
  std::vector<Claim> claims;

  void set_param(const std::string& key, const std::string& value) {
    params[key] = value;
  }
  void set_param(const std::string& key, double value);
  void set_scalar(const std::string& key, double value) {
    scalars[key] = value;
  }
  void add_claim(const std::string& claim, double measured,
                 const std::string& unit) {
    claims.push_back({claim, measured, unit});
  }

  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Write to `path`; returns false when the file cannot be opened or
  /// written in full.
  bool save(const std::string& path) const;
};

}  // namespace canary::obs
