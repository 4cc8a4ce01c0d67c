// Central metric registry: counters, gauges, and latency histograms.
//
// One registry lives per simulation run and every module records into it
// (the platform's lifecycle counters, Canary's checkpoint/replication
// counters, the recovery baselines' bookkeeping). It supersedes the
// private counter maps that used to live in sim::MetricsRecorder,
// faas::UsageLedger summaries, and ad-hoc bench printouts: the experiment
// harness snapshots the whole registry into RunResult, merges repetitions
// exactly, and the report exporter serialises it into run_report.json.
// Histograms hold distributions only: which invocation sits at a given
// percentile is read off the causal event log (tail_analyzer.hpp).
//
// Names are ordered maps so every iteration (export, merge, diff) is
// deterministic. The registry is single-writer per run — repetitions each
// own one and merge after the fact — so no locking is needed on the
// record path.
#pragma once

#include <map>
#include <string>

#include "common/time.hpp"
#include "obs/histogram.hpp"

namespace canary::obs {

class MetricRegistry {
 public:
  // ---- counters (monotonic sums) --------------------------------------
  void count(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }
  double counter(const std::string& name) const;
  const std::map<std::string, double>& counters() const { return counters_; }

  // ---- hot-path handles -----------------------------------------------
  // A per-event count()/sample() pays a map lookup on every call, which
  // dominates the platform's bookkeeping at million-invocation scale.
  // Hot recorders resolve their metric once and increment through the
  // returned reference instead. Map nodes are stable, so handles stay
  // valid for the registry's lifetime.
  double& counter_ref(const std::string& name) { return counters_[name]; }
  Histogram& histogram_ref(const std::string& name) {
    return histograms_[name];
  }

  // ---- gauges (last-write-wins levels) --------------------------------
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  double gauge(const std::string& name) const;
  const std::map<std::string, double>& gauges() const { return gauges_; }

  // ---- histograms (latency-style distributions) -----------------------
  void sample(const std::string& name, double value) {
    histograms_[name].record(value);
  }
  /// Histogram for `name`; an empty histogram if never sampled.
  const Histogram& histogram(const std::string& name) const;
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Fold `other` into this registry: counters add, histograms merge
  /// exactly, gauges take `other`'s value (last writer wins). Used by the
  /// harness to aggregate per-repetition registries deterministically.
  void merge(const MetricRegistry& other);

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Lazily-resolved counter handle for per-event recorders. The first
/// add() resolves the registry slot (one map lookup); every later add()
/// is a pointer bump. Resolution is lazy on purpose: a counter that
/// never fires must stay absent from the registry, because reports list
/// exactly the counters that were ever recorded.
class CounterHandle {
 public:
  CounterHandle(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  void add(double delta = 1.0) {
    if (slot_ == nullptr) slot_ = &registry_->counter_ref(name_);
    *slot_ += delta;
  }

 private:
  MetricRegistry* registry_;
  const char* name_;
  double* slot_ = nullptr;
};

/// Histogram counterpart of CounterHandle, with the same lazy-resolution
/// contract.
class HistogramHandle {
 public:
  HistogramHandle(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  void record(double value) {
    if (slot_ == nullptr) slot_ = &registry_->histogram_ref(name_);
    slot_->record(value);
  }
  void record_duration(Duration d) { record(d.to_seconds()); }

 private:
  MetricRegistry* registry_;
  const char* name_;
  Histogram* slot_ = nullptr;
};

}  // namespace canary::obs
