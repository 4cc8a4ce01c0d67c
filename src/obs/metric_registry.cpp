#include "obs/metric_registry.hpp"

namespace canary::obs {

double MetricRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram& MetricRegistry::histogram(const std::string& name) const {
  static const Histogram kEmpty;
  auto it = histograms_.find(name);
  return it == histograms_.end() ? kEmpty : it->second;
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) gauges_[name] = value;
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

}  // namespace canary::obs
