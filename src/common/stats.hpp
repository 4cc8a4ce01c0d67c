// Sample statistics used by the experiment harness (paper §V-B reports
// 10-run averages with <5% variance; we report mean, stddev, and
// percentiles).
#pragma once

#include <cstddef>
#include <vector>

namespace canary {

/// Retains all samples; supports exact percentiles. Used where sample
/// counts are bounded (per-experiment repetition results).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const;
  /// Exact percentile by linear interpolation, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace canary
