// Sample statistics used by the experiment harness (paper §V-B reports
// 10-run averages with <5% variance; we report mean, stddev, min and
// max).
#pragma once

#include <cstddef>
#include <vector>

namespace canary {

/// Retains all samples. Used where sample counts are bounded
/// (per-experiment repetition results).
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::vector<double> samples_;
};

}  // namespace canary
