#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace canary {

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

}  // namespace canary
