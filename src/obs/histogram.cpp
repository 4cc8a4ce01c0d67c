#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace canary::obs {

std::uint64_t nearest_rank(double p, std::uint64_t count) {
  // p/100*count can land an ulp above its exact value (e.g. 40 samples at
  // p=97.5), which would inflate the rank by one full position. Shaving
  // 1e-9 before ceil() keeps exact boundaries on the correct side without
  // disturbing interior ranks.
  return std::min<std::uint64_t>(
      count, std::max<std::uint64_t>(
                 1, static_cast<std::uint64_t>(std::ceil(
                        p / 100.0 * static_cast<double>(count) - 1e-9))));
}

std::size_t Histogram::bucket_index(std::uint64_t ticks) {
  if (ticks < kSubBuckets) return static_cast<std::size_t>(ticks);
  const int msb = 63 - std::countl_zero(ticks);
  const int shift = msb - (kSubBucketBits - 1);
  // Top kSubBucketBits bits of the value: in [kSubBuckets/2, kSubBuckets).
  const std::uint64_t sub = ticks >> shift;
  return kSubBuckets +
         static_cast<std::size_t>(shift - 1) * (kSubBuckets / 2) +
         static_cast<std::size_t>(sub - kSubBuckets / 2);
}

double Histogram::bucket_mid(std::size_t index) {
  if (index < kSubBuckets) return static_cast<double>(index);
  const std::size_t offset = index - kSubBuckets;
  const int shift = static_cast<int>(offset / (kSubBuckets / 2)) + 1;
  const std::uint64_t sub = kSubBuckets / 2 + offset % (kSubBuckets / 2);
  const double lo = std::ldexp(static_cast<double>(sub), shift);
  const double width = std::ldexp(1.0, shift);
  return lo + width / 2.0;
}

void Histogram::record(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;

  const double clamped = std::max(value, 0.0);
  const auto ticks = static_cast<std::uint64_t>(std::llround(clamped * 1e6));
  const std::size_t index = bucket_index(ticks);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

std::size_t Histogram::bucket_of_rank(std::uint64_t rank) const {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank && buckets_[i] > 0) return i;
  }
  return buckets_.empty() ? 0 : buckets_.size() - 1;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  const std::size_t index = bucket_of_rank(nearest_rank(p, count_));
  const double value = bucket_mid(index) / 1e6;
  return std::clamp(value, min_, max_);
}

}  // namespace canary::obs
