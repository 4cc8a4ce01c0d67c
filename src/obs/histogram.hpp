// HDR-style log-linear histogram for latency-like quantities.
//
// Values are bucketed on a log-linear grid (64 linear sub-buckets per
// power-of-two octave over integer micro-units), which bounds the relative
// quantile error at ~1.6% while keeping memory at a few KiB regardless of
// sample count. count/sum/min/max are tracked exactly, so mean() is exact
// and only percentile() is approximate. Recording is O(1) with no
// allocation past the high-water bucket; merging two histograms is exact
// (bucket-wise addition), which is what lets the experiment harness fold
// per-repetition histograms into one deterministic aggregate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace canary::obs {

/// Nearest-rank position (1-based) of percentile p, p in [0, 100], among
/// `count` > 0 samples: ceil(p/100 * count) clamped to [1, count], with a
/// 1e-9 guard so floating-point rank inflation cannot push an exact
/// boundary up one position. Histogram::percentile and the exact tail
/// representatives (tail_analyzer.hpp) share this rule.
std::uint64_t nearest_rank(double p, std::uint64_t count);

class Histogram {
 public:
  /// Record one value. Negative values clamp to zero (still counted, and
  /// reflected in min()); values are quantised to 1e-6 units.
  void record(double value);

  /// Bucket-wise addition of `other` into this histogram. Exact: merging
  /// then querying equals querying the concatenated sample streams.
  void merge(const Histogram& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Approximate percentile, p in [0, 100]. Returns the midpoint of the
  /// bucket holding the nearest_rank(p, count()) sample, clamped to
  /// [min, max]; p <= 0 and p >= 100 return the exact min/max. An empty
  /// histogram returns 0.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }

 private:
  // 64 linear sub-buckets per octave: values below 2^6 micro-units are
  // bucketed exactly, larger ones with <= 1/64 relative bucket width.
  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

  static std::size_t bucket_index(std::uint64_t ticks);
  /// Midpoint of bucket `index`, in micro-units.
  static double bucket_mid(std::size_t index);

  /// Index of the bucket holding the rank-`rank` sample (1-based).
  std::size_t bucket_of_rank(std::uint64_t rank) const;

  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace canary::obs
