// Log-bucketed latency histogram (HdrHistogram-style, fixed memory).
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "common/types.h"

namespace kvsim {

/// Records latency samples in nanoseconds with ~3% relative bucket error
/// and answers mean / percentile / min / max queries. Buckets are
/// log2 major steps with 32 linear minor steps each, covering 1 ns .. ~18 s.
class LatencyHistogram {
 public:
  void record(TimeNs latency_ns);
  void merge(const LatencyHistogram& other);

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ ? (double)sum_ / (double)count_ : 0.0;
  }
  [[nodiscard]] TimeNs min() const { return count_ ? min_ : 0; }
  [[nodiscard]] TimeNs max() const { return max_; }

  /// Value at quantile q in [0,1]; e.g. q=0.99 for p99. Returns the bucket
  /// upper bound containing the q-th sample (clamped into [min, max], so
  /// q=0 yields the exact minimum and q=1 the exact maximum).
  [[nodiscard]] TimeNs percentile(double q) const;

  /// Occupied buckets as (upper_bound_ns, count) pairs in ascending order
  /// (telemetry export; the full distribution minus empty buckets).
  [[nodiscard]] std::vector<std::pair<TimeNs, u64>> nonzero_buckets() const;

  // Bucket math, public for tests and exporters. bucket_for maps a value
  // to its bucket index; bucket_upper is the largest value that bucket
  // holds, so bucket_for(bucket_upper(b)) == b and
  // bucket_upper(bucket_for(v)) >= v for every in-range v.
  static int bucket_for(TimeNs v);
  static TimeNs bucket_upper(int b);
  static constexpr int num_buckets();

 private:
  static constexpr int kMinorBits = 5;  // 32 minor buckets per major
  static constexpr int kMinor = 1 << kMinorBits;
  static constexpr int kMajors = 34;    // covers up to ~2^34 ns (~17 s)
  static constexpr int kBuckets = kMajors * kMinor;

  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  u64 sum_ = 0;
  TimeNs min_ = ~0ull;
  TimeNs max_ = 0;
};

constexpr int LatencyHistogram::num_buckets() { return kBuckets; }

}  // namespace kvsim
