#include "common/histogram.h"

#include <algorithm>
#include <bit>

namespace kvsim {

int LatencyHistogram::bucket_for(TimeNs v) {
  if (v < kMinor) return (int)v;  // first major bucket is exact
  const int major = std::bit_width(v) - kMinorBits;  // >= 1
  const int minor = (int)(v >> (major - 1)) & (kMinor - 1);
  const int b = major * kMinor + minor;
  return b < kBuckets ? b : kBuckets - 1;
}

TimeNs LatencyHistogram::bucket_upper(int b) {
  const int major = b >> kMinorBits;
  const int minor = b & (kMinor - 1);
  if (major == 0) return (TimeNs)minor;
  return ((TimeNs)(kMinor + minor + 1) << (major - 1)) - 1;
}

void LatencyHistogram::record(TimeNs v) {
  buckets_[(size_t)bucket_for(v)]++;
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (int i = 0; i < kBuckets; ++i) buckets_[(size_t)i] += o.buckets_[(size_t)i];
  count_ += o.count_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}


TimeNs LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, clamped into [1, count] so that double
  // rounding near q=1 can never push the target past the sample count.
  const u64 target = std::min((u64)(q * (double)(count_ - 1)) + 1, count_);
  // The rank-1 sample IS the minimum and the rank-count sample IS the
  // maximum; answer those exactly instead of with a bucket bound.
  if (target <= 1) return min_;
  if (target >= count_) return max_;
  u64 seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[(size_t)i];
    if (seen >= target)
      return std::clamp(bucket_upper(i), min_, max_);
  }
  return max_;
}

std::vector<std::pair<TimeNs, u64>> LatencyHistogram::nonzero_buckets() const {
  std::vector<std::pair<TimeNs, u64>> out;
  for (int i = 0; i < kBuckets; ++i)
    if (buckets_[(size_t)i])
      out.emplace_back(bucket_upper(i), buckets_[(size_t)i]);
  return out;
}

}  // namespace kvsim
