#include "common/timeseries.h"

#include <algorithm>

namespace kvsim {

void BandwidthTracker::add(TimeNs when, u64 bytes) {
  const size_t idx = (size_t)(when / window_);
  if (idx >= windows_.size()) windows_.resize(idx + 1, 0);
  windows_[idx] += bytes;
  total_bytes_ += bytes;
  last_event_ = std::max(last_event_, when);
}

double BandwidthTracker::bytes_per_sec(size_t i) const {
  if (i >= windows_.size()) return 0.0;
  return (double)windows_[i] * (double)kSec / (double)window_;
}

double BandwidthTracker::mean_bytes_per_sec() const {
  if (last_event_ == 0) return 0.0;
  return (double)total_bytes_ * (double)kSec / (double)last_event_;
}

double BandwidthTracker::min_bytes_per_sec() const {
  if (windows_.size() <= 1) return mean_bytes_per_sec();
  double mn = bytes_per_sec(0);
  for (size_t i = 1; i + 1 < windows_.size(); ++i)
    mn = std::min(mn, bytes_per_sec(i));
  return mn;
}

}  // namespace kvsim
