// Windowed counters over simulated time: bandwidth / IOPS timelines.
#pragma once

#include <vector>

#include "common/types.h"

namespace kvsim {

/// Accumulates (time, bytes) events into fixed-width windows so experiments
/// can plot bandwidth over time (e.g. the foreground-GC collapse of Fig. 6).
class BandwidthTracker {
 public:
  explicit BandwidthTracker(TimeNs window = 100 * kMs) : window_(window) {}

  void add(TimeNs when, u64 bytes);

  [[nodiscard]] TimeNs window() const { return window_; }
  [[nodiscard]] size_t num_windows() const { return windows_.size(); }

  /// Mean bandwidth in bytes/second within window i.
  [[nodiscard]] double bytes_per_sec(size_t i) const;

  /// Mean bandwidth over the whole recorded span.
  [[nodiscard]] double mean_bytes_per_sec() const;

  /// Minimum windowed bandwidth (ignoring trailing partial window).
  [[nodiscard]] double min_bytes_per_sec() const;

  [[nodiscard]] const std::vector<u64>& raw_windows() const { return windows_; }

 private:
  TimeNs window_;
  std::vector<u64> windows_;
  u64 total_bytes_ = 0;
  TimeNs last_event_ = 0;
};

}  // namespace kvsim
