// Time-sliced device telemetry: periodic sampling of FtlStats/FlashStats
// deltas into fixed-width windows, the simulator's equivalent of polling
// S.M.A.R.T. / nvme-cli counters on an interval while a workload runs.
//
// The collector is *poll-driven*: callers (the harness runner, an FTL's
// own hooks) call poll(now) from hot-path completion handlers — a single
// integer compare when no window boundary has passed — and the collector
// closes every window the clock has crossed. This deliberately avoids
// self-rescheduling events on the EventQueue, which would keep the queue
// nonempty forever and break `eq.run()`-style draining.
//
// Conservation invariant (tested): the per-field sums over all closed
// slices equal the cumulative counter deltas between attach() and
// finalize(), so a timeline can always be cross-checked against the
// end-of-run totals.
#pragma once

#include <functional>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "flash/controller.h"
#include "sim/event_queue.h"
#include "ssd/stats.h"

namespace kvsim::ssd {

/// What the collector samples beside FtlStats and FlashStats.
/// clamped_schedules counts EventQueue::schedule_at() calls whose target
/// lay in the past and ran at `now`: nonzero means some component
/// computed a stale timestamp, and KVSIM_AUDIT fails on it.
#define KVSIM_TELEMETRY_EXTRAS(X)                                          \
  X(die_busy_ns)       /* summed across dies */                            \
  X(channel_busy_ns)   /* summed across channels */                        \
  X(buffer_stalls)     /* write-buffer backpressure events */              \
  X(clamped_schedules) /* past schedule_at() targets, clamped to now */

struct TelemetryExtras {
  KVSIM_COUNTERS(KVSIM_TELEMETRY_EXTRAS)
};

/// One closed sampling window: counter deltas over [t0, t1) of run time.
struct TelemetrySlice {
  TimeNs t0 = 0;  ///< window start, relative to collector attach
  TimeNs t1 = 0;  ///< window end (t1 - t0 == interval except the last slice)
  FtlStats ftl;             ///< FtlStats deltas
  flash::FlashStats flash;  ///< FlashStats deltas
  TelemetryExtras extras;   ///< deltas of the other sampled counters

  [[nodiscard]] double span_sec() const {
    return t1 > t0 ? (double)(t1 - t0) / (double)kSec : 0.0;
  }
  [[nodiscard]] double write_bw_bytes_per_sec() const {
    const double s = span_sec();
    return s > 0 ? (double)ftl.host_bytes_written / s : 0.0;
  }
  /// Mean die utilization inside the slice (busy time / (span * dies)).
  [[nodiscard]] double die_utilization(u64 num_dies) const {
    const TimeNs span = t1 - t0;
    return span && num_dies ? (double)extras.die_busy_ns /
                                  ((double)span * (double)num_dies)
                            : 0.0;
  }
};

/// Samples attached counter sources into TelemetrySlices on a fixed
/// interval of simulated time. Copyable (slices are plain data); the
/// attached sources must outlive any further poll()/finalize() calls.
class TelemetryCollector {
 public:
  KVSIM_THREAD_CONFINED;
  explicit TelemetryCollector(TimeNs interval = 100 * kMs)
      : interval_(interval ? interval : 100 * kMs) {}

  /// Start collecting at `now` (simulated time becomes slice origin).
  /// Any of the sources may be null; missing sources contribute zeros.
  /// `stall_events` samples a cumulative stall counter (e.g. the device
  /// write buffer's total_stall_events); `eq` samples the event queue's
  /// clamped-schedule counter.
  void attach(TimeNs now, const FtlStats* ftl,
              const flash::FlashController* flash,
              std::function<u64()> stall_events = {},
              const sim::EventQueue* eq = nullptr);

  [[nodiscard]] bool attached() const { return attached_; }

  /// Close every window the clock has crossed. O(1) when no boundary has
  /// passed — safe to call from per-op completion handlers.
  void poll(TimeNs now) {
    if (!attached_ || now < origin_ + window_start_ + interval_) return;
    catch_up(now);
  }

  /// Close the trailing partial window (idempotent). Call once the run
  /// ends; afterwards poll() keeps working if the run continues.
  void finalize(TimeNs now);

  [[nodiscard]] const std::vector<TelemetrySlice>& slices() const {
    return slices_;
  }
  [[nodiscard]] TimeNs interval() const { return interval_; }
  [[nodiscard]] TimeNs origin() const { return origin_; }
  [[nodiscard]] u64 num_dies() const { return num_dies_; }

 private:
  /// The attached sources' cumulative counters now (t0 = t1 = 0).
  [[nodiscard]] TelemetrySlice take() const;
  void catch_up(TimeNs now);
  void close_window(TimeNs rel_end);

  TimeNs interval_;
  TimeNs origin_ = 0;        ///< absolute time of attach
  TimeNs window_start_ = 0;  ///< relative start of the open window
  bool attached_ = false;
  const FtlStats* ftl_ = nullptr;
  const flash::FlashController* flash_ = nullptr;
  const sim::EventQueue* eq_ = nullptr;
  std::function<u64()> stall_events_;
  u64 num_dies_ = 0;
  TelemetrySlice last_;  ///< cumulative counters at the last close
  std::vector<TelemetrySlice> slices_;
};

}  // namespace kvsim::ssd
