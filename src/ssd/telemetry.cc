#include "ssd/telemetry.h"

namespace kvsim::ssd {

void TelemetryCollector::attach(TimeNs now, const FtlStats* ftl,
                                const flash::FlashController* flash,
                                std::function<u64()> stall_events,
                                const sim::EventQueue* eq) {
  origin_ = now;
  window_start_ = 0;
  ftl_ = ftl;
  flash_ = flash;
  eq_ = eq;
  stall_events_ = std::move(stall_events);
  num_dies_ = flash_ ? flash_->num_dies() : 0;
  last_ = take();
  slices_.clear();
  attached_ = true;
}

TelemetrySlice TelemetryCollector::take() const {
  TelemetrySlice s;
  if (ftl_) s.ftl = *ftl_;
  if (flash_) {
    s.flash = flash_->stats();
    s.extras.die_busy_ns = flash_->total_die_busy_ns();
    s.extras.channel_busy_ns = flash_->total_channel_busy_ns();
  }
  if (stall_events_) s.extras.buffer_stalls = stall_events_();
  if (eq_) s.extras.clamped_schedules = eq_->clamped_schedules();
  return s;
}

void TelemetryCollector::catch_up(TimeNs now) {
  const TimeNs rel = now - origin_;
  // The first crossed window absorbs the whole delta since the last
  // sample (counters cannot be read retroactively at the exact boundary);
  // any further windows crossed in the same poll close empty. Attribution
  // error is bounded by the caller's polling cadence.
  while (rel >= window_start_ + interval_)
    close_window(window_start_ + interval_);
}

void TelemetryCollector::close_window(TimeNs rel_end) {
  const TelemetrySlice cur = take();
  slices_.push_back(TelemetrySlice{
      window_start_, rel_end, counter_delta(last_.ftl, cur.ftl),
      counter_delta(last_.flash, cur.flash),
      counter_delta(last_.extras, cur.extras)});
  last_ = cur;
  window_start_ = rel_end;
}

void TelemetryCollector::finalize(TimeNs now) {
  if (!attached_) return;
  catch_up(now);
  const TimeNs rel = now - origin_;
  if (rel > window_start_) close_window(rel);
}

}  // namespace kvsim::ssd
