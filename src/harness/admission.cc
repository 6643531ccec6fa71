#include "harness/admission.h"

namespace kvsim::harness {

AdmissionController::AdmissionController(const SloSpec& slo) : slo_(slo) {
  ring_.resize(slo_.window ? slo_.window : 1, 0);
}

void AdmissionController::on_completion(TimeNs latency) {
  const TimeNs evicted = ring_[next_];
  const bool was_full = filled_ == (u32)ring_.size();
  if (was_full && evicted > slo_.p99_target_ns) --over_;
  ring_[next_] = latency;
  if (latency > slo_.p99_target_ns) ++over_;
  next_ = (next_ + 1) % (u32)ring_.size();
  if (!was_full) ++filled_;
  ++total_;
}

bool AdmissionController::at_risk() const {
  // Demand a primed window before intervening: a couple of slow ops at
  // startup must not trip the breaker. "More than 1% over target" is the
  // windowed-p99 test: if the p99 of the ring were under the target, at
  // most 1% of samples could sit above it.
  if (filled_ < (u32)ring_.size()) return false;
  return (u64)over_ * 100 > (u64)filled_;
}

Admission AdmissionController::decide(bool is_read, u64 inflight,
                                      u64 backlog) const {
  if (!slo_.enabled()) return Admission::kAdmit;
  // Hard backstop first: past the footprint cap every policy sheds —
  // parking more would let backlog wait alone blow the target.
  if (slo_.max_inflight != 0 && inflight + backlog >= slo_.max_inflight)
    return Admission::kShed;
  // An idle tenant always probes: the windowed estimator recovers only
  // through fresh completions, so shedding with nothing in flight would
  // wedge an at-risk tenant in permanent shed (the stale over-target
  // window could never refresh). One probe at a time bounds the cost.
  if (inflight == 0) return Admission::kAdmit;
  if (!at_risk()) return Admission::kAdmit;
  switch (slo_.shed_policy) {
    case ShedPolicy::kRejectNew:
      return Admission::kShed;
    case ShedPolicy::kDeferWithDeadline:
      return Admission::kDefer;
    case ShedPolicy::kDegradeReads:
      return is_read ? Admission::kShed : Admission::kDefer;
  }
  return Admission::kAdmit;
}

}  // namespace kvsim::harness
