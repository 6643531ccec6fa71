// Per-tenant SLO admission control (docs/API.md "Overload & SLOs").
//
// Sits above the NVMe link, in the runner's open-loop dispatch path: each
// arrival is offered to the tenant's AdmissionController before any
// device machinery sees it. The controller keeps a windowed estimate of
// recent completion latencies against the tenant's SloSpec and, when the
// SLO is at risk or the tenant's in-flight + backlog footprint exceeds
// its cap, sheds or defers the op instead of letting an unbounded host
// backlog destroy the tail for everyone (graceful degradation: the
// classic saturation knee flattens into bounded-latency goodput plus an
// explicit shed rate).
//
// Shed decisions are pure functions of simulation state — the windowed
// ring buffer and the caller-supplied footprint — so open-loop runs stay
// byte-identical across reruns and sweep thread counts.
#pragma once

#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim::harness {

/// What to do with new arrivals while the SLO is at risk.
enum class ShedPolicy {
  /// Fail new arrivals immediately with Status::kShed.
  kRejectNew,
  /// Park new arrivals with a deadline; an op that cannot dispatch
  /// before `defer_deadline_ns` elapses fails with kDeadlineExceeded.
  kDeferWithDeadline,
  /// Shed reads/scans first (they have client-side fallbacks: caches,
  /// replicas) and defer writes, which carry durability obligations.
  kDegradeReads,
};

/// One tenant's service-level objective. Default-constructed = disabled:
/// the runner skips the controller entirely and open-loop arrivals park
/// in an unbounded backlog (the "unprotected" configuration).
struct SloSpec {
  /// Tail-latency target; 0 disables admission control for the tenant.
  TimeNs p99_target_ns = 0;
  /// Cap on the tenant's total footprint (dispatched + parked). Arrivals
  /// past it are shed regardless of policy — the hard backstop that
  /// bounds backlog wait. 0 = uncapped (estimator-only control).
  u64 max_inflight = 0;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// Parking budget for kDeferWithDeadline / degraded writes.
  /// 0 = half the p99 target.
  TimeNs defer_deadline_ns = 0;
  /// Completion-latency samples the estimator keeps (ring buffer).
  u32 window = 128;

  [[nodiscard]] bool enabled() const { return p99_target_ns != 0; }
  [[nodiscard]] TimeNs deadline() const {
    return defer_deadline_ns ? defer_deadline_ns : p99_target_ns / 2;
  }
};

/// The admission verdict for one arrival.
enum class Admission {
  kAdmit,  ///< dispatch (or park in the plain overflow backlog)
  kDefer,  ///< park with a deadline (kDeferWithDeadline semantics)
  kShed,   ///< fail now with Status::kShed
};

/// Windowed-p99 admission controller for one tenant. Thread-confined
/// simulator machinery: the runner constructs one per protected tenant
/// inside the cell that drives it; the copyable SloSpec is what crosses
/// API boundaries (RunOptions::slos), mirroring OpSource/OpSourceFactory.
class AdmissionController {
 public:
  KVSIM_THREAD_CONFINED;
  explicit AdmissionController(const SloSpec& slo);

  /// Record one completion latency of an admitted op.
  void on_completion(TimeNs latency);

  /// Verdict for an arrival of type `is_read` (reads/scans degrade first
  /// under kDegradeReads) given the tenant's current footprint
  /// (`inflight` dispatched + `backlog` parked). Below the hard cap, an
  /// idle tenant (inflight == 0) always admits: that probe is the only
  /// way the windowed estimator can observe recovery.
  [[nodiscard]] Admission decide(bool is_read, u64 inflight,
                                 u64 backlog) const;

  /// True when the windowed latency estimate says the p99 target is in
  /// danger: with a primed window, more than 1% of recent completions
  /// (i.e. the windowed p99) sit over the target.
  [[nodiscard]] bool at_risk() const;

  [[nodiscard]] const SloSpec& slo() const { return slo_; }
  [[nodiscard]] u64 samples() const { return total_; }

 private:
  SloSpec slo_;
  std::vector<TimeNs> ring_;
  u32 next_ = 0;     ///< ring cursor
  u32 filled_ = 0;   ///< samples resident (<= slo_.window)
  u32 over_ = 0;     ///< resident samples over the target (O(1) upkeep)
  u64 total_ = 0;    ///< lifetime completions observed
};

}  // namespace kvsim::harness
