// The uniform stack interface the workload runner drives.
//
// Callbacks are move-only sim::Fn (completion continuations are
// single-shot by construction) and keys are passed as std::string_view:
// the stack copies the key iff it must outlive the call.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/counters.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/task.h"
#include "ssd/fault.h"
#include "ssd/stats.h"

namespace kvsim::flash {
class FlashController;
}

namespace kvsim::nvme {
class NvmeLink;
}

namespace kvsim::harness {

/// Host-side retry/backoff policy for transient device errors
/// (kMediaError while the device relocates data, kDeviceBusy during a
/// fault-induced stall window, kTimeout on an op that exceeded its
/// deadline). Beds consult it before re-driving a failed command.
struct RetryPolicy {
  /// Re-drives after the initial attempt; 0 disables host retry.
  u32 max_retries = 3;
  /// Delay before the first re-drive.
  TimeNs backoff_ns = 500 * kUs;
  /// Multiplier applied per subsequent re-drive (exponential backoff).
  double backoff_mult = 2.0;
  /// Ceiling on any single backoff delay. The exponential is clamped to
  /// this *before* the integer conversion: an unbounded double-to-TimeNs
  /// cast is undefined behavior once the product leaves TimeNs range.
  TimeNs max_backoff_ns = 30 * kSec;
  bool retry_media_error = true;
  bool retry_busy = true;
  bool retry_timeout = true;
  /// Retry-storm guard: a per-run token bucket shared by every retry the
  /// bed issues. Capacity in tokens (one re-drive each); when the bucket
  /// runs dry the failing status is delivered instead of re-driven, so
  /// retries cannot amplify an overload. 0 = unlimited (the legacy path).
  u32 retry_budget = 0;
  /// Tokens regained per simulated second (0 = no refill: a hard cap).
  double retry_refill_per_sec = 0.0;
  /// Desynchronize retries: each backoff delay is stretched by up to this
  /// fraction of itself, drawn deterministically from the bed's seeded
  /// jitter stream (detail::RetryBudget). 0 = no jitter (legacy-exact).
  double jitter_frac = 0.0;

  /// Throws std::invalid_argument on a backoff_mult below 1 or NaN (1 is
  /// constant backoff) and a jitter_frac outside [0, 1] or NaN, which
  /// would cast a negative or non-finite delay to TimeNs, and on a
  /// negative or non-finite retry_refill_per_sec, which would drain or
  /// poison the token bucket. Beds call it when they are constructed.
  void validate() const {
    auto fail = [](const char* what) {
      throw std::invalid_argument(std::string("RetryPolicy: ") + what);
    };
    if (!(backoff_mult >= 1.0)) fail("backoff_mult must be at least 1");
    if (!(jitter_frac >= 0.0 && jitter_frac <= 1.0))
      fail("jitter_frac must lie in [0, 1]");
    if (!(retry_refill_per_sec >= 0.0 && std::isfinite(retry_refill_per_sec)))
      fail("retry_refill_per_sec must be finite and non-negative");
  }

  [[nodiscard]] bool should_retry(Status s, u32 attempt) const {
    if (attempt >= max_retries) return false;
    switch (s) {
      case Status::kMediaError:
        return retry_media_error;
      case Status::kDeviceBusy:
        return retry_busy;
      case Status::kTimeout:
        return retry_timeout;
      default:
        return false;
    }
  }

  /// Backoff delay before re-drive number `attempt` (1-based), saturating
  /// at `max_backoff_ns`. O(1): the exponential is evaluated in closed
  /// form (one pow) with the clamp applied before the integer conversion,
  /// matching the former multiply loop including its no-growth edge cases
  /// (mult == 1, base already at the cap).
  [[nodiscard]] TimeNs backoff_for(u32 attempt) const {
    const double cap = (double)max_backoff_ns;
    double d = std::min((double)backoff_ns, cap);
    if (attempt > 1 && backoff_mult != 1.0 && d < cap)
      d = std::min(d * std::pow(backoff_mult, (double)(attempt - 1)), cap);
    return (TimeNs)d;
  }
};

/// Per-op tenant context: which isolated keyspace the op addresses and
/// which NVMe submission queue carries it. The default-constructed ctx
/// (namespace 0, queue 0) is the exact pre-tenancy path on every bed.
struct TenantCtx {
  u8 nsid = 0;    ///< namespace / keyspace (0 = default, no isolation tag)
  u32 queue = 0;  ///< NVMe submission queue
};

class KvStack {
 public:
  KVSIM_THREAD_CONFINED;
  using StoreDone = sim::Fn<void(Status)>;
  using RetrieveDone = sim::Fn<void(Status, ValueDesc)>;
  using RemoveDone = sim::Fn<void(Status)>;

  virtual ~KvStack() = default;

  // --- Host ops ---------------------------------------------------------
  /// Issue the op on behalf of tenant `t`: the op addresses namespace
  /// t.nsid's keyspace and rides submission queue t.queue. Stacks that
  /// model neither ignore the ctx.
  virtual void store_as(const TenantCtx& t, std::string_view key,
                        ValueDesc v, StoreDone done) = 0;
  virtual void retrieve_as(const TenantCtx& t, std::string_view key,
                           RetrieveDone done) = 0;
  virtual void remove_as(const TenantCtx& t, std::string_view key,
                         RemoveDone done) = 0;
  /// The default tenant's op (namespace 0, queue 0).
  virtual void store(std::string_view key, ValueDesc v, StoreDone done) {
    store_as(TenantCtx{}, key, v, std::move(done));
  }
  virtual void retrieve(std::string_view key, RetrieveDone done) {
    retrieve_as(TenantCtx{}, key, std::move(done));
  }
  virtual void remove(std::string_view key, RemoveDone done) {
    remove_as(TenantCtx{}, key, std::move(done));
  }
  /// The bed's NVMe link (per-queue stats for MixResult), when simulated.
  virtual const nvme::NvmeLink* nvme_link() const { return nullptr; }
  /// Flush buffers and wait for background work (flushes, compactions,
  /// defrag, GC-visible programs) to quiesce.
  virtual void drain(sim::Task done) = 0;

  /// The stack's private simulation clock.
  virtual sim::EventQueue& eq() = 0;

  /// Total host CPU time this stack has burned since construction.
  virtual u64 host_cpu_ns() const = 0;
  /// Physical device bytes currently consumed (for space amplification).
  virtual u64 device_bytes_used() const = 0;
  /// Application bytes (keys + values) currently live.
  virtual u64 app_bytes_live() const = 0;
  /// Stacks that cannot track app bytes internally accept runner hints.
  virtual void add_app_bytes(i64 /*delta*/) {}
  virtual const char* name() const = 0;
  /// Device FTL statistics, when the stack sits on a simulated FTL.
  virtual const ssd::FtlStats* ftl_stats() const { return nullptr; }
  /// The flash substrate under the stack's device (stage-breakdown and
  /// utilization telemetry), when simulated.
  virtual const flash::FlashController* flash_ctrl() const {
    return nullptr;
  }
  /// Cumulative device write-buffer backpressure events (0 when the stack
  /// has no simulated write buffer).
  virtual u64 buffer_stall_events() const { return 0; }

  // --- Fault model ------------------------------------------------------
  /// Install (or clear, when plan.enabled is false) a device fault plan.
  /// Default: stack has no simulated device to inject into.
  virtual void apply_fault_plan(const ssd::FaultPlan& /*plan*/) {}
  /// The installed injector, or nullptr when faults are off.
  virtual const ssd::FaultInjector* fault_injector() const {
    return nullptr;
  }
  /// Commands this stack re-drove after a retryable device error.
  virtual u64 host_retries() const { return 0; }

  // --- Crash / power-loss model -----------------------------------------
  /// True when the bed was built with crash tracking on (per-page OOB
  /// metadata and host durability ledgers kept) and can take a power cut.
  virtual bool crash_supported() const { return false; }
  /// Power-loss cut at the current simulation time: discard every pending
  /// event and all volatile state per the power-loss atomicity rules,
  /// then step the stack's own clock until every layer's mount has called
  /// back. Work the mount queued (defrag, say) is still pending on return.
  /// Returns the cut's counters.
  virtual ssd::CrashOutcome simulate_crash() { return {}; }
  /// Host ops currently in flight (issued, final completion not yet run;
  /// includes ops parked in a retry backoff window).
  virtual u64 inflight_host_ops() const { return 0; }
};

namespace detail {

/// Per-bed retry-budget runtime: the token bucket RetryPolicy configures
/// plus the seeded jitter stream. One instance lives next to the bed's
/// RetryPolicy and is shared by every re-drive the bed schedules —
/// which is the point: the bucket caps *aggregate* re-drives, so
/// a retry storm under overload starves itself instead of the device.
/// With the legacy policy (budget 0, jitter 0) every call degenerates to
/// "always allow, no jitter" and the timing is byte-identical.
class RetryBudget {
 public:
  KVSIM_THREAD_CONFINED;
  /// Install `policy`'s budget knobs and re-derive the jitter stream
  /// from `seed` (beds pass the fault plan's seed, i.e. the run seed).
  void configure(const RetryPolicy& policy, u64 seed) {
    capacity_ = policy.retry_budget;
    refill_per_sec_ = policy.retry_refill_per_sec;
    jitter_frac_ = policy.jitter_frac;
    tokens_ = (double)capacity_;
    last_refill_ = 0;
    denied_ = 0;
    rng_.reseed(seed ^ 0xbad5'70b1'4e57'a11eull);
  }

  /// Take one retry token (refilling for elapsed simulated time first).
  /// False = bucket dry: the caller must deliver the failure instead.
  bool try_consume(TimeNs now) {
    if (capacity_ == 0) return true;  // unlimited: the legacy path
    if (refill_per_sec_ > 0.0 && now > last_refill_)
      tokens_ = std::min((double)capacity_,
                         tokens_ + (double)(now - last_refill_) *
                                       refill_per_sec_ / (double)kSec);
    last_refill_ = now;
    if (tokens_ < 1.0) {
      ++denied_;
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

  /// Stretch a backoff delay by up to jitter_frac of itself (seeded,
  /// deterministic). Identity when jitter is off — no RNG draw, so
  /// jitter-free runs keep their exact event stream.
  TimeNs jittered(TimeNs delay) {
    if (jitter_frac_ <= 0.0) return delay;
    return delay + (TimeNs)(jitter_frac_ * (double)delay * rng_.uniform());
  }

  /// Re-drives refused because the bucket was dry.
  [[nodiscard]] u64 denied() const { return denied_; }
  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  u32 capacity_ = 0;
  double refill_per_sec_ = 0.0;
  double jitter_frac_ = 0.0;
  double tokens_ = 0.0;
  TimeNs last_refill_ = 0;
  u64 denied_ = 0;
  Rng rng_;
};

}  // namespace detail

}  // namespace kvsim::harness
