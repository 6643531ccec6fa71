// Workload runner: drives a KvStack (or a raw block device) at a fixed
// queue depth inside its event simulation and collects the observables
// the paper reports — per-op-type latency distributions, bandwidth
// timelines, host CPU utilization, and device counters.
#pragma once

#include <string>

#include <vector>

#include "blockapi/block_device.h"
#include "common/counters.h"
#include "common/histogram.h"
#include "common/timeseries.h"
#include "harness/admission.h"
#include "harness/stack_iface.h"
#include "harness/trace.h"
#include "nvme/nvme_link.h"
#include "ssd/telemetry.h"
#include "workload/workload.h"

namespace kvsim::wl {
class KvtWriter;  // workload/trace.h — op-stream capture sink
}

namespace kvsim::harness {

/// Everything configurable about one run_workload() invocation.
struct RunOptions {
  /// Quiesce background work (flushes, compactions, defrag, GC-visible
  /// programs) after the last op completes and before the clock stops
  /// (recommended between phases).
  bool drain_after = false;
  /// Record one TraceRecord per completed op into this recorder.
  TraceRecorder* trace = nullptr;
  /// Collect time-sliced device telemetry (FtlStats/FlashStats deltas)
  /// while the run executes. Costs one integer compare per completion
  /// plus one counter sweep per elapsed interval.
  bool telemetry = true;
  /// Sampling window of the time-sliced collector.
  TimeNs telemetry_interval = 100 * kMs;
  /// Device fault plan. When `faults.enabled`, it is installed into the
  /// stack (KvStack::apply_fault_plan) before the first op is issued;
  /// a default-constructed (disabled) plan leaves the stack untouched,
  /// so fault-free runs execute the exact pre-fault path.
  ssd::FaultPlan faults;
  /// Crash injection: when nonzero (and the stack was built with crash
  /// tracking), a power-loss cut fires at the first event at or after
  /// this much simulated time since the run started. Ops in flight at the
  /// cut are discarded — their completions die with the event queue —
  /// then the stack mounts on its own clock (KvStack::simulate_crash), its
  /// counters land in RunResult::recovery, and the rest of the workload is
  /// issued against the mounted stack, beside any work the mount queued.
  /// At most one cut per run.
  TimeNs crash_at_ns = 0;
  /// Capture the op stream: every op is appended to this `.kvt` writer at
  /// dispatch (issue order, with its tenant index), before any completion
  /// can reorder — so replaying the capture through TraceOpSource
  /// reproduces the run byte-identically. The recorder has no simulation
  /// side effects. The caller finishes the writer.
  wl::KvtWriter* record_ops = nullptr;
  /// Per-tenant SLOs for open-loop runs: tenant i uses slos[i] when it
  /// exists and is enabled (p99_target_ns != 0). An enabled SLO puts an
  /// AdmissionController in front of the tenant's dispatch path; missing
  /// or disabled entries leave the tenant unprotected (arrivals past its
  /// window park in an unbounded backlog). Ignored by closed-loop
  /// tenants, whose window can never overflow.
  std::vector<SloSpec> slos;
};

#define KVSIM_ERROR_COUNTS(X)                                              \
  X(io)       /* kIoError */                                               \
  X(media)    /* kMediaError: device-side read recovery exhausted */       \
  X(busy)     /* kDeviceBusy: rejected during a transient stall */         \
  X(timeout)  /* kTimeout: completed past the configured deadline */       \
  X(capacity) /* kDeviceFull / kCapacityLimit */                           \
  X(other)    /* any other non-OK status */                                \
  X(shed)     /* kShed: admission control rejected before dispatch */      \
  X(deadline) /* kDeadlineExceeded: deferred past its deadline */

/// Non-OK, non-NotFound completions, broken out by failure category.
struct ErrorCounts {
  KVSIM_COUNTERS(KVSIM_ERROR_COUNTS)

  void count(Status s) {
    switch (s) {
      case Status::kIoError: ++io; break;
      case Status::kMediaError: ++media; break;
      case Status::kDeviceBusy: ++busy; break;
      case Status::kTimeout: ++timeout; break;
      case Status::kDeviceFull:
      case Status::kCapacityLimit: ++capacity; break;
      case Status::kShed: ++shed; break;
      case Status::kDeadlineExceeded: ++deadline; break;
      default: ++other; break;
    }
  }
  [[nodiscard]] u64 total() const { return counter_sum(*this); }
};

/// Open-loop / overload observables (all zero for closed loop).
#define KVSIM_OVERLOAD_COUNTERS(X)                                          \
  X(offered_ops)           /* scheduled arrivals generated (open loop) */  \
  X(shed_ops)              /* arrivals failed with kShed */                \
  X(deferred_ops)          /* arrivals parked with a deadline */           \
  X(deadline_exceeded_ops) /* deferred ops that missed it */               \
  X(arrival_overflows)     /* parked on a full window (overload signal) */ \
  X(slo_goodput_ops)       /* ok completions within the SLO target */      \
  X(backlog_peak)          /* high-water host backlog (parked arrivals) */

struct OverloadCounters {
  KVSIM_COUNTERS(KVSIM_OVERLOAD_COUNTERS)
};

struct RunResult : OverloadCounters {
  LatencyHistogram insert, update, read, scan, del, all;
  BandwidthTracker bw{100 * kMs};
  /// Time-sliced device counters sampled during the run (empty when the
  /// stack exposes no FTL/flash telemetry or RunOptions disabled it).
  ssd::TelemetryCollector telemetry;
  TimeNs elapsed = 0;
  u64 ops = 0;
  ErrorCounts errors;       ///< non-OK, non-NotFound completions
  u64 not_found = 0;
  u64 host_cpu_ns = 0;      ///< CPU burned by the stack during the run
  u64 host_retries = 0;     ///< command re-drives by the stack's RetryPolicy
  bool crashed = false;     ///< a power-loss cut fired during this run
  ssd::CrashOutcome recovery;  ///< all-zero unless `crashed`

  /// True when any open-loop counter moved (conditional report emission).
  [[nodiscard]] bool overload_activity() const {
    return any_counter<OverloadCounters>(*this);
  }

  [[nodiscard]] double throughput_ops_per_sec() const {
    return elapsed ? (double)ops * (double)kSec / (double)elapsed : 0.0;
  }
  [[nodiscard]] double bandwidth_bytes_per_sec() const {
    return bw.mean_bytes_per_sec();
  }
  /// Host CPU utilization in "cores busy" (cpu time / wall time).
  [[nodiscard]] double cpu_cores_busy() const {
    return elapsed ? (double)host_cpu_ns / (double)elapsed : 0.0;
  }
};

/// One tenant's observables from a run_mix invocation.
struct TenantResult {
  std::string name;
  u32 weight = 1;
  u32 queue = 0;
  u8 nsid = 0;
  /// Order-independent digest of the tenant's result stream: a
  /// commutative fold over (op type, key id, status, bytes, returned
  /// fingerprint) of every completion. Two runs in which the tenant saw
  /// the same functional results — same values, same statuses, possibly
  /// reordered by timing — produce the same digest, which is what the
  /// namespace-isolation tests compare across co-runner configurations.
  u64 digest = 0;
  /// Simulation time of this tenant's last completion, relative to run
  /// start (the fairness benches compare finish times across tenants
  /// whose op counts are proportional to their weights).
  TimeNs last_completion_ns = 0;
  RunResult result;
};

/// Per-queue NVMe counter deltas over one run_mix invocation
/// (max_occupancy is the high-water mark at run end, not a delta).
struct QueueUsage {
  u32 qid = 0;
  nvme::NvmeQueueStats stats;
};

/// What run_mix returns: the combined view every single-tenant caller
/// already consumed, plus the per-tenant and per-queue splits.
struct MixResult {
  RunResult combined;
  std::vector<TenantResult> tenants;
  std::vector<QueueUsage> queues;  ///< empty when the stack has no NVMe link
  u64 arbitration_rounds = 0;      ///< WRR credit replenishes during the run
  u64 urgent_fetches = 0;  ///< SQ fetches via the urgent-class fast path
};

/// Run `spec` against `stack`. Inserts/updates call store(), reads call
/// retrieve(), deletes call remove(). The run finishes when every op has
/// completed; see RunOptions for draining, tracing, telemetry, and fault
/// injection. Equivalent to run_mix(stack, TenantMix::single(spec),
/// opts).combined — same issue order, byte-identical observables.
RunResult run_workload(KvStack& stack, const wl::WorkloadSpec& spec,
                       const RunOptions& opts = {});

/// Run ops drawn from `source` (trace replay, trace-fitted synthesis, or
/// any custom OpSource) against `stack`. `shape` supplies only the
/// serving shape — key_bytes, key_space, queue_depth; shape.num_ops is
/// ignored, the source decides when the stream ends. Equivalent to the
/// spec overload when `source` is synthetic_source(spec).
RunResult run_workload(KvStack& stack, const wl::WorkloadSpec& shape,
                       wl::OpSourceFactory source,
                       const RunOptions& opts = {});

/// Run a weighted tenant mix against `stack`. Each tenant runs a closed
/// loop at its own spec.queue_depth on its own namespace/queue
/// (KvStack::store_as et al.); initial issuance round-robins one op per
/// tenant in declaration order, and every completion refills only its
/// own tenant's window, so the interleaving is deterministic. Tenants
/// with empty names are labeled "t<index>".
///
/// Tenants whose spec.arrival is open-loop instead inject ops at the
/// schedule's timestamps regardless of completions: at most
/// arrival.max_inflight dispatch concurrently, later arrivals park in a
/// host backlog (latency counts from the scheduled arrival), and an
/// enabled RunOptions::slos entry puts an AdmissionController in front of
/// the tenant's dispatch path (kShed / kDeadlineExceeded surface through
/// ErrorCounts and the RunResult overload counters). Both kinds refill
/// their window through one path: backlog first, then (closed loop) the
/// op source.
MixResult run_mix(KvStack& stack, const wl::TenantMix& mix,
                  const RunOptions& opts = {});

/// Convenience: populate `keys` distinct keys (sequential ids) with fixed
/// value size, then drain.
RunResult fill_stack(KvStack& stack, u64 keys, u32 key_bytes, u32 value_bytes,
                     u32 queue_depth = 64, u64 seed = 7);

// --- raw block device runner (direct I/O experiments, Figs. 3-5) ----------

enum class BlockOp { kRead, kWrite };

struct BlockRunSpec {
  u64 num_ops = 100'000;
  u32 io_bytes = 4 * KiB;
  BlockOp op = BlockOp::kWrite;
  bool sequential = false;
  /// LBA span addressed (bytes); 0 = whole device.
  u64 span_bytes = 0;
  u32 queue_depth = 1;
  u64 seed = 42;
};

RunResult run_block(sim::EventQueue& eq, blockapi::BlockDevice& dev,
                    const BlockRunSpec& spec, bool flush_after = false);

}  // namespace kvsim::harness
