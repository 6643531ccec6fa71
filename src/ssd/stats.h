// Device-level counters every FTL maintains (the simulator's equivalent of
// S.M.A.R.T. / NVMe-CLI telemetry the paper collects), and the one record
// of a power cut that every layer's mount fills.
#pragma once

#include "common/counters.h"
#include "common/types.h"

namespace kvsim::ssd {

/// FtlStats' work counters, in report order.
#define KVSIM_FTL_WORK_COUNTERS(X)                                          \
  X(host_read_ops)                                                          \
  X(host_write_ops)                                                         \
  X(host_bytes_read)                                                        \
  X(host_bytes_written)                                                     \
  X(gc_runs)                                                                \
  X(gc_foreground_runs)  /* GC invoked while a host write waited */         \
  X(gc_migrated_bytes)   /* valid data rewritten by GC */                   \
  X(gc_migrated_units)   /* blobs / logical pages moved */                  \
  X(rmw_ops)             /* sub-page read-modify-writes (block FTL) */      \
  X(flash_bytes_written) /* host + GC + index program traffic */

/// FtlStats' fault & recovery counters (all zero on a healthy device).
#define KVSIM_FTL_FAULT_COUNTERS(X)                                         \
  X(read_media_errors)  /* reads surfaced as kMediaError to the host */     \
  X(program_failures)   /* page programs that failed on the die */          \
  X(erase_failures)     /* block erases that failed on the die */           \
  X(grown_bad_blocks)   /* blocks retired after a program/erase fail */     \
  X(remapped_units)     /* slots/chunks relocated by media recovery */      \
  X(reprogrammed_pages) /* failed page programs re-driven elsewhere */      \
  X(busy_rejections)    /* host commands bounced with kDeviceBusy */        \
  X(op_timeouts)        /* host commands completed past the deadline */

#define KVSIM_FTL_STATS(X) \
  KVSIM_FTL_WORK_COUNTERS(X) KVSIM_FTL_FAULT_COUNTERS(X)

struct FtlStats {
  KVSIM_COUNTERS(KVSIM_FTL_STATS)
  KVSIM_COUNTER_VISITOR(visit_work, KVSIM_FTL_WORK_COUNTERS)
  KVSIM_COUNTER_VISITOR(visit_faults, KVSIM_FTL_FAULT_COUNTERS)

  /// Write amplification factor: flash program bytes / host write bytes.
  [[nodiscard]] double waf() const {
    return host_bytes_written
               ? (double)flash_bytes_written / (double)host_bytes_written
               : 0.0;
  }

  /// True when any fault & recovery counter moved (reports emit that
  /// group only then).
  [[nodiscard]] bool any_fault_activity() const {
    u64 any = 0;
    visit_faults([&any](const char*, u64 v) { any |= v; }, *this);
    return any != 0;
  }
};

#define KVSIM_CRASH_OUTCOME(X)                                            \
  X(crash_time_ns)        /* simulation time of the power cut */          \
  X(recovery_ns)          /* cut to the last mount continuation */        \
  X(discarded_events)     /* pending events dropped at the cut */         \
  X(rebuild_pages_read)   /* FTL: OOB scan reads during the map rebuild */\
  X(torn_pages)           /* FTL: programs in flight at the cut */        \
  X(recovered_units)      /* slots / blobs / records restored */          \
  X(lost_units)           /* acked units missing or stale after mount */  \
  X(wal_records_replayed) /* LSM: WAL records re-applied at mount */      \
  X(wal_records_lost)     /* LSM: acked records past the durable prefix */\
  X(log_blocks_scanned)   /* hashkv: write blocks scanned at cold start */

/// Counters of one power-loss cut and its mount. The bed stamps the cut;
/// each layer's power_fail_and_recover fills its own fields, and the
/// hashkv store's record counts replace the FTL's slot counts in
/// recovered_units and lost_units. All zero when no cut fired (reports
/// emit them only then).
struct CrashOutcome {
  KVSIM_COUNTERS(KVSIM_CRASH_OUTCOME)

  [[nodiscard]] bool any() const { return any_counter(*this); }
};

}  // namespace kvsim::ssd
