// FlashController: schedules page reads, page programs, and block erases
// onto per-die and per-channel resources of the event-driven simulator.
//
// Timing model (standard NAND pipeline):
//   read:    die busy for tR, then channel busy for the data transfer
//   program: channel busy for the transfer, then die busy for tPROG
//   erase:   die busy for tBERS
// Contention (queueing on a busy die or channel) emerges from the
// next-free-time reservation; operations from independent dies overlap.
//
// Every program and erase is one page or block per command. Completion
// batching: a multi-page read (read_multi) schedules ONE completion event
// per call — at the completion time of the slowest page — instead of one
// event per page. Per-page timing is still charged page by page in issue
// order (reservation order, retry draws, stats, and stage-breakdown
// samples are identical to issuing the pages individually); only the
// number of event-queue entries shrinks.
//
// Every operation records a stage-breakdown into per-op-type latency
// histograms (die wait vs. die service vs. channel wait vs. transfer), the
// simulator's equivalent of decomposing device latency into queueing and
// service time per pipeline stage. Per-die and per-channel busy time is
// exposed for utilization telemetry.
#pragma once

#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "flash/fault.h"
#include "flash/geometry.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace kvsim::flash {

/// One page of a batched multi-page read (see FlashController::read_multi).
struct PageRead {
  PageId page = 0;
  u32 bytes = 0;  ///< payload bytes to transfer (<= page size)
};

/// One per-slot OOB (out-of-band / spare-area) record an FTL writes
/// alongside a page's payload. The controller treats the fields as
/// opaque; each FTL packs its own reverse-map metadata (the block FTL
/// stores the slot's LPN, the KV FTL its blob hash and chunk geometry).
struct OobEntry {
  u64 tag = 0;  ///< FTL meaning: LPN (block FTL) or key hash (KV FTL)
  u64 fp = 0;   ///< content fingerprint of the slot / blob value
  u64 a = 0;    ///< FTL-packed metadata word
  u64 b = 0;    ///< FTL-packed metadata word
};

/// The OOB contents of one page program, committed at program issue time.
/// `epoch` is a device-global monotonic program counter — the total order
/// mount-time rebuild replays — and `durable_at` is the program's die
/// completion time: a power cut before `durable_at` makes the page *torn*
/// (physically part-programmed, OOB unreadable → incomplete epoch).
struct PageOob {
  u64 epoch = 0;
  TimeNs durable_at = 0;
  std::vector<OobEntry> entries;
};

#define KVSIM_FLASH_STATS(X)                                            \
  X(page_reads)                                                         \
  X(page_programs)                                                      \
  X(block_erases)                                                       \
  X(read_retries) /* ECC soft-decode retry rounds */                    \
  X(bytes_read)   /* bytes transferred to the controller on reads */    \
  X(bytes_programmed)

struct FlashStats {
  KVSIM_COUNTERS(KVSIM_FLASH_STATS)
};

/// Latency decomposition of one op class into pipeline stages. For every
/// completed operation the four stage histograms each record one sample,
/// and the samples sum exactly to the `total` (end-to-end) sample:
///   read:    die_wait + die_service (tR + retries) + channel_wait + transfer
///   program: channel_wait + transfer + die_wait + die_service (tPROG)
///   erase:   die_wait + die_service (tBERS); channel stages record 0
struct StageBreakdown {
  LatencyHistogram die_wait;      ///< queueing for the die
  LatencyHistogram die_service;   ///< array time (tR/tPROG/tBERS + retries)
  LatencyHistogram channel_wait;  ///< queueing for the channel bus
  LatencyHistogram transfer;      ///< payload transfer on the channel
  LatencyHistogram total;         ///< end-to-end operation latency

  void merge(const StageBreakdown& o) {
    die_wait.merge(o.die_wait);
    die_service.merge(o.die_service);
    channel_wait.merge(o.channel_wait);
    transfer.merge(o.transfer);
    total.merge(o.total);
  }
};

/// Legality observer for flash commands (implemented by ssd::FlashAudit).
/// The controller notifies the sink at command *issue* time, before any
/// timing is charged, so an illegal command fails before it can perturb
/// the simulation. Attaching a sink is the KVSIM_AUDIT build's job; the
/// null-check per command is the only cost when auditing is off.
class FlashAuditSink {
 public:
  virtual ~FlashAuditSink() = default;
  virtual void on_read(PageId p, u32 bytes) = 0;
  virtual void on_program(PageId p) = 0;
  virtual void on_erase(BlockId b) = 0;
};

class FlashController {
 public:
  KVSIM_THREAD_CONFINED;
  using Done = sim::Task;

  /// Retry rounds per read are bounded so a misconfigured retry
  /// probability (>= 1) degrades latency instead of livelocking.
  static constexpr u32 kMaxReadRetryRounds = 8;

  FlashController(sim::EventQueue& eq, const FlashGeometry& geom,
                  const FlashTiming& timing);

  // Every operation takes its completion as a template parameter so the
  // callable is stored inline in the scheduled event whenever it fits.
  // Two callback shapes are accepted:
  //   * status-blind (invocable with no arguments) — the pre-fault
  //     signature; compiles to exactly the old completion path.
  //   * status-aware (invocable with OpStatus, or with (OpStatus, PageId)
  //     for read_multi) — receives the op's fault outcome. On the
  //     fault-free path the status is OpStatus::kOk by construction.

  /// Read `bytes` (<= page size) out of page `p`; `done` runs at completion.
  template <typename F>
  void read_page(PageId p, u32 bytes, F&& done) {
    complete_one(charge_read(p, bytes), std::forward<F>(done));
  }

  /// Read `count` pages as one host-visible operation with a single
  /// completion event: each page charges the exact per-page read pipeline
  /// in array order (telemetry still records one sample per page), and
  /// `done` runs once, when the slowest page completes. Pages may span
  /// dies and channels. `count == 0` completes on the current tick.
  /// A status-aware `done` receives the worst per-page status and the
  /// first page that produced it (meaningful only on error). Returns the
  /// time the completion event is scheduled at.
  template <typename F>
  TimeNs read_multi(const PageRead* pages, u32 count, F&& done) {
    if (count == 0) {
      complete_multi(eq_.now(), OpStatus::kOk, 0, std::forward<F>(done));
      return eq_.now();
    }
    // Charge pages in array order so retry draws, reservation order, and
    // stage samples match count separate read_page calls exactly; the only
    // difference is the single completion event at the slowest page's time.
    TimeNs latest = 0;
    OpStatus worst = OpStatus::kOk;
    PageId bad = pages[0].page;
    for (u32 i = 0; i < count; ++i) {
      const OpCharge c = charge_read(pages[i].page, pages[i].bytes);
      latest = std::max(latest, c.done_at);
      if (static_cast<u8>(c.status) > static_cast<u8>(worst)) {
        worst = c.status;
        bad = pages[i].page;
      }
    }
    complete_multi(latest, worst, bad, std::forward<F>(done));
    return latest;
  }

  /// Program a full page holding `bytes` of payload.
  template <typename F>
  void program_page(PageId p, u32 bytes, F&& done) {
    complete_one(charge_program(p, bytes), std::forward<F>(done));
  }

  /// Erase a block.
  template <typename F>
  void erase_block(BlockId b, F&& done) {
    complete_one(charge_erase(b), std::forward<F>(done));
  }

  [[nodiscard]] const FlashStats& stats() const { return stats_; }
  [[nodiscard]] const FlashGeometry& geometry() const { return geom_; }
  [[nodiscard]] const FlashTiming& timing() const { return timing_; }

  // --- stage-breakdown telemetry -----------------------------------------
  [[nodiscard]] const StageBreakdown& read_stages() const {
    return read_stages_;
  }
  [[nodiscard]] const StageBreakdown& program_stages() const {
    return program_stages_;
  }
  [[nodiscard]] const StageBreakdown& erase_stages() const {
    return erase_stages_;
  }

  // --- utilization telemetry ---------------------------------------------
  [[nodiscard]] u64 num_dies() const { return dies_.size(); }
  [[nodiscard]] u32 num_channels() const { return (u32)channels_.size(); }
  [[nodiscard]] TimeNs die_busy_ns(u64 die) const {
    return dies_[die].busy_time();
  }
  [[nodiscard]] TimeNs channel_busy_ns(u32 ch) const {
    return channels_[ch].busy_time();
  }
  [[nodiscard]] TimeNs total_die_busy_ns() const;
  [[nodiscard]] TimeNs total_channel_busy_ns() const;

  /// Utilization of the busiest die over [0, now].
  [[nodiscard]] double max_die_utilization() const;
  /// Mean die utilization over [0, now].
  [[nodiscard]] double mean_die_utilization() const;

  // --- invariant auditing --------------------------------------------------
  /// Attach (or detach, with nullptr) a legality observer. The sink must
  /// outlive the controller or be detached first.
  void set_audit(FlashAuditSink* sink) { audit_ = sink; }
  [[nodiscard]] FlashAuditSink* audit() const { return audit_; }

  // --- fault injection -----------------------------------------------------
  /// Attach (or detach, with nullptr) a fault model. The model must
  /// outlive the controller or be detached first. With no model attached
  /// every op completes OpStatus::kOk and charges pre-fault timing
  /// exactly.
  void set_faults(FaultModel* model) { faults_ = model; }
  [[nodiscard]] FaultModel* faults() const { return faults_; }

  // --- crash tracking (per-page OOB metadata) ------------------------------
  /// Enable OOB capture for the crash/recovery model: the bed's one
  /// crash switch, set before the FTL is built (the FTL reads it once,
  /// and the host layers read theirs from the FTL). Off by default:
  /// stage_oob() is then a no-op. OOB bookkeeping runs synchronously at
  /// charge time and schedules no events either way.
  void set_crash_tracking(bool on) { oob_on_ = on; }
  [[nodiscard]] bool crash_tracking() const { return oob_on_; }

  /// Stage the OOB records of `page`'s upcoming program. They commit
  /// (gain an epoch and a durable_at) when the program is charged, and
  /// are dropped if the page never programs or its block is erased.
  void stage_oob(PageId page, std::vector<OobEntry> entries);

  /// Power-loss cut at `now`: programs completing after the cut are torn
  /// — their OOB is removed and their pages returned — all staged OOB is
  /// dropped, and die/channel reservations die with the power. Erases
  /// in flight at the cut are modeled as completed (mount re-drives
  /// interrupted erasures before handing the block out).
  std::vector<PageId> power_loss(TimeNs now);

  /// Committed OOB of every durable page program since the last erase of
  /// its block (rebuild input; iterate and order by epoch).
  [[nodiscard]] const std::unordered_map<PageId, PageOob>& committed_oob()
      const {
    return oob_;
  }

 private:
  /// One charged (reserved, counted, sampled) but not yet scheduled op.
  struct OpCharge {
    TimeNs done_at;
    OpStatus status;
  };

  /// Charge one op (audit/fault hooks, retry draws, reservations, stats,
  /// stage samples) and return its completion time and fault outcome
  /// without scheduling.
  OpCharge charge_read(PageId p, u32 bytes);
  OpCharge charge_program(PageId p, u32 bytes);
  OpCharge charge_erase(BlockId b);

  /// Stamp the op's deadline verdict onto an otherwise-ok charge.
  [[nodiscard]] OpStatus apply_deadline(OpStatus st, TimeNs done_at) const {
    if (st == OpStatus::kOk && faults_ != nullptr) {
      const TimeNs deadline = faults_->op_deadline_ns();
      if (deadline > 0 && done_at - eq_.now() > deadline)
        return OpStatus::kTimeout;
    }
    return st;
  }

  /// Schedule the single completion of a charged op. Status-blind
  /// callables are scheduled as-is (byte-for-byte the pre-fault path);
  /// status-aware ones are wrapped, binding the status constant kOk on
  /// the fault-free branch so the wrapper stays as small as the callable.
  template <typename F>
  void complete_one(const OpCharge& c, F&& done) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_invocable_v<D&, OpStatus>) {
      if (c.status == OpStatus::kOk) {
        eq_.schedule_at(c.done_at, [f = std::forward<F>(done)]() mutable {
          f(OpStatus::kOk);
        });
      } else {
        eq_.schedule_at(c.done_at,
                        [f = std::forward<F>(done), st = c.status]() mutable {
                          f(st);
                        });
      }
    } else {
      eq_.schedule_at(c.done_at, std::forward<F>(done));
    }
  }

  template <typename F>
  void complete_multi(TimeNs at, OpStatus worst, PageId bad, F&& done) {
    using D = std::remove_cvref_t<F>;
    if constexpr (std::is_invocable_v<D&, OpStatus, PageId>) {
      if (worst == OpStatus::kOk) {
        eq_.schedule_at(at, [f = std::forward<F>(done)]() mutable {
          f(OpStatus::kOk, PageId{0});
        });
      } else {
        eq_.schedule_at(at,
                        [f = std::forward<F>(done), worst, bad]() mutable {
                          f(worst, bad);
                        });
      }
    } else {
      eq_.schedule_at(at, std::forward<F>(done));
    }
  }

  sim::EventQueue& eq_;
  FlashGeometry geom_;
  FlashTiming timing_;
  std::vector<sim::Resource> dies_;
  std::vector<sim::Resource> channels_;
  Rng retry_rng_;  // deterministic ECC retry draws
  FlashStats stats_;
  StageBreakdown read_stages_;
  StageBreakdown program_stages_;
  StageBreakdown erase_stages_;
  FlashAuditSink* audit_ = nullptr;
  FaultModel* faults_ = nullptr;

  // Crash tracking (empty and untouched unless oob_on_).
  bool oob_on_ = false;
  u64 oob_epoch_ = 0;
  std::unordered_map<PageId, PageOob> oob_;
  std::unordered_map<PageId, std::vector<OobEntry>> staged_oob_;
};

}  // namespace kvsim::flash
