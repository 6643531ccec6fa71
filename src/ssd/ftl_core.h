// One firmware core under both FTLs: the flash-block lifecycle.
//
// The paper flashes one PM983 with two firmwares. BlockFtl and KvFtl derive
// from FtlCore, which owns what they share: block states, allocation and the
// GC reserve, the write buffer, the write points' open pages, page programs
// and flush's drain, the GC driver, bad-block retirement, fault injection
// and the mount's block rebuild. Each FTL plugs in its mapping unit through
// the hooks below.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "flash/controller.h"
#include "sim/event_queue.h"
#include "sim/join.h"
#include "ssd/allocator.h"
#include "ssd/audit.h"
#include "ssd/config.h"
#include "ssd/fault.h"
#include "ssd/stats.h"
#include "ssd/write_buffer.h"

namespace kvsim::ssd {

/// Lifecycle state of one flash block. kIndexBlock holds the KV FTL's index
/// log. kBad is a grown bad block, retired after a program or erase failure:
/// never erased, re-allocated or collected; units on its programmed pages
/// stay readable until invalidated or relocated (dead capacity).
enum class BlockState : u8 {
  kFree,
  kOpen,
  kSealed,
  kErasing,
  kIndexBlock,
  kBad
};

/// Throws AuditFailure unless from -> to is one of the lifecycle's legal
/// transitions: Free->Open, Free->IndexBlock, Open->Sealed, Sealed->Erasing,
/// Erasing->Free, and Open, Sealed or Erasing -> Bad. Always compiled, so a
/// seeded violation is testable in every build; under KVSIM_AUDIT
/// FtlCore::set_block_state checks every change but the mount rebuild's.
void audit_block_transition(flash::BlockId b, BlockState from, BlockState to);

/// An open log head: the block it fills and its open page, with that
/// page's units, the write-buffer bytes they hold and their OOB records
/// staged for the seal.
struct WritePoint {
  std::optional<flash::BlockId> block;
  u32 next_page = 0;         ///< next page index inside `block`
  u32 used = 0;              ///< units in the open page
  u64 host_bytes = 0;        ///< write-buffer bytes the open page holds
  TimeNs last_issue_at = 0;  ///< latest program issue time in `block`
  std::vector<flash::OobEntry> staged;
};

class FtlCore {
 public:
  KVSIM_THREAD_CONFINED;
  FtlCore(const FtlCore&) = delete;
  FtlCore& operator=(const FtlCore&) = delete;
  virtual ~FtlCore();

  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] u64 free_blocks() const { return alloc_.free_blocks(); }
  /// Wear telemetry (erase counts live in the allocator).
  [[nodiscard]] const BlockAllocator& allocator() const { return alloc_; }
  [[nodiscard]] u64 buffer_stalls() const {
    return buffer_.total_stall_events();
  }
  /// The flash controller's crash-tracking switch, read when the FTL was
  /// built: stage OOB for every program so a power cut can be mounted.
  /// The host layers above read theirs from here.
  [[nodiscard]] bool crash_tracking() const { return crash_tracking_; }

  /// Arm (plan.enabled) or disarm fault injection. Disarmed, no injector
  /// exists and the flash hot path is exactly the pre-fault one. Arming
  /// mid-run is allowed; the injector's wear clock starts at zero.
  void set_fault_plan(const FaultPlan& plan);
  /// The active injector, or nullptr when faults are disarmed.
  [[nodiscard]] const FaultInjector* fault_injector() const {
    return faults_.get();
  }

  /// KVSIM_AUDIT: check the FTL's map against its shadow model (a no-op
  /// when auditing is compiled out). Runs when GC stops.
  virtual void audit_verify() const = 0;

 protected:
  FtlCore(sim::EventQueue& eq, flash::FlashController& flash,
          const SsdConfig& dev);

  // Hooks. GC picked a victim holding `valid` units (true: stop, futile);
  // list its pages holding valid units; re-place those units; then, after
  // an erase wave (`wave`) or the victim's erase, judge the cycle (true:
  // stop, futile). An erased block (well or failed) has 0 valid units.
  virtual bool gc_victim_chosen(u32 valid) = 0;
  virtual void gc_victim_pages(flash::BlockId victim,
                               std::vector<flash::PageRead>& reads) = 0;
  virtual void gc_migrate(flash::BlockId victim) = 0;
  virtual bool gc_cycle_futile(bool wave) = 0;
  virtual void on_block_erased(flash::BlockId) {}
  /// A block returned to the free pool: re-place writes waiting for one.
  virtual void on_block_freed() = 0;
  /// Re-place every live unit of page `p` (media scrub, failed program,
  /// the open page of a retired block).
  virtual void relocate_page(flash::PageId p) = 0;

  /// List a write point, once, at construction: retiring a block drops
  /// the open page of the point still filling it.
  void add_write_point(WritePoint& wp) { write_points_.push_back(&wp); }

  /// Every block-state change goes through here. Only the mount rebuild
  /// (`mount`), which seals or frees blocks whatever their state, skips
  /// the transition audit.
  void set_block_state(flash::BlockId b, BlockState to, bool mount = false);
  /// Give `wp` a fresh block if it has none; false when none is left for it.
  /// Host points leave the GC reserve alone and may start background GC.
  bool ensure_block(WritePoint& wp, bool is_gc);
  /// Add `units` holding `host_bytes` of write buffer to `wp`'s open page.
  /// The page's first unit marks it buffered until its program.
  void fill_open_page(WritePoint& wp, u32 units, u64 host_bytes) {
    if (wp.used == 0) {
      const flash::PageId page = geom_.page_id(*wp.block, wp.next_page);
      buffered_pages_[page] = 1;
      ++buffered_count_[geom_.block_of_page(page)];
    }
    wp.used += units;
    wp.host_bytes += host_bytes;
  }
  /// Seal `wp`'s open page: stage its OOB, advance, seal a full block and
  /// issue the program at `ready`, or later if an earlier page of the
  /// block issues later (NAND programs a block's pages in order); inline
  /// when that is now. Completion unbuffers the page, releases its write
  /// buffer, recovers a failed program and wakes drain waiters.
  void seal_open_page(WritePoint& wp, TimeNs ready);
  /// Other programs (KV's index log) count toward the drain as well.
  void count_program() {
    stats_.flash_bytes_written += geom_.page_bytes;
    ++outstanding_programs_;
  }
  void program_done();
  /// Run `done` once no counted program is outstanding.
  void drain(sim::Task done);

  /// A host write is waiting on a free block.
  void start_foreground_gc() {
    ++stats_.gc_foreground_runs;
    if (!gc_running_ && !gc_stuck_) run_gc();
  }
  /// A host overwrite, delete or TRIM made garbage: GC that stopped as
  /// futile can make progress again.
  void fresh_garbage() {
    gc_stuck_ = false;
    gc_futile_streak_ = 0;
  }

  /// Inside a stall-induced busy window, count a busy rejection, answer
  /// `done` kDeviceBusy (with `extra` results) after the dispatch time and
  /// return true.
  template <typename Done, typename... Extra>
  bool busy_rejected(Done& done, Extra... extra) {
    if (!host_busy()) return false;
    eq_.schedule_after(dispatch_ns_, [done = std::move(done),
                                      extra...]() mutable {
      done(Status::kDeviceBusy, extra...);
    });
    return true;
  }
  /// A host read's flash outcome as its status; an uncorrectable page is
  /// scrubbed at once.
  Status read_status(flash::OpStatus st, flash::PageId bad);

  /// What a power cut leaves for the mount scan.
  struct PowerCut {
    std::vector<std::pair<u64, flash::PageId>> pages;  // (epoch, page)
    std::vector<flash::PageId> torn;  // programs in flight at the cut
  };
  /// Cut power now (needs crash tracking): in-flight programs tear, and the
  /// lifecycle's DRAM state is gone.
  PowerCut cut_power();
  /// After the FTL's rebuild: restore block states and the free pool, then
  /// charge one page-sorted read of `scan_bytes` per page that holds or tore
  /// data, joined with firmware time ending at `cpu_done`; `done` runs when
  /// both land. Returns the pages read.
  u64 mount(const PowerCut& cut, u32 scan_bytes, TimeNs cpu_done,
            sim::Task done);

  sim::EventQueue& eq_;
  flash::FlashController& flash_;
  flash::FlashGeometry geom_;
  BlockAllocator alloc_;
  WriteBuffer buffer_;
  u32 gc_reserved_blocks_;
  u32 gc_low_watermark_;
  TimeNs dispatch_ns_;  // per-command firmware dispatch
  const bool crash_tracking_;

  std::vector<BlockState> block_state_;
  std::vector<u32> valid_units_;    // per block: live mapping units
  std::vector<u8> buffered_pages_;  // per page: open or programming
  // Per block: pages buffered or with an in-flight program. GC must not
  // pick a victim before its last program lands (an FTL may delay a
  // program past the block's kSealed transition).
  std::vector<u32> buffered_count_;

  u64 outstanding_programs_ = 0;
  std::vector<sim::Task> drain_waiters_;

  // GC stops as futile (stuck) when the FTL's rule says a cycle cannot
  // create net free space, until fresh garbage makes it productive again.
  bool gc_running_ = false;
  bool gc_stuck_ = false;
  u32 gc_futile_streak_ = 0;

  std::unique_ptr<FaultInjector> faults_;    // null unless a plan is armed
  std::unique_ptr<FlashAudit> flash_audit_;  // null unless KVSIM_AUDIT
  FtlStats stats_;

 private:
  [[nodiscard]] bool host_busy();
  void program_page(flash::PageId page, u64 host_bytes);
  /// Abandon `wp`'s open page, which will never program: unbuffer it, free
  /// its write buffer and let go of the block. Returns the page.
  flash::PageId drop_open_page(WritePoint& wp);
  void maybe_start_gc();
  void run_gc();
  void finish_gc(flash::BlockId victim);
  /// Free `b` after its erase, or retire it if that failed; true if freed.
  bool erased(flash::BlockId b, flash::OpStatus st);
  void continue_gc(bool wave);
  void stop_gc();
  void on_program_fail(flash::PageId page);
  void retire_block(flash::BlockId b);
  void retire_erase_failed(flash::BlockId b);

  std::vector<WritePoint*> write_points_;  // every FTL write point
};

}  // namespace kvsim::ssd
