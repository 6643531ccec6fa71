// Page-mapped block-SSD firmware (the PM983 "EDA53W0Q" personality).
//
// Model summary, mirroring what the paper attributes to block firmware:
//  * Host LBA space in 512 B sectors, mapped at 4 KiB logical pages (slots);
//    8 slots pack into each 32 KiB flash page.
//  * Incoming slots stripe round-robin over several open write points so
//    programs spread across dies (internal parallelism).
//  * Sequential streams are detected: their map updates are amortized (run-
//    length entries) and their filled pages skip the random-write
//    "reorganization" work the FTL core otherwise performs to keep physical
//    sequentiality — this is why sequential I/O outruns random I/O on
//    block-SSD but not on KV-SSD (paper Sec. IV, Fig. 2).
//  * Sub-4 KiB writes to mapped slots trigger read-modify-write.
//  * Reads hit a small DRAM cache (readahead feeds it on sequential
//    streams); misses pay tR plus channel transfer per flash page touched.
//  * Greedy garbage collection; TRIMmed whole-block victims erase for free,
//    which is how an LSM on top avoids device GC entirely (Fig. 6a).
//  * Writes acknowledge from the device write buffer; sustained load and
//    GC stalls surface as buffer backpressure.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/flat_lru.h"
#include "common/slot_pool.h"
#include "ssd/ftl_core.h"

#include "common/thread_annotations.h"

namespace kvsim::blockftl {

struct BlockFtlConfig {
  u32 logical_page_bytes = 4 * KiB;  ///< mapping unit (slot size)
  /// FTL-core work per randomly-written slot (map update + allocation).
  TimeNs map_update_ns = 2000;
  /// Amortized FTL-core work per slot inside a detected sequential run.
  TimeNs map_update_seq_ns = 400;
  /// Coalescing / reorganization work per filled page of random writes
  /// (the "block FTL holds and rearranges data" behavior; skipped for
  /// sequential pages).
  TimeNs reorg_per_page_ns = 25000;
  /// FTL-core work for a TRIM command (whole-range, amortized).
  TimeNs trim_ns = 3000;
  /// DRAM read-cache lookup / hit service time.
  TimeNs cache_hit_ns = 2000;
  u32 read_cache_pages = 128;   ///< DRAM read cache capacity in flash pages
  u32 write_points = 32;        ///< concurrently open flash pages (one per die)
  u32 seq_run_threshold = 8;    ///< slots in a row before a stream is "seq"
  TimeNs partial_flush_ns = 10 * kMs;  ///< idle timeout to flush partial pages
  /// OOB bytes transferred per page during the mount-time rebuild scan
  /// (the array read still pays full tR; only the transfer is small).
  u32 oob_read_bytes = 64;
};

class BlockFtl final : public ssd::FtlCore {
 public:
  KVSIM_THREAD_CONFINED;
  using Done = sim::Fn<void(Status)>;
  /// Read completion: status + XOR of the per-slot content fingerprints
  /// covered by the request (integrity checking for tests).
  using ReadDone = sim::Fn<void(Status, u64)>;

  BlockFtl(sim::EventQueue& eq, flash::FlashController& flash,
           const ssd::SsdConfig& dev, const BlockFtlConfig& cfg);

  /// Write `bytes` at sector address `lba`. `fp_base` seeds the stored
  /// per-slot fingerprints (slot i of the request stores mix64(fp_base + i)).
  void write(Lba lba, u32 bytes, u64 fp_base, Done done);

  /// Read `bytes` at sector address `lba`.
  void read(Lba lba, u32 bytes, ReadDone done);

  /// Host-speed hint, no simulated effect: load the map entry of sector
  /// `lba` into the host cache before its command reaches the FTL.
  void prefetch(Lba lba) const {
    const u64 lpn = lba * 512 / cfg_.logical_page_bytes;
    if (lpn < map_.size()) __builtin_prefetch(&map_[lpn]);
  }

  /// Invalidate every fully-covered slot in [lba, lba + bytes).
  void trim(Lba lba, u64 bytes, Done done);

  /// Force all partially-filled write-point pages to program, then run
  /// `done` once every outstanding program has completed.
  void flush(sim::Task done);

  /// Host-visible capacity in bytes (raw minus over-provisioning).
  [[nodiscard]] u64 exported_bytes() const {
    return total_slots_exported_ * cfg_.logical_page_bytes;
  }
  [[nodiscard]] u64 slot_bytes() const { return cfg_.logical_page_bytes; }

  /// Bytes of live (mapped) data currently on the device.
  [[nodiscard]] u64 live_bytes() const {
    return live_slots_ * (u64)cfg_.logical_page_bytes;
  }

  [[nodiscard]] u64 cache_hits() const { return cache_hits_; }
  [[nodiscard]] u64 cache_lookups() const { return cache_lookups_; }

  /// KVSIM_AUDIT: cross-check the slot map, valid counters, and event
  /// clamps against the shadow ground truth. No-op when auditing is
  /// compiled out; throws ssd::AuditFailure on divergence. Runs
  /// automatically on flush() and when garbage collection stops.
  void audit_verify() const override;

  // --- crash / power-loss model ----------------------------------------
  /// Power-loss cut at the current simulation time (requires
  /// crash_tracking(); the caller discards the event queue first). All
  /// volatile state — write buffer, open write points, buffered pages,
  /// in-flight programs, DRAM cache, GC state — is dropped; the map is
  /// rebuilt from per-page OOB metadata in epoch order with torn-write
  /// detection, charging one OOB read per scanned page. `done` runs once
  /// mount I/O and firmware rebuild time complete. The FTL's counters in
  /// `out` are filled synchronously; a recovered unit is a slot re-mapped
  /// from OOB.
  void power_fail_and_recover(ssd::CrashOutcome& out, sim::Task done);

  /// Crash-recovery probe (no timing, no state change): how many of the
  /// write's logical slots currently map to flash holding exactly the
  /// content that write stored. Mirrors write()'s per-slot fingerprint
  /// rule, so host recovery code can validate a past write without
  /// duplicating it.
  [[nodiscard]] u64 probe_durable_slots(Lba lba, u32 bytes, u64 fp_base) const;
  /// Slots covered by such a write (denominator for the probe).
  [[nodiscard]] u64 probe_total_slots(Lba lba, u32 bytes) const;

  /// Occupancy of the pooled per-read state (crash-recovery checks).
  [[nodiscard]] PoolUsage read_pool_usage() const { return reads_.usage(); }

 private:
  static constexpr u64 kUnmapped = ~0ull;

  struct Starved {
    u64 lpn;
    u64 fp;
    bool seq;
  };

  // Crash tracking stages the open page's OOB records at append time, so
  // they match the page's physical contents even if a slot is invalidated
  // while buffered.
  struct WritePoint : ssd::WritePoint {
    bool all_seq = true;          // every slot of the open page arrived seq
    u64 last_flush_arm = 0;       // generation counter for the flush timer
    std::deque<Starved> starved;  // host slots waiting for a free block
  };

  [[nodiscard]] u32 slots_per_page() const {
    return geom_.page_bytes / cfg_.logical_page_bytes;
  }
  [[nodiscard]] u64 slot_index(flash::PageId p, u32 slot) const {
    return p * slots_per_page() + slot;
  }

  void write_slot(u64 lpn, u64 fp, bool seq);
  /// Drop the queued host writes of LPNs in [first, end): a newer write
  /// or a TRIM replaced them, and a freed block must not bring them back.
  void drop_starved_writes(u64 first, u64 end);
  /// The queued host write of `lpn`, or null. drop_starved_writes keeps
  /// at most one per LPN.
  [[nodiscard]] const Starved* queued_write(u64 lpn) const;
  bool append_slot(WritePoint& wp, u64 lpn, u64 fp, bool seq, bool is_gc);
  void seal_page(WritePoint& wp, bool is_gc);
  void arm_flush_timer(WritePoint& wp);
  /// Unmap `lpn`'s current slot. `by_host` marks invalidations caused by
  /// host overwrites/TRIM (fresh garbage, which makes GC productive
  /// again), as opposed to GC's own relocations.
  void invalidate(u64 lpn, bool by_host);

  // --- read path ---
  /// A host read in flight: the join of its firmware-CPU slot and its
  /// batched flash fetch, and the pages that fetch feeds to the cache.
  struct PendingRead {
    u32 remaining = 0;  // arrivals left: the fetch and/or the CPU slot
    Status st = Status::kOk;
    u64 fp = 0;
    ReadDone done;
    std::vector<flash::PageRead> fetched;  // missed pages, first-seen order
  };
  void read_fetched(u32 slot, flash::OpStatus st, flash::PageId bad);
  void read_arrive(u32 slot);
  void cache_insert(flash::PageId p) {
    if (!read_cache_.touch(p)) read_cache_.insert(p);
  }
  void maybe_readahead(u64 next_lpn);

  // --- FtlCore hooks ---
  /// Futility: a victim with (almost) no invalid slots cannot create net
  /// free space; after several such victims in a row GC pauses until an
  /// invalidation (overwrite / TRIM) makes it productive again — a full
  /// drive simply runs with its over-provisioning as the free pool.
  bool gc_victim_chosen(u32 valid) override;
  void gc_victim_pages(flash::BlockId victim,
                       std::vector<flash::PageRead>& reads) override;
  void gc_migrate(flash::BlockId victim) override;
  bool gc_cycle_futile(bool) override { return false; }
  void on_block_freed() override;
  /// Remap every live slot of page `p` onto a fresh block (media scrub /
  /// failed-program re-drive / a retired block's open page). Slots that
  /// find no block wait in recovery_starved_.
  void relocate_page(flash::PageId p) override;

  BlockFtlConfig cfg_;
  sim::Resource cpu_;  // serialized firmware CPU

  u64 total_slots_exported_ = 0;
  u64 live_slots_ = 0;

  std::vector<ssd::SlotMapEntry> map_;  // lpn -> {global slot index, fp}
  std::vector<u64> rmap_;  // global slot index -> lpn (or kUnmapped)

  std::vector<WritePoint> wps_;
  u32 wp_rr_ = 0;
  u32 seq_wp_ = 0;  // current write point for sequential streams
  WritePoint gc_wp_;

  // sequential stream detection
  u64 last_write_end_ = ~0ull;
  u32 write_streak_ = 0;
  u64 last_read_lpn_ = ~0ull - 1;
  u32 read_streak_ = 0;

  // DRAM read cache (LRU over flash page ids; a re-insert is a use)
  FlatLru read_cache_;
  SlotPool<PendingRead> reads_;
  u64 cache_hits_ = 0;
  u64 cache_lookups_ = 0;

  // Crash tracking: monotonic host-order stamp carried in each OOB entry.
  // Programs complete out of host order across write points, so the mount
  // rebuild needs this, not program order, to pick a slot's newest copy.
  u64 write_seq_ = 0;

  // Slots whose recovery re-placement is waiting for a free block.
  std::deque<Starved> recovery_starved_;
  u64 starved_writes_ = 0;  // host slots queued across wps_[i].starved

  // KVSIM_AUDIT shadow model (null when auditing is compiled out)
  std::unique_ptr<ssd::SlotMapAudit> map_audit_;
};

}  // namespace kvsim::blockftl
