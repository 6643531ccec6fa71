// KV-SSD firmware (the PM983 "ETA51KCA" personality).
//
// Runs on the same flash substrate as the block FTL but replaces the
// logical-block map with the paper's KV stack:
//
//  * variable-length keys digest to 64-bit key hashes; key handling
//    (hashing, membership check, local/global merge) serializes on a small
//    pool of index managers — hash order erases any benefit of sequential
//    key order (Fig. 2);
//  * a linear-hashing global index (IndexModel) with a DRAM segment cache;
//    once the index outgrows DRAM, index operations read (and write back)
//    flash-resident segments in the critical path (Fig. 3);
//  * values pack into 24 KiB page data areas as 1 KiB-aligned slots in log
//    order; blobs larger than a data area split into page chunks with
//    offset-pointer overhead (Fig. 4/5); small KVPs suffer slot padding
//    space amplification (Fig. 7);
//  * iterator buckets group keys by their first 4 bytes (Sec. II);
//  * Bloom filters short-circuit negative exist/retrieve queries;
//  * greedy GC migrates valid chunks and must update the index for each,
//    making the device prone to foreground GC under random updates
//    (Fig. 6); stalls surface through write-buffer backpressure.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/inline_key.h"
#include "common/slot_pool.h"
#include "kvftl/blob_table.h"
#include "kvftl/bloom.h"
#include "kvftl/index_model.h"
#include "kvftl/iterator_buckets.h"
#include "kvftl/packing.h"
#include "ssd/ftl_core.h"

#include "common/thread_annotations.h"

namespace kvsim::kvftl {

struct KvFtlConfig {
  u32 min_key_bytes = 4;
  u32 max_key_bytes = 255;
  u32 max_value_bytes = 2 * MiB;

  u32 slot_bytes = 1 * KiB;   ///< ECC-sector alignment of packed blobs
  u32 page_data_slots = 24;   ///< 24 KiB data area per 32 KiB page

  IndexModelConfig index;
  u32 index_managers = 4;     ///< parallel key-handling units
  u64 expected_keys_hint = 1'000'000;  ///< Bloom filter sizing

  TimeNs key_handling_ns = 8 * kUs;  ///< hash + membership + merge work
  TimeNs pack_page_ns = 10 * kUs;    ///< packer work per sealed page
  TimeNs split_chunk_ns = 60 * kUs;  ///< offset-pointer mgmt per extra chunk
  TimeNs cache_hit_ns = 2 * kUs;     ///< read served from an open page

  /// Optional device-DRAM read cache over whole blobs (extension /
  /// ablation: the production firmware has none, which is why Zipf reads
  /// hammer single dies in Fig. 2c). 0 disables.
  u64 read_cache_bytes = 0;

  u32 lanes = 0;                ///< open log pages (0 = one per die)
  /// Write streams (extension; paper Sec. IV observes the KV command set
  /// carries no hotness metadata). Stores tagged with different streams
  /// pack into disjoint lane groups, so hot and cold data never share an
  /// erase block — cutting GC write amplification under skewed updates.
  u32 write_streams = 1;
  u32 gc_lanes = 8;
  bool track_iterator_keys = true;
  double capacity_guard = 0.98;  ///< reject stores past this slot fraction

  /// Bytes read per data page during the mount rebuild scan — the page
  /// meta area (blob descriptors, keys, offset pointers), not the values.
  u32 mount_read_bytes = 4 * KiB;
};

class KvFtl final : public ssd::FtlCore {
 public:
  KVSIM_THREAD_CONFINED;
  using StoreDone = sim::Fn<void(Status)>;
  using RetrieveDone = sim::Fn<void(Status, ValueDesc)>;
  using ExistDone = sim::Fn<void(Status, bool)>;

  KvFtl(sim::EventQueue& eq, flash::FlashController& flash,
        const ssd::SsdConfig& dev, const KvFtlConfig& cfg);

  /// Store (insert or overwrite) a key-value pair. `stream` is an
  /// optional placement hint (clamped to config.write_streams - 1);
  /// `nsid` selects the key space (namespaces are fully isolated).
  void store(std::string_view key, ValueDesc value, StoreDone done,
             u8 stream = 0, u8 nsid = 0);
  /// Point lookup.
  void retrieve(std::string_view key, RetrieveDone done, u8 nsid = 0);
  /// Delete a key.
  void remove(std::string_view key, StoreDone done, u8 nsid = 0);
  /// Membership query.
  void exist(std::string_view key, ExistDone done, u8 nsid = 0);

  /// Program all partial pages and run `done` when the device is quiet.
  void flush(sim::Task done);

  /// Iterator support: non-empty bucket groups, and the keys of one group
  /// (hash order). `done` receives the keys; timing charges one flash read
  /// per 4 KiB of key records.
  [[nodiscard]] std::vector<u32> iterator_bucket_ids() const;
  void iterate_bucket(u32 bucket,
                      std::function<void(std::vector<std::string>)> done);
  /// Charge one cursor batch: the command's dispatch and one 4 KiB
  /// bucket-page read; `done` runs when both have landed.
  void charge_iterator_read(sim::Task done);
  /// Snapshot one bucket's keys without timing charges (iterator open).
  [[nodiscard]] std::vector<std::string> snapshot_bucket(u32 bucket) const {
    return iters_.bucket_keys(bucket);
  }

  // --- telemetry -----------------------------------------------------------
  [[nodiscard]] u64 kvp_count() const { return blob_table_.size(); }
  [[nodiscard]] u64 kvp_count_in(u8 nsid) const { return ns_kvp_counts_[nsid]; }
  /// Non-empty iterator bucket groups belonging to one namespace.
  [[nodiscard]] std::vector<u32> iterator_bucket_ids_of(u8 nsid) const {
    return iters_.bucket_ids_of(nsid);
  }
  /// Bytes of application data (keys + values) currently live.
  [[nodiscard]] u64 app_bytes_live() const { return app_bytes_live_; }
  /// Physical bytes consumed: live padded slots + index + iterator records.
  [[nodiscard]] u64 device_bytes_used() const;
  /// Upper bound on storable KVPs (every KVP needs at least one slot).
  [[nodiscard]] u64 max_kvp_capacity() const;
  [[nodiscard]] u64 live_slots() const { return live_slots_; }
  [[nodiscard]] u64 padding_waste_slots() const { return waste_slots_; }
  [[nodiscard]] const IndexModel& index() const { return index_; }
  [[nodiscard]] u64 bloom_negative_hits() const {
    return bloom_fast_negatives_;
  }
  [[nodiscard]] u64 read_cache_hits() const { return read_cache_hits_; }

  /// KVSIM_AUDIT: cross-check the blob table, per-block chunk records,
  /// and live-slot counters against the shadow log model (index entries
  /// and log blobs must correspond one-to-one; reclaimed blobs must be
  /// unreachable). No-op when auditing is compiled out; throws
  /// ssd::AuditFailure on divergence. Runs automatically on flush() and
  /// when garbage collection stops.
  void audit_verify() const override;

  // --- crash / power-loss model ----------------------------------------
  /// Power-loss cut at the current simulation time (requires
  /// crash_tracking(); the caller discards the event queue first). All
  /// volatile state — write buffer, open lanes, in-flight programs and
  /// host commands, the RAM blob table, Bloom filter, iterator buckets,
  /// and the DRAM index — is dropped; the store is rebuilt from per-page
  /// OOB blob descriptors: a KVP recovers at its highest generation whose
  /// chunks are all durable (a torn multi-chunk blob falls back to the
  /// previous complete generation, or is lost). `done` runs when mount
  /// I/O and firmware rebuild time complete. The FTL's counters in `out`
  /// are filled synchronously; a recovered unit is a KVP whose newest
  /// complete copy mounted.
  void power_fail_and_recover(ssd::CrashOutcome& out, sim::Task done);
  /// Occupancy of the pooled per-command state (crash-recovery checks).
  [[nodiscard]] PoolUsage command_pool_usage() const {
    return cmds_.usage();
  }

 private:
  struct ChunkRec {
    u64 khash;
    u16 page;        // page index inside the block
    u16 slot_start;  // first slot in the page data area
    u16 slot_count;
    u8 chunk_idx;    // which chunk of its blob this is
    bool valid;
  };

  struct PendingChunk {  // waiting for free blocks (foreground GC)
    u64 khash;
    u32 gen;
    u8 chunk_idx;
    u8 stream;
    u16 slot_count;
  };

  /// One host command from arrival to completion. Its join counts the
  /// arrivals still due (manager slot, write-buffer grant, index-level
  /// reads, data reads); `st` is the answer so far, where the first
  /// failure wins. A store keeps its commit inputs here until the last
  /// arrival. Exactly one callback is set.
  struct Cmd {
    StoreDone done;  ///< store, remove
    RetrieveDone got;
    ExistDone answered;
    InlineKey key;    ///< store: the key (iterator bucket, key directory)
    ValueDesc value;  ///< store: the value; retrieve: the value returned
    u64 khash = 0;
    u32 slots = 0;    ///< store: slots the value packs into
    u32 remaining = 0;
    Status st = Status::kOk;
    u8 stream = 0;
    u8 nsid = 0;
    bool commit = false;      ///< store: commit at the last arrival
    bool found = false;       ///< exist: the answer
    bool fill_cache = false;  ///< retrieve: insert into the read cache on kOk
  };

  // --- command records ---
  /// Open a record; the caller sets its callback.
  u32 open_cmd();
  /// Schedule one arrival at command `slot`'s join at `t`.
  void arrive_at(u32 slot, TimeNs t);
  /// Early exit: answer `st` at `t`, the command's last arrival.
  void answer_at(u32 slot, TimeNs t, Status st);
  /// Record the first failure of command `slot`.
  void fail(u32 slot, Status st);
  /// One arrival at command `slot`'s join; the last one finishes it.
  void arrive(u32 slot);
  /// Run a store's commit, release the record, then run the callback,
  /// which may issue more commands.
  void finish(u32 slot);
  /// A store's commit while its record is live: blob table, Bloom filter,
  /// iterator bucket, key directory and placement.
  void commit_store(const Cmd& c);

  // --- write path ---
  void place_blob(u64 khash, u32 gen, u32 total_slots, u8 stream);
  bool place_chunk(u64 khash, u8 chunk_idx, u16 slot_count, bool is_gc,
                   u8 stream);
  /// Place one chunk on `lane`; false when the lane finds no block.
  /// Crash tracking stages the open page's OOB blob descriptors here.
  bool place_on(ssd::WritePoint& lane, u64 khash, u8 chunk_idx,
                u16 slot_count, bool is_gc);
  /// Seal `lane`'s open page; its unfilled slots are padding waste.
  void seal_page(ssd::WritePoint& lane);
  void invalidate_blob(BlobRec& blob);
  /// Invalidate record `ri` of block `b` and drop its slots from the counts.
  void drop_record(flash::BlockId b, u32 ri);

  // --- index flash traffic ---
  flash::PageId next_index_page();
  /// Iterator commands: reserve the dispatch core and read `pages` 4 KiB
  /// bucket pages; `done` runs once the dispatch and every read landed.
  void read_bucket_pages(u32 pages, sim::Fn<void(Status)> done);
  /// Issue the flash operations implied by an IndexCost. Each read of
  /// the serial level walk arrives once at command `slot`'s join
  /// (critical path); write-backs batch into async index-log programs.
  void charge_index_cost(const IndexCost& cost, u32 slot);
  /// Read the remaining `levels` of a walk one after another; each read
  /// arrives at command `slot` before the next is issued.
  void walk_index_levels(u32 slot, u32 levels);
  /// Append `segment_writes` dirty-segment deltas to the index log,
  /// programming each page as it fills.
  void charge_index_writes(u32 segment_writes);

  // --- FtlCore hooks ---
  /// A cycle starts: snapshot the counters the futility rule compares.
  bool gc_victim_chosen(u32 valid) override;
  void gc_victim_pages(flash::BlockId victim,
                       std::vector<flash::PageRead>& reads) override;
  void gc_migrate(flash::BlockId victim) override;
  /// A cycle is futile when the slots it consumed (migrated chunks plus
  /// regenerated page waste) nearly equal the slots it freed; after
  /// enough futile cycles in a row GC stops and new stores fail with
  /// kDeviceFull until an invalidation creates reclaimable space. An
  /// erase wave reclaims without consuming anything.
  bool gc_cycle_futile(bool wave) override;
  /// Every record of an erased block was invalid: drop the list.
  void on_block_erased(flash::BlockId b) override { recs_[b].clear(); }
  void on_block_freed() override;
  /// Re-place every valid chunk recorded on page `p` through a GC lane
  /// (media scrub / failed-program re-drive / a retired block's open
  /// page), charging the same index relocation delta a GC migration pays.
  /// Chunks that find no block wait in recovery_pending_.
  void relocate_page(flash::PageId p) override;

  [[nodiscard]] u64 data_slot_capacity() const;

  KvFtlConfig cfg_;
  sim::Resource kv_core_;                 // command dispatch
  std::vector<sim::Resource> managers_;   // key-handling units
  sim::Resource packer_;                  // data-packing engine

  IndexModel index_;
  CountingBloom bloom_;
  IteratorBuckets iters_;

  BlobTable blob_table_;
  std::vector<std::vector<ChunkRec>> recs_;  // per block, in log order

  std::vector<ssd::WritePoint> lanes_;
  std::vector<u32> stream_rr_;  // per-stream round-robin lane cursor
  std::vector<ssd::WritePoint> gc_lanes_;
  u32 gc_lane_rr_ = 0;
  std::deque<PendingChunk> pending_chunks_;

  // index flash region
  std::vector<flash::BlockId> index_blocks_;
  u64 index_page_rr_ = 0;
  u32 index_write_accum_ = 0;  // segments awaiting a batched program

  // GC futility inputs.
  u64 gc_waste_slots_ = 0;        // waste created on GC lanes (lifetime)
  u64 gc_cycle_migrated0_ = 0;    // gc_migrated_bytes at cycle start
  u64 gc_cycle_waste0_ = 0;       // gc_waste_slots_ at cycle start

  u64 live_slots_ = 0;
  u64 app_bytes_live_ = 0;
  u64 waste_slots_ = 0;
  u64 bloom_fast_negatives_ = 0;
  std::array<u64, 256> ns_kvp_counts_{};

  // optional blob read cache (LRU over khash, bytes-bounded)
  bool read_cache_lookup(u64 khash, u32 value_bytes);
  void read_cache_insert(u64 khash, u32 value_bytes);
  void read_cache_evict(u64 khash);
  std::list<std::pair<u64, u32>> rcache_lru_;
  std::unordered_map<u64, std::list<std::pair<u64, u32>>::iterator>
      rcache_map_;
  u64 rcache_bytes_ = 0;
  u64 read_cache_hits_ = 0;

  // Host commands in flight (a SlotPool: every closure on the command
  // path captures only {this, slot}).
  SlotPool<Cmd> cmds_;

  // Chunks whose recovery re-placement is waiting for a free block.
  // Recovery chunks hold no write-buffer bytes (their share was released
  // when the original page failed or its lane closed).
  std::deque<PendingChunk> recovery_pending_;

  // Crash tracking: models the key bytes stored in each page's meta area.
  // Entries are never removed (flash holds the key until its block is
  // erased); the mount scan consults it only for khashes that win.
  struct KeyDirEntry {
    std::string key;
    u8 nsid;
  };
  std::unordered_map<u64, KeyDirEntry> key_dir_;

  // KVSIM_AUDIT shadow model (null when auditing is compiled out)
  std::unique_ptr<ssd::KvLogAudit> log_audit_;
};

}  // namespace kvsim::kvftl
