// Mini-Aerospike: an in-RAM hash-index KV store over a raw block device
// with direct I/O — the paper's second baseline (its primary-index /
// storage layout mirrors KV-SSD's own hash-based metadata management, but
// executed on the host).
//
// Storage model (Aerospike SSD namespace):
//  * the device is divided into fixed write blocks (default 128 KiB);
//  * records (header + key + value, 16 B-aligned) append into an active
//    write buffer that is written out as one large sequential I/O when
//    full — why Aerospike inserts are fast (Fig. 2a);
//  * the primary index lives entirely in host RAM — reads cost exactly one
//    device I/O of the record's rounded size (Fig. 2c);
//  * updates relocate records, leaving garbage that a background defrag
//    thread compacts (read block + rewrite live records); defrag I/O and
//    CPU compete with foreground traffic, which is why KV-SSD beats
//    Aerospike for updates (Fig. 2b);
//  * the ~64 B per-record overhead and 16 B rounding give the <2x space
//    amplification of Fig. 7.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blockapi/block_device.h"
#include "common/slot_pool.h"
#include "hashkv/key_index.h"
#include "sim/task.h"

#include "common/thread_annotations.h"

namespace kvsim::hashkv {

struct HashKvConfig {
  u64 write_block_bytes = 128 * KiB;
  u32 record_header_bytes = 40;
  u32 record_align = 16;
  u32 read_sector_bytes = 512;
  /// Defragment a write block once its live fraction drops below this.
  double defrag_threshold = 0.5;

  TimeNs api_ns = 1000;           ///< client/service work per op
  TimeNs index_cpu_ns = 1200;     ///< RAM primary-index operation
  TimeNs buffer_copy_ns = 1500;   ///< staging a record into the buffer
  TimeNs defrag_cpu_per_record_ns = 800;

  /// Throws std::invalid_argument on a config the store cannot run.
  void validate() const;
};

class HashKvStore {
 public:
  KVSIM_THREAD_CONFINED;
  using PutDone = sim::Fn<void(Status)>;
  using GetDone = sim::Fn<void(Status, ValueDesc)>;

  HashKvStore(sim::EventQueue& eq, blockapi::BlockDevice& dev,
              const HashKvConfig& cfg = {});

  /// Completes synchronously with kInvalidArgument when the record is
  /// larger than a write block, and with kDeviceFull when admitting it
  /// would leave the active buffer no free write block to flush into.
  void put(std::string_view key, ValueDesc value, PutDone done);
  void get(std::string_view key, GetDone done);
  void del(std::string_view key, PutDone done);

  /// Flush the active write buffer and wait until flushes, defrag and
  /// backpressured puts are idle; records defrag re-stages meanwhile are
  /// flushed too. Always calls back.
  void drain(sim::Task done);

  /// Power cut at eq_.now(): the RAM primary index, the active write
  /// buffer, and waiting/unflushed work vanish. Cold restart then scans
  /// every flushed write block, drops blocks whose 128 KiB write never
  /// fully reached flash, and rebuilds the index by replaying record
  /// headers in flush order. RAM-only deletes resurrect (Aerospike
  /// semantics without durable deletes). Needs crash tracking. Fills
  /// `out`'s log_blocks_scanned and sets its recovered_units and
  /// lost_units to records (index entries after the rebuild; acked
  /// records absent or stale after it). `done` fires when the scan I/O
  /// and index-rebuild CPU settle; low-occupancy survivors are queued
  /// for defrag, which runs after it.
  void power_fail_and_recover(ssd::CrashOutcome& out, sim::Task done);

  // --- telemetry -----------------------------------------------------------
  [[nodiscard]] u64 host_cpu_ns() const { return cpu_ns_; }
  [[nodiscard]] u64 device_bytes_used() const;
  [[nodiscard]] u64 record_count() const { return live_records_; }
  [[nodiscard]] u64 defrags_run() const { return defrags_; }
  [[nodiscard]] u64 app_bytes_live() const { return app_bytes_live_; }
  /// Store-op records (tests: a crash clears them, a warm run reuses them).
  [[nodiscard]] PoolUsage op_pool_usage() const { return ops_.usage(); }

  /// Device bytes one record occupies (for tests / space-amp math).
  [[nodiscard]] u64 record_device_bytes(u32 key_bytes, u32 value_bytes) const;

 private:
  static constexpr u32 kBufferBlock = ~0u;
  static constexpr u32 kDeleted = ~0u - 1;

  /// One key's record, under a stable id. The key lists (the active
  /// buffer's, each in-flight flush's, each write block's and defrag's)
  /// hold ids, and `refs` counts the entries naming this one. A record
  /// keeps its id, deleted or not, while any list names it, so an id
  /// stands for its key exactly; only then is a deleted record's id
  /// recycled (keeping its key string's capacity).
  struct Rec {
    std::string key;
    u64 vfp = 0;
    u32 wb = kDeleted;  // write block id, kBufferBlock, or kDeleted
    u32 buf_gen = 0;    // which buffer generation (when wb == kBufferBlock)
    u32 offset = 0;     // byte offset inside the write block
    u32 size = 0;       // aligned record size
    u32 vsize = 0;
    u32 refs = 0;
  };

  struct WriteBlock {
    u32 used = 0;       // bytes appended when the block was written
    u32 live = 0;       // bytes of live records
    std::vector<u32> ids;  // records written into this block
    bool in_defrag_queue = false;
    bool free = true;
  };

  /// A write-block flush between issue and completion.
  struct Flush {
    u32 block = 0;
    u32 gen = 0;   // the buffer generation it carries
    u32 used = 0;  // bytes appended to it
    std::vector<u32> ids;  // the buffer's key list, in append order
  };

  /// A get, put or del between its call and its callback. Every closure
  /// on the op's path captures {this, slot}.
  struct Op {
    PutDone done;     // put, del
    GetDone got;      // get
    ValueDesc value;  // get: the record's value
    TimeNs t_cpu = 0; // put: when its CPU slot ends
  };

  /// The id of `key` (hash `h`), or KeyIndex::kNone.
  [[nodiscard]] u32 find(std::string_view key, u64 h) const {
    return index_.find(h, key, [this](u32 id) -> std::string_view {
      return recs_[id].key;
    });
  }
  /// The id of `key`, indexing a deleted record for it when absent.
  u32 id_for(std::string_view key, u64 h);
  /// Drop one list entry naming `id`.
  void unref(u32 id);
  void forget(u32 id, u64 h);
  /// Drop every entry of `ids`.
  void clear_ids(std::vector<u32>& ids);

  /// Complete op `slot`: release its record, then run its callback.
  void finish(u32 slot, Status s);

  void append_record(u32 id, ValueDesc value, bool is_defrag);
  /// Write the active buffer out to a free write block; false when none
  /// is free.
  bool flush_buffer();
  void on_flushed(u32 slot);
  void invalidate(u32 b, u32 size);
  void maybe_queue_defrag(u32 wb);
  void run_defrag();
  void defrag_read_done(u32 b);
  void defrag_rewrite(u32 b);
  void maybe_drain_done();
  [[nodiscard]] Lba wb_lba(u32 wb, u32 offset) const {
    return (Lba)wb * (cfg_.write_block_bytes / 512) + offset / 512;
  }
  /// The sector-aligned span covering a record at `offset` of `size` B.
  [[nodiscard]] std::pair<u32, u32> sector_span(u32 offset, u32 size) const {
    const u32 sector = cfg_.read_sector_bytes;
    const u32 first = offset / sector * sector;
    return {first, (offset + size - first + sector - 1) / sector * sector};
  }

  sim::EventQueue& eq_;
  blockapi::BlockDevice& dev_;
  HashKvConfig cfg_;
  /// The device FTL's crash switch, read at construction. When on, the
  /// store ledgers the records each flushed write block carried, standing
  /// in for the record headers a cold-restart device scan would parse.
  const bool crash_tracking_;
  sim::Resource fg_cpu_;
  sim::Resource defrag_cpu_;

  KeyIndex index_;
  std::vector<Rec> recs_;
  std::vector<u32> free_ids_;
  u64 live_records_ = 0;
  std::vector<WriteBlock> blocks_;
  std::vector<u32> free_blocks_;
  SlotPool<Op> ops_;
  SlotPool<Flush> flushes_;

  // Crash tracking: what a cold-restart scan could parse back out of each
  // flushed write block. Recorded at append time so records whose key was
  // deleted or re-written before the flush still resurrect, exactly like
  // the on-flash record headers they model.
  struct DurableLogRec {
    std::string key;
    u32 offset;
    u32 size;
    u32 vsize;
    u64 vfp;
  };
  struct DurableLogBlock {
    u64 flush_seq;
    u32 gen;
    u32 used;
    std::vector<DurableLogRec> recs;
  };
  std::unordered_map<u32, DurableLogBlock> durable_log_;  // by write block
  std::vector<DurableLogRec> buf_recs_;  // staged with the active buffer
  u64 flush_seq_ = 0;

  // active write buffer
  u32 buf_gen_ = 0;
  u32 buf_used_ = 0;
  std::vector<u32> buf_ids_;
  u32 outstanding_flushes_ = 0;
  std::deque<std::pair<std::string, std::pair<ValueDesc, PutDone>>>
      waiting_puts_;  // arrivals held back by flush backpressure

  std::deque<u32> defrag_queue_;
  bool defrag_running_ = false;
  std::vector<u32> defrag_live_;  // the running defrag's live records

  u64 cpu_ns_ = 0;
  u64 defrags_ = 0;
  u64 app_bytes_live_ = 0;
  std::vector<sim::Task> drain_waiters_;
};

}  // namespace kvsim::hashkv
