// Multi-level hash index of the KV-FTL, modeled as a linear-hashing table
// of fixed-size segments with an LRU DRAM cache.
//
// This is the component behind the paper's Fig. 3: while all segments fit
// in device DRAM (low index occupancy) every index operation is a DRAM
// hit; once the index outgrows its DRAM budget, lookups and inserts touch
// flash-resident segments — each miss costs a flash page read in the
// operation's critical path, and dirtied segments must eventually be
// written back. Linear hashing grows one segment split at a time, so
// growth cost is incremental (no global rehash), matching a multi-level
// hash directory.
//
// The model tracks *which* segments are cached and dirty exactly; the
// caller (KvFtl) turns the returned IndexCost into real flash operations.
#pragma once

#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim::kvftl {

/// Flash work implied by one index operation.
struct IndexCost {
  u32 segment_reads = 0;    ///< flash reads in the critical path
  u32 segment_writes = 0;   ///< write-backs (dirty evictions / splits)
  bool dram_hit = false;    ///< primary segment was cached
};

struct IndexModelConfig {
  u32 segment_bytes = 4 * KiB;
  /// Entries per segment before a linear-hashing split (load factor).
  u32 segment_split_threshold = 96;
  u64 dram_bytes = 16 * MiB;  ///< segment cache budget
  u32 initial_segments = 8;
  /// Flash bytes actually appended per dirty-segment write-back: the FTL
  /// logs the dirtied entries (a delta), not the whole segment, and
  /// compacts lazily — the local-to-global merge batching of Sec. II.
  u32 dirty_delta_bytes = 256;
  /// Multi-level walk: when the table grows this many times past the DRAM
  /// cache, directory levels spill too and each miss costs one more
  /// (serial) flash read; again at the square of it. This is the paper's
  /// "series of flash page reads ... from a large multi-level index".
  u32 level_spill_factor = 2;
};

class IndexModel {
 public:
  KVSIM_THREAD_CONFINED;
  explicit IndexModel(const IndexModelConfig& cfg);

  /// Record an entry insert for `khash`; returns the flash work implied.
  IndexCost on_insert(u64 khash);
  /// Record an in-place entry update (host overwrite): dirties the
  /// segment without growing the index.
  IndexCost on_update(u64 khash);
  /// Record a GC relocation: the FTL already knows both locations, so it
  /// appends a relocation delta to the index log without reading the
  /// segment (write-only cost; the segment is dirtied only if cached).
  IndexCost on_relocate(u64 khash);
  /// Record a point lookup.
  IndexCost on_lookup(u64 khash);
  /// Record an entry removal.
  IndexCost on_remove(u64 khash);

  [[nodiscard]] u64 entries() const { return entries_; }
  [[nodiscard]] u64 segments() const { return segments_; }
  [[nodiscard]] u64 cached_segments() const { return cached_; }
  [[nodiscard]] u64 cache_capacity_segments() const { return cache_capacity_; }
  /// Total index footprint on flash, for space-amplification accounting.
  [[nodiscard]] u64 flash_bytes() const {
    return segments_ * cfg_.segment_bytes;
  }
  /// Fraction of primary-segment touches served from DRAM over the
  /// model's lifetime (since construction; 1.0 before the first touch).
  [[nodiscard]] double hit_rate() const {
    return touches_ ? (double)hits_ / (double)touches_ : 1.0;
  }
  [[nodiscard]] u64 splits() const { return splits_; }

  /// Segment id holding `khash` (linear hashing address function).
  [[nodiscard]] u64 segment_of(u64 khash) const;

 private:
  /// Touch a segment; returns cost of faulting it in (and any eviction).
  IndexCost touch(u64 seg, bool dirty);
  void maybe_split(IndexCost& cost);

  IndexModelConfig cfg_;
  u64 cache_capacity_;

  u64 entries_ = 0;
  u64 segments_;
  u64 level_base_;   // number of segments when this doubling round started
  u64 split_ptr_ = 0;

  // LRU cache over segment ids, with dirty flags. Segment ids are dense
  // (0..segments_), so the list is intrusive: links live in a vector
  // indexed by segment id, head_ most recently used, tail_ the next victim.
  static constexpr u32 kNil = ~0u;
  struct SegNode {
    u32 prev = kNil;
    u32 next = kNil;
    bool cached = false;
    bool dirty = false;
  };
  void link_front(u32 seg);
  void unlink(u32 seg);
  void move_to_front(u32 seg);
  /// Cache `seg` as most recently used, then evict from the tail (a dirty
  /// victim costs a write-back) until the cache fits its budget.
  void cache_in(u32 seg, bool dirty, IndexCost& cost);

  std::vector<SegNode> nodes_;
  u32 head_ = kNil;
  u32 tail_ = kNil;
  u64 cached_ = 0;

  u64 touches_ = 0;
  u64 hits_ = 0;
  u64 splits_ = 0;
};

}  // namespace kvsim::kvftl
