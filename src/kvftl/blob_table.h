// The KV-FTL's DRAM blob table: one record per live KVP, keyed by its
// 64-bit key hash.
//
// A record holds what the firmware keeps per KVP in device DRAM: value and
// key sizes, the overwrite generation, the value fingerprint, and where
// each chunk of the blob sits in the log. GC, scrub and every host command
// look records up by key hash, so the table is flat open addressing:
//
//  * key hashes come out of hash64 already avalanche-mixed, so the low
//    bits index the slot array directly (no rehash of the key);
//  * linear probing; erase shifts the following run back (no tombstones),
//    so probe lengths never degrade under churn;
//  * the slot array doubles when it would pass 7/8 full.
//
// A slot is 40 B: the key hash plus a 32 B record. The first chunk
// reference lives inline; only blobs of more than one chunk (larger than
// one page data area) keep a heap array of all their chunk references.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim::kvftl {

/// Location of one chunk: its block and its record index in that block's
/// record list (block == kPendingBlock while the chunk awaits placement).
struct ChunkRef {
  u32 block;
  u32 rec;
};

/// One KVP's DRAM record. Move-only: a multi-chunk record owns its array.
class BlobRec {
 public:
  u64 vfp = 0;          ///< value fingerprint
  u32 value_bytes = 0;
  u32 gen = 0;          ///< bumped on every overwrite; stale pending chunks drop
  u16 key_bytes = 0;

  BlobRec() = default;
  BlobRec(BlobRec&& o) noexcept { take(o); }
  BlobRec& operator=(BlobRec&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  BlobRec(const BlobRec&) = delete;
  BlobRec& operator=(const BlobRec&) = delete;
  ~BlobRec() { release(); }

  [[nodiscard]] std::span<ChunkRef> chunks() { return {data(), nchunks_}; }
  [[nodiscard]] std::span<const ChunkRef> chunks() const {
    return {nchunks_ > 1 ? many_ : &one_, nchunks_};
  }
  /// Replace the chunk list with `n` copies of `fill`.
  void assign_chunks(u32 n, ChunkRef fill) {
    if (n != nchunks_) {
      release();
      if (n > 1) many_ = new ChunkRef[n];
      nchunks_ = (u16)n;
    }
    for (ChunkRef& c : chunks()) c = fill;
  }
  void clear_chunks() { release(); }

 private:
  friend class BlobTable;

  ChunkRef* data() { return nchunks_ > 1 ? many_ : &one_; }
  void release() {
    if (nchunks_ > 1) {
      delete[] many_;
      one_ = ChunkRef{};  // one_ is the active member again
    }
    nchunks_ = 0;
  }
  void take(BlobRec& o) {
    vfp = o.vfp;
    value_bytes = o.value_bytes;
    gen = o.gen;
    key_bytes = o.key_bytes;
    nchunks_ = o.nchunks_;
    used_ = o.used_;
    if (nchunks_ > 1) {
      many_ = o.many_;
    } else {
      one_ = o.one_;
    }
    o.nchunks_ = 0;  // the array (if any) changed owner
  }

  u16 nchunks_ = 0;
  bool used_ = false;  // BlobTable slot occupancy
  union {
    ChunkRef one_{};   // nchunks_ <= 1
    ChunkRef* many_;   // nchunks_ > 1
  };
};

/// Open-addressing map from key hash to BlobRec (see the file comment).
/// A reference or pointer returned by find/find_or_insert stays valid
/// until the next find_or_insert of an absent key, erase or clear.
class BlobTable {
 public:
  KVSIM_THREAD_CONFINED;
  static constexpr u64 kMinSlots = 16;

  BlobTable() : slots_(kMinSlots), mask_(kMinSlots - 1) {}

  [[nodiscard]] BlobRec* find(u64 khash) {
    Slot& s = slots_[probe(khash)];
    return s.rec.used_ ? &s.rec : nullptr;
  }
  [[nodiscard]] const BlobRec* find(u64 khash) const {
    const Slot& s = slots_[probe(khash)];
    return s.rec.used_ ? &s.rec : nullptr;
  }
  [[nodiscard]] bool contains(u64 khash) const { return find(khash) != nullptr; }

  /// The record of `khash`, inserting a zeroed one (gen 0) when absent.
  BlobRec& find_or_insert(u64 khash) {
    u64 i = probe(khash);
    if (slots_[i].rec.used_) return slots_[i].rec;
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      grow();
      i = probe(khash);
    }
    slots_[i].khash = khash;
    slots_[i].rec.used_ = true;
    ++size_;
    return slots_[i].rec;
  }

  /// Remove `khash`; returns whether it was present.
  bool erase(u64 khash) {
    u64 hole = probe(khash);
    if (!slots_[hole].rec.used_) return false;
    // Backward shift: walk the run after the hole and move back every
    // entry whose probe path crosses it, so lookups never need tombstones.
    for (u64 j = (hole + 1) & mask_; slots_[j].rec.used_; j = (j + 1) & mask_) {
      const u64 home = slots_[j].khash & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].rec = BlobRec();
    --size_;
    return true;
  }

  /// Drop every record and return to the minimum size.
  void clear() {
    std::vector<Slot>(kMinSlots).swap(slots_);
    mask_ = kMinSlots - 1;
    size_ = 0;
  }

  [[nodiscard]] u64 size() const { return size_; }
  [[nodiscard]] u64 slot_count() const { return slots_.size(); }

  /// Visit every record as f(khash, rec), in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_)
      if (s.rec.used_) f(s.khash, s.rec);
  }

 private:
  struct Slot {
    u64 khash = 0;
    BlobRec rec;
  };
  static_assert(sizeof(Slot) == 40, "blob table slot grew");

  /// Slot holding `khash`, or the empty slot ending its probe run.
  [[nodiscard]] u64 probe(u64 khash) const {
    u64 i = khash & mask_;
    while (slots_[i].rec.used_ && slots_[i].khash != khash) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (!s.rec.used_) continue;
      u64 i = s.khash & mask_;
      while (slots_[i].rec.used_) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  u64 mask_;
  u64 size_ = 0;
};

}  // namespace kvsim::kvftl
