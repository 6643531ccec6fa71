// Sorted string table (SST) representation for the mini-RocksDB store.
//
// An SST is an immutable sorted run persisted as one filesystem file:
// entries (value descriptor, tombstone, sequence number, byte offset in
// the file for 4 KiB data-block addressing through the block cache), one
// arena holding every entry's key back to back, a Bloom filter, and a
// point index from key hash to entry. Index and filter blocks are assumed
// resident in host RAM, as with RocksDB's default table reader after
// first open.
//
// SstBuilder makes every table: the flush feeds it a memtable, and
// compaction feeds it the k-way merge of its inputs (merge_ssts).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "fs/file_system.h"

namespace kvsim::lsm {

/// Immutable split-block Bloom filter (~10 bits/key, 4 probes).
class SstBloom {
 public:
  explicit SstBloom(const std::vector<u64>& khashes);
  [[nodiscard]] bool may_contain(u64 khash) const;

 private:
  u64 nbits_;  // probe modulus (must match between build and query)
  std::vector<u64> bits_;
};

/// One key's version in an SST. The key's bytes live in the table's key
/// arena (Sst::key), named here by offset and length.
struct SstEntry {
  u32 key_off = 0;  ///< first byte of the key in Sst::keys
  u32 key_len = 0;
  ValueDesc value;
  u64 seq = 0;
  /// Byte offset of the entry in the SST file, set by SstBuilder; an
  /// SST's entries must start below 4 GiB (LsmConfig::validate).
  u32 offset = 0;
  bool tombstone = false;
};
static_assert(sizeof(SstEntry) == 40, "SstEntry is five words");

/// Bytes an entry occupies in the on-disk format (key + value + header).
inline u64 entry_file_bytes(u64 key_len, u32 value_bytes) {
  return key_len + value_bytes + 16;
}
inline u64 entry_file_bytes(const SstEntry& e) {
  return entry_file_bytes(e.key_len, e.value.size);
}

struct Sst {
  static constexpr u32 kNoEntry = ~0u;
  /// A point-index slot: an entry index (kNoEntry = empty) and the low 32
  /// bits of its key's hash, which the home slot does not use. A probe
  /// reads an entry only when the tags agree.
  struct Slot {
    u32 entry = kNoEntry;
    u32 tag = 0;
  };

  u64 id = 0;
  bool compacting = false;  ///< claimed by a running compaction job
  fs::FileSystem::Handle file = fs::FileSystem::kInvalidHandle;
  u64 file_bytes = 0;
  std::vector<SstEntry> entries;  // sorted by key
  std::string keys;               // key arena, in entry order
  /// The length of every key when all agree (entry e's key then starts at
  /// e * key_stride), else 0.
  u32 key_stride = 0;
  SstBloom bloom;
  /// Point index: open addressing over entries, two slots per entry,
  /// home slot from the key hash, linear probing.
  std::vector<Slot> point;

  [[nodiscard]] std::string_view key(const SstEntry& e) const {
    return {keys.data() + e.key_off, e.key_len};
  }
  /// Bounds of the table's keys (empty for an empty table).
  [[nodiscard]] std::string_view smallest() const {
    return entries.empty() ? std::string_view{} : key(entries.front());
  }
  [[nodiscard]] std::string_view largest() const {
    return entries.empty() ? std::string_view{} : key(entries.back());
  }

  /// Index of `key` in entries, or -1. `khash` must be hash64(key) (the
  /// read path has it from the Bloom probe). O(1) expected: the probe
  /// compares keys only in slots whose tag matches the hash, and with a
  /// key stride it reads the key without the entry.
  [[nodiscard]] i64 find(std::string_view key, u64 khash) const;
  [[nodiscard]] i64 find(std::string_view key) const {
    return find(key, hash64(key));
  }
  [[nodiscard]] bool overlaps(std::string_view lo, std::string_view hi) const {
    return !(largest() < lo || hi < smallest());
  }
};

/// Builds SSTs from entries added in ascending key order, each key once.
/// finish() computes the Bloom filter, the point index, the bounds and
/// the file size, and hands the table over; the builder then starts on
/// the next one. A table built within its reserve() makes a fixed number
/// of allocations, however many entries it holds.
class SstBuilder {
 public:
  /// Room for `entries` entries whose keys total `key_bytes` bytes.
  void reserve(u64 entries, u64 key_bytes);
  /// Append an entry at the current end of the file. Throws
  /// std::length_error when it would start at or past 4 GiB.
  void add(std::string_view key, ValueDesc value, u64 seq, bool tombstone);
  /// The table of every entry added since the last finish(), as SST `id`.
  std::shared_ptr<Sst> finish(u64 id);

 private:
  std::vector<SstEntry> entries_;
  std::string keys_;
  std::vector<u64> khashes_;
  u64 data_bytes_ = 0;
};

/// Compaction's merge. Every input is sorted by key with each key once;
/// across inputs only the version of a key with the highest seq is kept,
/// and when `bottom` a kept tombstone is dropped too. The kept entries
/// stream in key order into tables, each cut after the entry that brings
/// its file bytes to `target_bytes` or more; the last table takes the
/// rest. Tables are numbered from `next_id`, which ends past the last.
std::vector<std::shared_ptr<Sst>> merge_ssts(
    const std::vector<std::shared_ptr<Sst>>& inputs, bool bottom,
    u64 target_bytes, u64& next_id);

/// Table invariants, checked after every flush and compaction install in
/// the KVSIM_AUDIT build; each throws ssd::AuditFailure on a violation.
/// `sst`'s keys strictly ascend:
void audit_sst_keys(const Sst& sst);
/// The files of level `level` (at least 1) are sorted by smallest key and
/// no two of them overlap:
void audit_level(u32 level, const std::vector<std::shared_ptr<Sst>>& files);

}  // namespace kvsim::lsm
