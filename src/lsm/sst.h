// Sorted string table (SST) representation for the mini-RocksDB store.
//
// An SST is an immutable sorted run persisted as one filesystem file:
// entries (key, value descriptor, tombstone, sequence number, byte offset
// in the file for 4 KiB data-block addressing through the block cache),
// a Bloom filter, and a point index from key hash to entry. Index and
// filter blocks are assumed resident in host RAM, as with RocksDB's
// default table reader after first open.
#pragma once

#include <memory>
#include <string>
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

struct SstEntry {
  std::string key;
  ValueDesc value;
  u64 seq = 0;
  bool tombstone = false;
  /// Byte offset of the entry in the SST file, set by build_sst. It sits
  /// in the struct's tail padding, so it costs no memory; hence an SST's
  /// entries must start below 4 GiB (LsmConfig::validate).
  u32 offset = 0;
};
static_assert(sizeof(SstEntry) ==
                  sizeof(std::string) + sizeof(ValueDesc) + 2 * sizeof(u64),
              "SstEntry::offset must live in the tail padding");

/// Bytes an entry occupies in the on-disk format (key + value + header).
inline u64 entry_file_bytes(const SstEntry& e) {
  return e.key.size() + e.value.size + 16;
}

struct Sst {
  u64 id = 0;
  bool compacting = false;  ///< claimed by a running compaction job
  fs::FileSystem::Handle file = fs::FileSystem::kInvalidHandle;
  u64 file_bytes = 0;
  std::vector<SstEntry> entries;    // sorted by key
  std::unique_ptr<SstBloom> bloom;
  /// Point index: open addressing over entry indices (kNoEntry = empty),
  /// two slots per entry, home slot from the key hash, linear probing.
  std::vector<u32> point;
  std::string smallest, largest;

  static constexpr u32 kNoEntry = ~0u;

  /// Index of `key` in entries, or -1. `khash` must be hash64(key) (the
  /// read path has it from the Bloom probe). O(1) expected: the probe
  /// compares keys only in slots the hash sends it to.
  [[nodiscard]] i64 find(std::string_view key, u64 khash) const;
  [[nodiscard]] i64 find(std::string_view key) const {
    return find(key, hash64(key));
  }
  [[nodiscard]] bool overlaps(std::string_view lo, std::string_view hi) const {
    return !(largest < lo || hi < smallest);
  }
};

/// Build the in-memory portion of an SST from sorted entries (file I/O is
/// the caller's job). Computes offsets, bloom, point index, bounds, and
/// file size. Throws std::length_error when an entry would start at or
/// past 4 GiB.
std::shared_ptr<Sst> build_sst(u64 id, std::vector<SstEntry> entries);

}  // namespace kvsim::lsm
