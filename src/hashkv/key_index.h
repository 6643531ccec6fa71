// The mini-Aerospike primary index: a map from key to a dense record id.
//
// Open addressing on hash64(key), laid out like the KV-FTL's BlobTable:
// linear probing, backward-shift erase (no tombstones), and a slot array
// that doubles when it would pass 7/8 full. Unlike the device's table, a
// key hash does not stand in for the key: a slot holds a record id and
// the low 32 bits of the key's hash, and a lookup confirms a hash match
// by comparing the key its owner keeps under that id. A slot is 8 B.
#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim::hashkv {

class KeyIndex {
 public:
  KVSIM_THREAD_CONFINED;
  static constexpr u32 kNone = ~0u;
  static constexpr u64 kMinSlots = 16;

  KeyIndex() : slots_(kMinSlots), mask_(kMinSlots - 1) {}

  /// The id stored for `key` (whose hash is `h`), or kNone. `key_of(id)`
  /// returns the key its owner keeps under `id`.
  template <typename KeyOf>
  [[nodiscard]] u32 find(u64 h, std::string_view key,
                         const KeyOf& key_of) const {
    const u32 tag = (u32)h;
    for (u64 i = tag & mask_; slots_[i].id != kNone; i = (i + 1) & mask_)
      if (slots_[i].tag == tag && key_of(slots_[i].id) == key)
        return slots_[i].id;
    return kNone;
  }

  /// Store `id` for a key with hash `h` that the index does not hold.
  void insert(u64 h, u32 id) {
    if ((size_ + 1) * 8 > slots_.size() * 7) grow();
    place(Slot{id, (u32)h});
    ++size_;
  }

  /// Remove `id`, stored under hash `h`.
  void erase(u64 h, u32 id) {
    u64 hole = (u32)h & mask_;
    while (slots_[hole].id != id) hole = (hole + 1) & mask_;
    // Backward shift: move back every later entry of the run whose probe
    // path crosses the hole, so lookups never need tombstones.
    for (u64 j = (hole + 1) & mask_; slots_[j].id != kNone;
         j = (j + 1) & mask_) {
      const u64 home = slots_[j].tag & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = kNone;
    --size_;
  }

  /// Drop every entry and return to the minimum size.
  void clear() {
    std::vector<Slot>(kMinSlots).swap(slots_);
    mask_ = kMinSlots - 1;
    size_ = 0;
  }

  [[nodiscard]] u64 size() const { return size_; }

 private:
  struct Slot {
    u32 id = kNone;
    u32 tag = 0;  // low 32 bits of the key's hash
  };

  void place(Slot s) {
    u64 i = s.tag & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = s;
  }

  void grow() {
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    mask_ = slots_.size() - 1;
    for (const Slot& s : old)
      if (s.id != kNone) place(s);
  }

  std::vector<Slot> slots_;
  u64 mask_;
  u64 size_ = 0;
};

}  // namespace kvsim::hashkv
