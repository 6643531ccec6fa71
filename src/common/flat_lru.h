// Fixed-capacity LRU set of u64 keys, held in two flat arrays.
//
// The node array holds one {key, prev, next} node per cached key; the
// nodes are linked by index into the recency list (head = most recently
// used). The lookup table is open addressing over node indices: slot
// mix64(key) & mask, linear probing, and backward-shift erase, so probe
// runs never degrade under churn and no tombstones exist. The table has at
// least twice as many slots as the capacity, so a lookup touches one or
// two table slots and one node. Both arrays are sized at construction: no
// operation allocates.
//
// The block stack's caches (the LSM block cache, the block FTL's DRAM
// read cache) use it. Its eviction order is that of a std::list +
// std::unordered_map LRU (tests/blockpath_container_test.cpp compares the
// two op for op): an insert into a full set evicts the least recently
// inserted-or-touched key. Whether re-inserting a present key counts as a
// use is the caller's choice: insert() leaves it in place, and
// `touch(k) || insert(k)` refreshes it.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim {

class FlatLru {
 public:
  KVSIM_THREAD_CONFINED;

  explicit FlatLru(u64 capacity) : capacity_(capacity) {
    if (capacity >= (u64)kNil / 2)
      throw std::invalid_argument("FlatLru: capacity too large");
    nodes_.reserve(capacity);
    table_.assign(std::bit_ceil(std::max<u64>(2 * capacity, 2)), kNil);
    mask_ = table_.size() - 1;
  }

  [[nodiscard]] bool contains(u64 key) const {
    return table_[probe(key)] != kNil;
  }

  /// Make `key` the most recently used; false (no change) when absent.
  bool touch(u64 key) {
    const u32 n = table_[probe(key)];
    if (n == kNil) return false;
    if (n != head_) {
      unlink(n);
      push_front(n);
    }
    return true;
  }

  /// Insert `key` as the most recently used and return the key this
  /// evicted, if any: the least recently used one when the set was full,
  /// or `key` itself at capacity 0. A present key stays where it is and
  /// nothing is evicted.
  std::optional<u64> insert(u64 key) {
    if (capacity_ == 0) return key;
    u64 slot = probe(key);
    if (table_[slot] != kNil) return std::nullopt;
    std::optional<u64> evicted;
    u32 n;
    if (nodes_.size() < capacity_) {
      n = (u32)nodes_.size();
      nodes_.push_back(Node{key, kNil, kNil});
    } else {
      n = tail_;
      evicted = nodes_[n].key;
      erase_slot(probe(nodes_[n].key));
      unlink(n);
      nodes_[n].key = key;
      slot = probe(key);  // the erase may have shifted key's probe run
    }
    table_[slot] = n;
    push_front(n);
    return evicted;
  }

  /// Drop every key (capacity is kept).
  void clear() {
    nodes_.clear();
    std::fill(table_.begin(), table_.end(), kNil);
    head_ = tail_ = kNil;
  }

  [[nodiscard]] u64 size() const { return nodes_.size(); }
  [[nodiscard]] u64 capacity() const { return capacity_; }

 private:
  static constexpr u32 kNil = ~0u;

  struct Node {
    u64 key;
    u32 prev;
    u32 next;
  };

  /// Table slot holding `key`, or the empty slot ending its probe run.
  [[nodiscard]] u64 probe(u64 key) const {
    u64 i = mix64(key) & mask_;
    while (table_[i] != kNil && nodes_[table_[i]].key != key)
      i = (i + 1) & mask_;
    return i;
  }

  /// Empty table slot `hole`, moving back every later entry of its run
  /// whose probe path crosses it.
  void erase_slot(u64 hole) {
    for (u64 j = (hole + 1) & mask_; table_[j] != kNil; j = (j + 1) & mask_) {
      const u64 home = mix64(nodes_[table_[j]].key) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = kNil;
  }

  void unlink(u32 n) {
    Node& x = nodes_[n];
    (x.prev == kNil ? head_ : nodes_[x.prev].next) = x.next;
    (x.next == kNil ? tail_ : nodes_[x.next].prev) = x.prev;
  }

  void push_front(u32 n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  u64 capacity_;
  std::vector<Node> nodes_;
  std::vector<u32> table_;  // node index per slot, kNil when empty
  u64 mask_ = 0;
  u32 head_ = kNil;  // most recently used
  u32 tail_ = kNil;  // least recently used
};

}  // namespace kvsim
