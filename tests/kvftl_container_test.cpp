// Tests for the KV-FTL's flat firmware-state containers: the
// open-addressing blob table, and the index model's intrusive segment LRU
// checked op by op against a reference list + hash-map LRU.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "kvftl/blob_table.h"
#include "kvftl/index_model.h"

namespace kvsim::kvftl {
namespace {

// --- blob table --------------------------------------------------------------

void fill(BlobRec& r, u64 khash, u32 nchunks) {
  r.vfp = khash * 3 + 1;
  r.value_bytes = (u32)(khash % 100000);
  r.key_bytes = (u16)(khash % 255);
  r.gen = (u32)(khash % 7) + 1;
  r.assign_chunks(nchunks, ChunkRef{0, 0});
  for (u32 i = 0; i < nchunks; ++i)
    r.chunks()[i] = ChunkRef{(u32)khash, i};
}

void expect_record(const BlobTable& t, u64 khash, u32 nchunks) {
  const BlobRec* r = t.find(khash);
  ASSERT_NE(r, nullptr) << "khash " << khash;
  EXPECT_EQ(r->vfp, khash * 3 + 1);
  EXPECT_EQ(r->value_bytes, (u32)(khash % 100000));
  EXPECT_EQ(r->key_bytes, (u16)(khash % 255));
  EXPECT_EQ(r->gen, (u32)(khash % 7) + 1);
  ASSERT_EQ(r->chunks().size(), nchunks);
  for (u32 i = 0; i < nchunks; ++i) {
    EXPECT_EQ(r->chunks()[i].block, (u32)khash);
    EXPECT_EQ(r->chunks()[i].rec, i);
  }
}

TEST(BlobTable, InsertedRecordStartsZeroed) {
  BlobTable t;
  BlobRec& r = t.find_or_insert(42);
  EXPECT_EQ(r.gen, 0u);
  EXPECT_EQ(r.value_bytes, 0u);
  EXPECT_TRUE(r.chunks().empty());
  EXPECT_EQ(&t.find_or_insert(42), &r);  // present: no second record
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(43), nullptr);
  EXPECT_FALSE(t.erase(43));
}

TEST(BlobTable, EraseAcrossWrapAroundKeepsEveryOtherKey) {
  // Homes 13, 14 and 15 of a 16-slot table: the run wraps past slot 0.
  const u64 n = BlobTable::kMinSlots;
  const std::vector<u64> keys{13, 14, 14 + n, 15, 15 + n, 13 + n, 15 + 2 * n,
                              0, 1};
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    BlobTable t;
    for (u64 k : keys) fill(t.find_or_insert(k), k, 1 + (u32)(k % 3));
    ASSERT_EQ(t.slot_count(), n);  // no growth: the layout is as planned
    ASSERT_TRUE(t.erase(keys[victim]));
    EXPECT_EQ(t.find(keys[victim]), nullptr);
    EXPECT_EQ(t.size(), keys.size() - 1);
    for (u64 k : keys)
      if (k != keys[victim]) expect_record(t, k, 1 + (u32)(k % 3));
  }
}

TEST(BlobTable, EraseEveryKeyInEveryOrderOfAWrappedRun) {
  const u64 n = BlobTable::kMinSlots;
  std::vector<u64> keys{15, 15 + n, 15 + 2 * n, 0, 0 + n, 1};
  std::sort(keys.begin(), keys.end());
  do {
    BlobTable t;
    for (u64 k : keys) fill(t.find_or_insert(k), k, 1);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(t.erase(keys[i]));
      for (size_t j = i + 1; j < keys.size(); ++j) expect_record(t, keys[j], 1);
    }
    EXPECT_EQ(t.size(), 0u);
  } while (std::next_permutation(keys.begin(), keys.end()));
}

TEST(BlobTable, GrowthKeepsEveryEntry) {
  BlobTable t;
  Rng rng(11);
  std::vector<u64> keys;
  u64 grows = 0;
  for (int i = 0; i < 20000; ++i) {
    const u64 before = t.slot_count();
    keys.push_back(mix64(rng.next()));
    fill(t.find_or_insert(keys.back()), keys.back(), 1);
    if (t.slot_count() != before) ++grows;
    // Power-of-two sizes, never past 7/8 full.
    EXPECT_EQ(t.slot_count() & (t.slot_count() - 1), 0u);
    EXPECT_LE(t.size() * 8, t.slot_count() * 7);
  }
  EXPECT_GE(grows, 10u);
  EXPECT_EQ(t.size(), keys.size());
  for (u64 k : keys) expect_record(t, k, 1);
}

TEST(BlobTable, IterationVisitsEachLiveKeyOnce) {
  BlobTable t;
  Rng rng(12);
  std::map<u64, int> live;
  for (int i = 0; i < 5000; ++i) {
    const u64 k = rng.next() % 4096;  // repeats: inserts of present keys
    t.find_or_insert(k);
    live[k] = 0;
    if (i % 3 == 0) {
      const u64 e = rng.next() % 4096;
      EXPECT_EQ(t.erase(e), live.erase(e) == 1);
    }
  }
  t.for_each([&](u64 khash, const BlobRec&) {
    auto it = live.find(khash);
    ASSERT_NE(it, live.end()) << "erased key " << khash << " visited";
    ++it->second;
  });
  for (const auto& [k, visits] : live) EXPECT_EQ(visits, 1) << "key " << k;
  EXPECT_EQ(t.size(), live.size());
}

TEST(BlobTable, MultiChunkRecordsMoveThroughRehashAndErase) {
  BlobTable t;
  std::unordered_map<u64, u32> ref;  // khash -> chunk count
  Rng rng(13);
  for (int i = 0; i < 30000; ++i) {
    const u64 op = rng.next() % 10;
    // Low key range with shared low bits: long runs, frequent shifts.
    const u64 k = (rng.next() % 3000) << 4 | (rng.next() % 2);
    if (op < 6) {
      const u32 n = 1 + (u32)(rng.next() % 5);  // 1..5 chunks
      fill(t.find_or_insert(k), k, n);
      ref[k] = n;
    } else {
      EXPECT_EQ(t.erase(k), ref.erase(k) == 1);
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  for (const auto& [k, n] : ref) expect_record(t, k, n);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.slot_count(), BlobTable::kMinSlots);
  EXPECT_EQ(t.find(ref.begin()->first), nullptr);
}

TEST(BlobRec, ChunkListReshapes) {
  BlobRec r;
  r.assign_chunks(3, ChunkRef{7, 1});
  ASSERT_EQ(r.chunks().size(), 3u);
  for (const ChunkRef& c : r.chunks()) EXPECT_EQ(c.block, 7u);
  r.assign_chunks(1, ChunkRef{8, 2});
  ASSERT_EQ(r.chunks().size(), 1u);
  EXPECT_EQ(r.chunks()[0].rec, 2u);
  r.assign_chunks(4, ChunkRef{9, 3});
  BlobRec moved(std::move(r));
  EXPECT_TRUE(r.chunks().empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(moved.chunks().size(), 4u);
  EXPECT_EQ(moved.chunks()[3].block, 9u);
  moved.clear_chunks();
  EXPECT_TRUE(moved.chunks().empty());
}

// --- index model vs the reference LRU ---------------------------------------

// The index model as it stood with a std::list + std::unordered_map LRU:
// the reference the intrusive list must match op for op.
class RefIndexModel {
 public:
  explicit RefIndexModel(const IndexModelConfig& cfg)
      : cfg_(cfg),
        cache_capacity_(cfg.dram_bytes / cfg.segment_bytes),
        segments_(cfg.initial_segments),
        level_base_(cfg.initial_segments) {
    if (cache_capacity_ == 0) cache_capacity_ = 1;
  }

  IndexCost on_insert(u64 khash) {
    IndexCost cost = touch(segment_of(khash), true);
    ++entries_;
    maybe_split(cost);
    return cost;
  }
  IndexCost on_update(u64 khash) { return touch(segment_of(khash), true); }
  IndexCost on_relocate(u64 khash) {
    IndexCost cost;
    auto it = cache_.find(segment_of(khash));
    if (it != cache_.end()) {
      it->second->dirty = true;
    } else {
      cost.segment_writes = 1;
    }
    return cost;
  }
  IndexCost on_lookup(u64 khash) { return touch(segment_of(khash), false); }
  IndexCost on_remove(u64 khash) {
    IndexCost cost = touch(segment_of(khash), true);
    if (entries_ > 0) --entries_;
    return cost;
  }

  [[nodiscard]] u64 segments() const { return segments_; }
  [[nodiscard]] u64 cached_segments() const { return lru_.size(); }
  [[nodiscard]] double hit_rate() const {
    return touches_ ? (double)hits_ / (double)touches_ : 1.0;
  }
  [[nodiscard]] u64 splits() const { return splits_; }
  [[nodiscard]] u64 entries() const { return entries_; }

 private:
  u64 segment_of(u64 khash) const {
    const u64 h = mix64(khash);
    u64 seg = h % level_base_;
    if (seg < split_ptr_) seg = h % (level_base_ * 2);
    return seg;
  }
  IndexCost touch(u64 seg, bool dirty) {
    IndexCost cost;
    ++touches_;
    auto it = cache_.find(seg);
    if (it != cache_.end()) {
      ++hits_;
      cost.dram_hit = true;
      it->second->dirty |= dirty;
      lru_.splice(lru_.begin(), lru_, it->second);
      return cost;
    }
    cost.segment_reads = 1;
    const u64 f = cfg_.level_spill_factor;
    if (f && segments_ > cache_capacity_ * f) ++cost.segment_reads;
    if (f && segments_ > cache_capacity_ * f * f * 8) ++cost.segment_reads;
    lru_.push_front(CacheEntry{seg, dirty});
    cache_[seg] = lru_.begin();
    evict(cost);
    return cost;
  }
  void install(u64 seg, IndexCost& cost) {
    auto it = cache_.find(seg);
    if (it != cache_.end()) {
      it->second->dirty = true;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(CacheEntry{seg, true});
    cache_[seg] = lru_.begin();
    evict(cost);
  }
  void evict(IndexCost& cost) {
    while (lru_.size() > cache_capacity_) {
      const CacheEntry& victim = lru_.back();
      if (victim.dirty) ++cost.segment_writes;
      cache_.erase(victim.seg);
      lru_.pop_back();
    }
  }
  void maybe_split(IndexCost& cost) {
    if (entries_ <= segments_ * cfg_.segment_split_threshold) return;
    const IndexCost fault = touch(split_ptr_, true);
    cost.segment_reads += fault.segment_reads;
    cost.segment_writes += fault.segment_writes + 2;
    const u64 new_seg = segments_;
    ++segments_;
    ++split_ptr_;
    ++splits_;
    if (split_ptr_ == level_base_) {
      level_base_ *= 2;
      split_ptr_ = 0;
    }
    install(new_seg, cost);
  }

  struct CacheEntry {
    u64 seg;
    bool dirty;
  };
  IndexModelConfig cfg_;
  u64 cache_capacity_;
  u64 entries_ = 0;
  u64 segments_;
  u64 level_base_;
  u64 split_ptr_ = 0;
  std::list<CacheEntry> lru_;
  std::unordered_map<u64, std::list<CacheEntry>::iterator> cache_;
  u64 touches_ = 0;
  u64 hits_ = 0;
  u64 splits_ = 0;
};

struct DiffCase {
  u64 dram_bytes;
  u32 split_threshold;
  u64 seed;
};

class IndexDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(IndexDifferential, IntrusiveLruMatchesReferenceOpForOp) {
  const DiffCase c = GetParam();
  IndexModelConfig cfg;
  cfg.dram_bytes = c.dram_bytes;
  cfg.segment_split_threshold = c.split_threshold;
  IndexModel idx(cfg);
  RefIndexModel ref(cfg);
  Rng rng(c.seed);
  std::vector<u64> keys;
  u64 reads = 0, writes = 0;
  for (int i = 0; i < 60000; ++i) {
    const u64 op = keys.empty() ? 0 : rng.next() % 10;
    u64 k = keys.empty() ? 0 : keys[rng.next() % keys.size()];
    IndexCost got, want;
    if (op < 3) {  // insert
      k = rng.next();
      keys.push_back(k);
      got = idx.on_insert(k);
      want = ref.on_insert(k);
    } else if (op < 5) {
      got = idx.on_update(k);
      want = ref.on_update(k);
    } else if (op < 7) {
      got = idx.on_lookup(k);
      want = ref.on_lookup(k);
    } else if (op < 9) {
      got = idx.on_relocate(k);
      want = ref.on_relocate(k);
    } else {
      const size_t at = rng.next() % keys.size();
      k = keys[at];
      keys[at] = keys.back();
      keys.pop_back();
      got = idx.on_remove(k);
      want = ref.on_remove(k);
    }
    ASSERT_EQ(got.segment_reads, want.segment_reads) << "op " << i;
    ASSERT_EQ(got.segment_writes, want.segment_writes) << "op " << i;
    ASSERT_EQ(got.dram_hit, want.dram_hit) << "op " << i;
    ASSERT_EQ(idx.cached_segments(), ref.cached_segments()) << "op " << i;
    reads += got.segment_reads;
    writes += got.segment_writes;
  }
  EXPECT_EQ(idx.hit_rate(), ref.hit_rate());
  EXPECT_EQ(idx.splits(), ref.splits());
  EXPECT_EQ(idx.segments(), ref.segments());
  EXPECT_EQ(idx.entries(), ref.entries());
  EXPECT_GT(idx.splits(), 10u);
  if (idx.cached_segments() < idx.segments()) {
    EXPECT_GT(reads, 0u);  // the stream really exercised eviction
    EXPECT_GT(writes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, IndexDifferential,
    ::testing::Values(DiffCase{4 * KiB, 8, 1},      // one cached segment
                      DiffCase{16 * KiB, 16, 2},    // deep (3-level) walks
                      DiffCase{256 * KiB, 32, 3},   // partial spill
                      DiffCase{64 * MiB, 96, 4}));  // all resident

}  // namespace
}  // namespace kvsim::kvftl
