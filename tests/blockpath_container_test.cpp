// Tests for the flat containers of the block-stack read path.
//
//  * FlatLru against a std::list + std::unordered_map LRU (the reference,
//    kept here), op for op under seeded streams, with both re-insert
//    semantics the block stack uses: every hit/miss answer and every
//    evicted key must match.
//  * SlotPool recycling and its power-loss clear.
//  * Sst::find (the per-SST point index, with and without a key stride)
//    against a lower_bound over the sorted entries, and the entry offsets
//    and key arena SstBuilder lays out.
//  * merge_ssts (compaction's k-way merge) against the copy, sort, dedupe
//    and split it replaced (the reference, kept here), on random inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_lru.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "lsm/sst.h"

namespace kvsim {
namespace {

// --- FlatLru vs the list + map reference ------------------------------------

/// LRU over a std::list in recency order plus a key -> node map.
class ReferenceLru {
 public:
  explicit ReferenceLru(u64 capacity) : capacity_(capacity) {}

  bool contains(u64 k) const { return map_.count(k) != 0; }
  bool touch(u64 k) {
    auto it = map_.find(k);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  /// The LSM block cache: a present key is left alone.
  std::vector<u64> insert(u64 k) {
    std::vector<u64> evicted;
    if (map_.count(k)) return evicted;
    lru_.push_front(k);
    map_[k] = lru_.begin();
    while (lru_.size() > capacity_) {
      evicted.push_back(lru_.back());
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return evicted;
  }
  /// The block FTL's read cache: a present key is touched.
  std::vector<u64> insert_touching(u64 k) {
    if (touch(k)) return {};
    return insert(k);
  }
  void clear() {
    lru_.clear();
    map_.clear();
  }

 private:
  u64 capacity_;
  std::list<u64> lru_;
  std::unordered_map<u64, std::list<u64>::iterator> map_;
};

struct LruCase {
  u64 capacity;
  bool insert_touches;
  u64 seed;
};

class FlatLruDifferential : public ::testing::TestWithParam<LruCase> {};

TEST_P(FlatLruDifferential, MatchesListAndMapReferenceOpForOp) {
  const LruCase c = GetParam();
  FlatLru lru(c.capacity);
  ReferenceLru ref(c.capacity);
  Rng rng(c.seed);
  // Keys shaped like the LSM cache's (sst_id << 24 | block_no): a key
  // space of about three capacities, so hits, misses and evictions all
  // happen often.
  const u64 ids = 3 * c.capacity + 8;
  auto key = [&] {
    const u64 id = rng.below(ids);
    return ((id % 37 + 1) << 24) | (id / 37);
  };
  const u64 ops = std::max<u64>(20'000, 60 * c.capacity);
  u64 hits = 0, evictions = 0;
  for (u64 op = 0; op < ops; ++op) {
    const u64 r = rng.below(1000);
    const u64 k = key();
    if (r < 450) {
      const bool hit = lru.touch(k);
      ASSERT_EQ(hit, ref.touch(k)) << "op " << op;
      hits += hit;
    } else if (r < 900) {
      std::optional<u64> ev;
      std::vector<u64> ref_ev;
      if (c.insert_touches) {
        if (!lru.touch(k)) ev = lru.insert(k);
        ref_ev = ref.insert_touching(k);
      } else {
        ev = lru.insert(k);
        ref_ev = ref.insert(k);
      }
      ASSERT_EQ(ev.has_value(), !ref_ev.empty()) << "op " << op;
      ASSERT_LE(ref_ev.size(), 1u);
      if (ev) {
        ASSERT_EQ(*ev, ref_ev[0]) << "op " << op;
        ++evictions;
      }
    } else {
      ASSERT_EQ(lru.contains(k), ref.contains(k)) << "op " << op;
    }
    if (op == ops / 2) {  // a power cut empties both mid-stream
      lru.clear();
      ref.clear();
    }
    ASSERT_LE(lru.size(), c.capacity);
  }
  if (c.capacity > 0) {
    EXPECT_GT(hits, 0u);
  }
  EXPECT_GT(evictions, 0u);
}

std::vector<LruCase> lru_cases() {
  std::vector<LruCase> cases;
  for (u64 cap : {0ull, 1ull, 128ull, 2560ull})
    for (bool touches : {false, true})
      for (u64 seed : {1ull, 42ull}) cases.push_back({cap, touches, seed});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Streams, FlatLruDifferential, ::testing::ValuesIn(lru_cases()),
    [](const ::testing::TestParamInfo<LruCase>& i) {
      return "cap" + std::to_string(i.param.capacity) +
             (i.param.insert_touches ? "_touching" : "_inplace") + "_seed" +
             std::to_string(i.param.seed);
    });

TEST(FlatLru, ZeroCapacityCachesNothing) {
  FlatLru lru(0);
  EXPECT_EQ(lru.insert(7), std::optional<u64>(7));
  EXPECT_FALSE(lru.contains(7));
  EXPECT_FALSE(lru.touch(7));
  EXPECT_EQ(lru.size(), 0u);
}

TEST(FlatLru, ReinsertOfPresentKeyKeepsItsPlace) {
  FlatLru lru(2);
  EXPECT_FALSE(lru.insert(1));
  EXPECT_FALSE(lru.insert(2));
  EXPECT_FALSE(lru.insert(1));  // still least recently used
  EXPECT_EQ(lru.insert(3), std::optional<u64>(1));
  EXPECT_TRUE(lru.touch(2));
  EXPECT_EQ(lru.insert(4), std::optional<u64>(3));
}

// --- SlotPool ---------------------------------------------------------------

TEST(SlotPool, RecyclesReleasedSlotsBeforeGrowing) {
  SlotPool<std::string> pool;
  const u32 a = pool.acquire();
  const u32 b = pool.acquire();
  pool[a] = "first";
  pool[b] = "second";
  pool.release(a);
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool[a], "first");  // a recycled record keeps its contents
  const PoolUsage u = pool.usage();
  EXPECT_EQ(u.live, 2u);
  EXPECT_EQ(u.size, 2u);
  EXPECT_EQ(u.peak, 2u);
}

TEST(SlotPool, ClearDropsEveryRecordAndKeepsThePeak) {
  SlotPool<std::string> pool;
  for (int i = 0; i < 5; ++i) pool.acquire();
  pool.clear();
  EXPECT_EQ(pool.usage().live, 0u);
  EXPECT_EQ(pool.usage().size, 0u);
  EXPECT_EQ(pool.usage().peak, 5u);
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.usage().size, 1u);
}

// --- Sst::find vs lower_bound -----------------------------------------------

i64 reference_find(const lsm::Sst& sst, std::string_view key) {
  auto it = std::lower_bound(sst.entries.begin(), sst.entries.end(), key,
                             [&](const lsm::SstEntry& e, std::string_view k) {
                               return sst.key(e) < k;
                             });
  if (it == sst.entries.end() || sst.key(*it) != key) return -1;
  return it - sst.entries.begin();
}

/// `n` distinct sorted keys. Long shared prefixes (tenant tag plus a
/// zero-padded id, like the benchmark's keys) when `prefixed`, otherwise
/// random bytes of random length.
std::vector<std::string> make_keys(u64 n, bool prefixed, Rng& rng) {
  std::vector<std::string> keys;
  while (keys.size() < n) {
    if (prefixed) {
      std::string k = "ABk0000000000000";
      u64 id = rng.below(50 * n + 10);
      for (size_t d = k.size(); d-- > 3 && id > 0; id /= 10)
        k[d] = (char)('0' + id % 10);
      keys.push_back(k);
    } else {
      std::string k(1 + rng.below(24), '\0');
      for (char& ch : k) ch = (char)rng.below(256);
      keys.push_back(k);
    }
    if (keys.size() == n) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  return keys;
}

/// One table of `keys` (sorted, distinct) with random values, as SST `id`.
std::shared_ptr<lsm::Sst> build_table(u64 id,
                                      const std::vector<std::string>& keys,
                                      Rng& rng) {
  lsm::SstBuilder b;
  for (const std::string& k : keys)
    b.add(k, ValueDesc{(u32)rng.below(5000), rng.next()}, 1, false);
  return b.finish(id);
}

class SstLookup : public ::testing::TestWithParam<u64> {};

TEST_P(SstLookup, PointIndexMatchesLowerBound) {
  Rng rng(GetParam());
  for (u64 n : {0ull, 1ull, 2ull, 3ull, 100ull, 4000ull}) {
    for (bool prefixed : {true, false}) {
      const std::vector<std::string> keys = make_keys(n, prefixed, rng);
      const auto sst = build_table(7, keys, rng);
      ASSERT_EQ(sst->entries.size(), n);
      ASSERT_EQ(sst->id, 7u);

      // Offsets: each entry starts where the previous one ended. The
      // arena holds the keys back to back in entry order.
      u64 off = 0, key_off = 0;
      for (size_t i = 0; i < n; ++i) {
        const lsm::SstEntry& e = sst->entries[i];
        ASSERT_EQ(e.offset, off);
        ASSERT_EQ(e.key_off, key_off);
        ASSERT_EQ(sst->key(e), keys[i]);
        off += lsm::entry_file_bytes(e);
        key_off += e.key_len;
      }
      ASSERT_EQ(sst->keys.size(), key_off);
      // A key stride exactly when every key has one length.
      u32 stride = n ? (u32)keys.front().size() : 0;
      for (const std::string& k : keys)
        if (k.size() != stride) stride = 0;
      ASSERT_EQ(sst->key_stride, stride);
      if (prefixed && n) {
        ASSERT_EQ(sst->key_stride, 16u);
      }
      ASSERT_EQ(sst->file_bytes, off + off / 50 + 4 * KiB);
      ASSERT_EQ(sst->smallest(), n ? std::string_view(keys.front()) : "");
      ASSERT_EQ(sst->largest(), n ? std::string_view(keys.back()) : "");

      for (const std::string& k : keys) {
        const i64 want = reference_find(*sst, k);
        ASSERT_GE(want, 0);
        ASSERT_EQ(sst->find(k), want) << "n=" << n;
        ASSERT_EQ(sst->find(k, hash64(k)), want);
        ASSERT_TRUE(sst->bloom.may_contain(hash64(k)));
      }
      // Absent keys: neighbours of present keys (one byte longer, last
      // byte changed, a prefix) and fresh random ones.
      std::vector<std::string> probes;
      for (const std::string& k : keys) {
        probes.push_back(k + "x");
        probes.push_back(k.substr(0, k.size() - 1));
        std::string m = k;
        m.back() = (char)(m.back() + 1);
        probes.push_back(m);
      }
      for (const std::string& k : make_keys(64, prefixed, rng))
        probes.push_back(k);
      probes.emplace_back();
      for (const std::string& k : probes)
        ASSERT_EQ(sst->find(k), reference_find(*sst, k)) << "n=" << n;
    }
  }
}

// Two keys whose hashes agree in the low 32 bits (the slot tag) and the
// top 8 (so they share a home slot in any table of up to 128 slots): a
// probe that meets the other key's slot must compare keys to tell them
// apart.
TEST(SstLookupTags, KeysWithEqualTagsStayApart) {
  const std::string a = "tag0000000788484", b = "tag0000001208019";
  ASSERT_LT(a, b);
  ASSERT_EQ((u32)hash64(a), (u32)hash64(b));
  ASSERT_EQ(hash64(a) >> 56, hash64(b) >> 56);
  ASSERT_NE(hash64(a), hash64(b));
  Rng rng(5);
  const auto both = build_table(1, {a, b}, rng);
  EXPECT_EQ(both->find(a), 0);
  EXPECT_EQ(both->find(b), 1);
  // The same through the entries, in a table without a key stride.
  const auto mixed = build_table(5, {a, b, "tag1"}, rng);
  ASSERT_EQ(mixed->key_stride, 0u);
  EXPECT_EQ(mixed->find(a), 0);
  EXPECT_EQ(mixed->find(b), 1);
  EXPECT_EQ(mixed->find("tag1"), 2);
  const auto only_a = build_table(2, {a}, rng);
  EXPECT_EQ(only_a->find(a), 0);
  EXPECT_EQ(only_a->find(b), -1);
  const auto only_b = build_table(3, {b}, rng);
  EXPECT_EQ(only_b->find(b), 0);
  EXPECT_EQ(only_b->find(a), -1);
  // A larger table: both keys among neighbours of equal prefix.
  std::vector<std::string> keys = make_keys(40, true, rng);
  keys.push_back(a);
  keys.push_back(b);
  std::sort(keys.begin(), keys.end());
  const auto many = build_table(4, keys, rng);
  EXPECT_EQ(many->find(a), reference_find(*many, a));
  EXPECT_EQ(many->find(b), reference_find(*many, b));
  EXPECT_GE(many->find(b), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SstLookup, ::testing::Values(1, 42, 7));

// --- merge_ssts vs the sort-based merge -------------------------------------

/// An SST entry that owns its key, as tables kept them before the arena.
struct RefEntry {
  std::string key;
  ValueDesc value;
  u64 seq = 0;
  bool tombstone = false;
};

/// Compaction's merge as the LSM store ran it before merge_ssts: copy
/// every input entry, sort by key and newest seq first, keep each key's
/// first version (dropping it at the bottom if it is a tombstone), and cut
/// a table after the entry that brings it to `target` file bytes.
std::vector<std::vector<RefEntry>> reference_merge(
    const std::vector<std::shared_ptr<lsm::Sst>>& inputs, bool bottom,
    u64 target) {
  std::vector<RefEntry> merged;
  for (const auto& s : inputs)
    for (const lsm::SstEntry& e : s->entries)
      merged.push_back(
          RefEntry{std::string(s->key(e)), e.value, e.seq, e.tombstone});
  std::sort(merged.begin(), merged.end(),
            [](const RefEntry& a, const RefEntry& b) {
              return a.key != b.key ? a.key < b.key : a.seq > b.seq;
            });
  std::vector<RefEntry> kept;
  std::string last_key;
  bool have_last = false;
  for (RefEntry& e : merged) {
    if (have_last && last_key == e.key) continue;
    last_key = e.key;
    have_last = true;
    if (e.tombstone && bottom) continue;
    kept.push_back(std::move(e));
  }
  std::vector<std::vector<RefEntry>> outputs;
  std::vector<RefEntry> cur;
  u64 cur_bytes = 0;
  for (RefEntry& e : kept) {
    cur_bytes += e.key.size() + e.value.size + 16;
    cur.push_back(std::move(e));
    if (cur_bytes >= target) {
      outputs.push_back(std::move(cur));
      cur.clear();
      cur_bytes = 0;
    }
  }
  if (!cur.empty()) outputs.push_back(std::move(cur));
  return outputs;
}

/// A compaction job's inputs as LsmStore lists them: up to five L0-style
/// tables (newest last) that overlap each other, then the next level's
/// run of non-overlapping, older tables. Every write has its own seq; a
/// fifth of the entries are tombstones.
std::vector<std::shared_ptr<lsm::Sst>> random_inputs(Rng& rng) {
  const std::vector<std::string> space =
      make_keys(20 + rng.below(400), rng.chance(0.5), rng);
  u64 seq = 0, id = 1;
  auto table = [&](u64 lo, u64 hi, double density) {
    lsm::SstBuilder b;
    for (u64 i = lo; i < hi; ++i) {
      if (!rng.chance(density)) continue;
      const bool tomb = rng.below(5) == 0;
      b.add(space[i],
            ValueDesc{tomb ? 0 : (u32)rng.below(3000), rng.next()}, ++seq,
            tomb);
    }
    return b.finish(id++);
  };
  std::vector<std::shared_ptr<lsm::Sst>> lower;
  const u64 runs = rng.below(7);
  for (u64 r = 0, lo = 0; r < runs; ++r) {
    const u64 hi = r + 1 == runs ? space.size()
                                 : lo + rng.below(space.size() - lo + 1);
    lower.push_back(table(lo, hi, rng.uniform()));
    lo = hi;
  }
  std::vector<std::shared_ptr<lsm::Sst>> inputs;
  for (u64 n = 1 + rng.below(5); n-- > 0;) {
    const u64 lo = rng.below(space.size());
    inputs.push_back(table(lo, lo + rng.below(space.size() - lo + 1),
                           0.2 + 0.8 * rng.uniform()));
  }
  inputs.insert(inputs.end(), lower.begin(), lower.end());
  return inputs;
}

class SstMerge : public ::testing::TestWithParam<u64> {};

TEST_P(SstMerge, MatchesSortDedupeAndSplit) {
  Rng rng(GetParam());
  u64 multi_output = 0, shadowed = 0, kept_tombstones = 0;
  for (int round = 0; round < 300; ++round) {
    const auto inputs = random_inputs(rng);
    const bool bottom = rng.chance(0.5);
    const u64 targets[] = {1 + rng.below(4000), 1 + rng.below(60000),
                           ~0ull};
    const u64 target = targets[rng.below(3)];
    const auto want = reference_merge(inputs, bottom, target);
    constexpr u64 kFirstId = 1000;
    u64 next_id = kFirstId;
    const auto got = lsm::merge_ssts(inputs, bottom, target, next_id);
    ASSERT_EQ(got.size(), want.size()) << "round " << round;
    ASSERT_EQ(next_id, kFirstId + want.size());

    u64 in_entries = 0, out_entries = 0;
    for (const auto& s : inputs) in_entries += s->entries.size();
    multi_output += want.size() > 1;
    for (size_t t = 0; t < want.size(); ++t) {
      const lsm::Sst& g = *got[t];
      ASSERT_EQ(g.id, kFirstId + t);
      ASSERT_EQ(g.entries.size(), want[t].size())
          << "split point of table " << t << ", round " << round;
      out_entries += want[t].size();
      u64 off = 0;
      std::vector<u64> hashes;
      for (size_t i = 0; i < want[t].size(); ++i) {
        const RefEntry& w = want[t][i];
        const lsm::SstEntry& e = g.entries[i];
        ASSERT_EQ(g.key(e), w.key);
        ASSERT_EQ(e.value, w.value);
        ASSERT_EQ(e.seq, w.seq);
        ASSERT_EQ(e.tombstone, w.tombstone);
        ASSERT_EQ(e.offset, off);
        ASSERT_EQ(g.find(w.key), (i64)i);
        off += w.key.size() + w.value.size + 16;
        hashes.push_back(hash64(w.key));
        kept_tombstones += w.tombstone;
      }
      ASSERT_EQ(g.file_bytes, off + off / 50 + 4 * KiB);
      // The filter answers every probe as one built from the reference.
      const lsm::SstBloom bloom(hashes);
      for (int p = 0; p < 64; ++p) hashes.push_back(rng.next());
      for (u64 h : hashes)
        ASSERT_EQ(g.bloom.may_contain(h), bloom.may_contain(h));
    }
    if (!bottom) shadowed += in_entries - out_entries;
  }
  // The inputs exercised what the merge must get right.
  EXPECT_GT(multi_output, 50u);
  EXPECT_GT(shadowed, 1000u);  // one key in several inputs
  EXPECT_GT(kept_tombstones, 100u);  // tombstones above the bottom
}

INSTANTIATE_TEST_SUITE_P(Seeds, SstMerge, ::testing::Values(1, 42, 7));

}  // namespace
}  // namespace kvsim
