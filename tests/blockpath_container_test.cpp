// Tests for the flat containers of the block-stack read path.
//
//  * FlatLru against a std::list + std::unordered_map LRU (the reference,
//    kept here), op for op under seeded streams, with both re-insert
//    semantics the block stack uses: every hit/miss answer and every
//    evicted key must match.
//  * SlotPool recycling and its power-loss clear.
//  * Sst::find (the per-SST point index) against a lower_bound over the
//    sorted entries, and the entry offsets folded into SstEntry.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
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
  auto it = std::lower_bound(
      sst.entries.begin(), sst.entries.end(), key,
      [](const lsm::SstEntry& e, std::string_view k) { return e.key < k; });
  if (it == sst.entries.end() || it->key != key) return -1;
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

class SstLookup : public ::testing::TestWithParam<u64> {};

TEST_P(SstLookup, PointIndexMatchesLowerBound) {
  Rng rng(GetParam());
  for (u64 n : {0ull, 1ull, 2ull, 3ull, 100ull, 4000ull}) {
    for (bool prefixed : {true, false}) {
      const std::vector<std::string> keys = make_keys(n, prefixed, rng);
      std::vector<lsm::SstEntry> entries;
      for (const std::string& k : keys)
        entries.push_back(lsm::SstEntry{
            k, ValueDesc{(u32)rng.below(5000), rng.next()}, 1, false});
      const auto sst = lsm::build_sst(7, entries);
      ASSERT_EQ(sst->entries.size(), n);

      // Offsets: each entry starts where the previous one ended.
      u64 off = 0;
      for (const lsm::SstEntry& e : sst->entries) {
        ASSERT_EQ(e.offset, off);
        off += lsm::entry_file_bytes(e);
      }

      for (const std::string& k : keys) {
        const i64 want = reference_find(*sst, k);
        ASSERT_GE(want, 0);
        ASSERT_EQ(sst->find(k), want) << "n=" << n;
        ASSERT_EQ(sst->find(k, hash64(k)), want);
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

INSTANTIATE_TEST_SUITE_P(Seeds, SstLookup, ::testing::Values(1, 42, 7));

}  // namespace
}  // namespace kvsim
