// Tests for the mini-RocksDB LSM store.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "common/rng.h"
#include "harness/stacks.h"
#include "workload/workload.h"

namespace kvsim::lsm {
namespace {

harness::LsmBedConfig small_bed_cfg() {
  harness::LsmBedConfig c;
  c.dev.geometry.channels = 2;
  c.dev.geometry.dies_per_channel = 2;
  c.dev.geometry.planes_per_die = 2;
  c.dev.geometry.blocks_per_plane = 16;
  c.dev.geometry.pages_per_block = 16;  // 64 MiB raw
  c.lsm.memtable_bytes = 256 * KiB;     // small, to exercise flushes
  c.lsm.l1_target_bytes = 1 * MiB;
  c.lsm.sst_target_bytes = 512 * KiB;
  return c;
}

struct Bed {
  harness::LsmBed bed{small_bed_cfg()};

  Status put(const std::string& k, u32 vsize, u64 vfp) {
    Status out = Status::kIoError;
    bed.store(k, ValueDesc{vsize, vfp}, [&](Status s) { out = s; });
    bed.eq().run();
    return out;
  }
  std::pair<Status, ValueDesc> get(const std::string& k) {
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.retrieve(k, [&](Status s, ValueDesc v) { out = {s, v}; });
    bed.eq().run();
    return out;
  }
  Status del(const std::string& k) {
    Status out = Status::kIoError;
    bed.remove(k, [&](Status s) { out = s; });
    bed.eq().run();
    return out;
  }
  void drain() {
    bool done = false;
    bed.drain([&] { done = true; });
    bed.eq().run();
    EXPECT_TRUE(done);
  }
};

TEST(SstBloom, NoFalseNegativesAtAwkwardSizes) {
  // Regression: build/query must use the same bit-count modulus even when
  // keys*10 is not a multiple of 64.
  for (u64 n : {1u, 3u, 7u, 100u, 233u, 2335u}) {
    std::vector<u64> khashes;
    Rng rng(n);
    for (u64 i = 0; i < n; ++i) khashes.push_back(rng.next());
    SstBloom bloom(khashes);
    for (u64 kh : khashes) EXPECT_TRUE(bloom.may_contain(kh)) << n;
  }
}

TEST(LsmStore, PutGetRoundTrip) {
  Bed b;
  EXPECT_EQ(b.put("key-000001", 100, 7), Status::kOk);
  auto [s, v] = b.get("key-000001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 100u);
  EXPECT_EQ(v.fingerprint, 7u);
}

TEST(LsmStore, GetMissingNotFound) {
  Bed b;
  EXPECT_EQ(b.get("key-000001").first, Status::kNotFound);
}

TEST(LsmStore, OverwriteReturnsLatest) {
  Bed b;
  EXPECT_EQ(b.put("key-000001", 100, 1), Status::kOk);
  EXPECT_EQ(b.put("key-000001", 200, 2), Status::kOk);
  auto [s, v] = b.get("key-000001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.fingerprint, 2u);
}

TEST(LsmStore, DeleteTombstones) {
  Bed b;
  EXPECT_EQ(b.put("key-000001", 100, 1), Status::kOk);
  EXPECT_EQ(b.del("key-000001"), Status::kOk);
  EXPECT_EQ(b.get("key-000001").first, Status::kNotFound);
}

TEST(LsmStore, DeleteSurvivesFlushes) {
  Bed b;
  EXPECT_EQ(b.put("key-000001", 100, 1), Status::kOk);
  b.drain();  // key now in an SST
  EXPECT_EQ(b.del("key-000001"), Status::kOk);
  b.drain();  // tombstone flushed too
  EXPECT_EQ(b.get("key-000001").first, Status::kNotFound);
}

TEST(LsmStore, FlushAndCompactionPreserveData) {
  Bed b;
  std::map<std::string, u64> expected;
  Rng rng(3);
  for (u64 i = 0; i < 3000; ++i) {
    const std::string k = wl::make_key(rng.below(800), 12);
    ASSERT_EQ(b.put(k, 1024, i), Status::kOk);
    expected[k] = i;
  }
  b.drain();
  EXPECT_GT(b.bed.store().flushes_run(), 0u);
  EXPECT_GT(b.bed.store().compactions_run(), 0u);
  for (const auto& [k, fp] : expected) {
    auto [s, v] = b.get(k);
    ASSERT_EQ(s, Status::kOk) << k;
    ASSERT_EQ(v.fingerprint, fp) << k;
  }
}

TEST(LsmStore, SequentialFillUsesTrivialMoves) {
  Bed b;
  for (u64 i = 0; i < 4000; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 1024, i), Status::kOk);
  b.drain();
  EXPECT_GT(b.bed.store().trivial_moves(), 0u);
}

TEST(LsmStore, RandomFillAvoidsTrivialMoves) {
  Bed b;
  Rng rng(5);
  for (u64 i = 0; i < 4000; ++i)
    ASSERT_EQ(b.put(wl::make_key(rng.below(1u << 30), 12), 1024, i),
              Status::kOk);
  b.drain();
  EXPECT_GT(b.bed.store().compactions_run(), b.bed.store().trivial_moves());
}

TEST(LsmStore, BlockCacheHitsOnRepeatedReads) {
  Bed b;
  ASSERT_EQ(b.put("key-000001", 1024, 1), Status::kOk);
  b.drain();
  (void)b.get("key-000001");  // miss: loads the block
  const u64 hits_before = b.bed.store().block_cache_hits();
  (void)b.get("key-000001");  // hit
  EXPECT_GT(b.bed.store().block_cache_hits(), hits_before);
}

TEST(LsmStore, CompactionDeletesTriggerDeviceTrim) {
  Bed b;
  Rng rng(7);
  for (u64 i = 0; i < 5000; ++i)
    ASSERT_EQ(b.put(wl::make_key(rng.below(500), 12), 1024, i), Status::kOk);
  b.drain();
  // Compactions removed input SSTs; the fs TRIMmed their extents, so the
  // device saw trims (live < written).
  const auto& st = b.bed.ftl().stats();
  EXPECT_GT(st.host_bytes_written, b.bed.ftl().live_bytes());
}

TEST(LsmStore, WriteStallsOccurUnderPressure) {
  Bed b;
  // Hammer puts without draining: memtable flushes + L0 growth must
  // eventually stall the writer.
  u64 completed = 0;
  const u64 n = 20000;
  for (u64 i = 0; i < n; ++i)
    b.bed.store(wl::make_key(i, 12), ValueDesc{2048, i},
                [&](Status s) { completed += s == Status::kOk; });
  b.bed.eq().run();
  EXPECT_EQ(completed, n);
  EXPECT_GT(b.bed.store().write_stall_events(), 0u);
}

TEST(LsmStore, SpaceAmplificationIsModest) {
  Bed b;
  const u64 keys = 3000;
  for (u64 i = 0; i < keys; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 1024, i), Status::kOk);
  b.drain();
  const double app_bytes = (double)keys * (12 + 1024);
  const double sa = (double)b.bed.store().sst_bytes_live() / app_bytes;
  // Leveled LSM space amp ~1.1 plus WAL remnants; far below KV-SSD's
  // small-value padding blowup.
  EXPECT_LT(sa, 2.0);
  EXPECT_GT(sa, 0.9);
}

TEST(LsmStore, CpuScalesWithCompactionWork) {
  Bed b;
  Rng rng(11);
  const u64 before = b.bed.host_cpu_ns();
  for (u64 i = 0; i < 3000; ++i)
    ASSERT_EQ(b.put(wl::make_key(rng.below(1000), 12), 1024, i), Status::kOk);
  b.drain();
  // CPU burned far exceeds the per-op API floor because compaction
  // rewrites entries repeatedly.
  const u64 burned = b.bed.host_cpu_ns() - before;
  // Far above the ~6 us/op foreground floor (3000 ops -> ~18 ms): the
  // extra tens of milliseconds are compaction rewrites.
  EXPECT_GT(burned, 3000u * 8000u);
}

// --- config validation: one seeded violation per rule -----------------------

/// The default config passes; `violate` breaks exactly one rule, which
/// both validate() and the store's constructor (via the bed) reject.
void expect_rejected(void (*violate)(LsmConfig&)) {
  harness::LsmBedConfig c = small_bed_cfg();
  EXPECT_NO_THROW(c.lsm.validate());
  violate(c.lsm);
  EXPECT_THROW(c.lsm.validate(), std::invalid_argument);
  EXPECT_THROW(harness::LsmBed{c}, std::invalid_argument);
}

TEST(LsmConfigValidate, RejectsZeroDataBlock) {
  expect_rejected([](LsmConfig& c) { c.data_block_bytes = 0; });
}
TEST(LsmConfigValidate, RejectsZeroSstTarget) {
  expect_rejected([](LsmConfig& c) { c.sst_target_bytes = 0; });
}
TEST(LsmConfigValidate, RejectsZeroIoChunk) {
  expect_rejected([](LsmConfig& c) { c.io_chunk_bytes = 0; });
}
TEST(LsmConfigValidate, RejectsFewerThanTwoLevels) {
  expect_rejected([](LsmConfig& c) { c.num_levels = 1; });
}
TEST(LsmConfigValidate, RejectsLevelSizeRatioBelowTwo) {
  expect_rejected([](LsmConfig& c) { c.level_size_ratio = 1; });
}
TEST(LsmConfigValidate, RejectsStallLimitBelowCompactionTrigger) {
  expect_rejected([](LsmConfig& c) {
    c.l0_compaction_trigger = 6;
    c.l0_stall_limit = 5;
  });
}
TEST(LsmConfigValidate, RejectsSstsPastTheEntryOffsetRange) {
  expect_rejected(
      [](LsmConfig& c) { c.sst_target_bytes = LsmConfig::kMaxSstBytes + 1; });
  expect_rejected(
      [](LsmConfig& c) { c.memtable_bytes = LsmConfig::kMaxSstBytes + 1; });
}

TEST(LsmConfigValidate, BoundaryValuesAreAccepted) {
  LsmConfig c;
  c.num_levels = 2;
  c.level_size_ratio = 2;
  c.l0_stall_limit = c.l0_compaction_trigger;
  c.sst_target_bytes = LsmConfig::kMaxSstBytes;
  c.memtable_bytes = LsmConfig::kMaxSstBytes;
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace kvsim::lsm
