// Second-wave LSM tests: multi-level reads, debug_locate, WAL space
// accounting, stall recovery under mixed load, and tombstone compaction.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "workload/workload.h"

namespace kvsim::lsm {
namespace {

harness::LsmBedConfig small_cfg() {
  harness::LsmBedConfig c;
  c.dev.geometry.channels = 2;
  c.dev.geometry.dies_per_channel = 2;
  c.dev.geometry.planes_per_die = 2;
  c.dev.geometry.blocks_per_plane = 16;
  c.dev.geometry.pages_per_block = 16;
  c.lsm.memtable_bytes = 128 * KiB;
  c.lsm.l1_target_bytes = 512 * KiB;
  c.lsm.sst_target_bytes = 256 * KiB;
  return c;
}

struct Bed {
  harness::LsmBed bed{small_cfg()};

  Status put(const std::string& k, u32 vsize, u64 vfp) {
    Status out = Status::kIoError;
    bed.store(k, ValueDesc{vsize, vfp}, [&](Status s) { out = s; });
    bed.eq().run();
    return out;
  }
  Status del(const std::string& k) {
    Status out = Status::kIoError;
    bed.remove(k, [&](Status s) { out = s; });
    bed.eq().run();
    return out;
  }
  std::pair<Status, ValueDesc> get(const std::string& k) {
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.retrieve(k, [&](Status s, ValueDesc v) { out = {s, v}; });
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

TEST(LsmBehavior, DataReachesDeepLevelsAndStaysReadable) {
  Bed b;
  // Enough churn to push data to L2+.
  Rng rng(3);
  std::map<std::string, u64> model;
  for (u64 i = 0; i < 8000; ++i) {
    const std::string k = wl::make_key(rng.below(2000), 12);
    ASSERT_EQ(b.put(k, 512, i), Status::kOk);
    model[k] = i;
  }
  b.drain();
  u32 deep_files = 0;
  for (u32 l = 2; l < 6; ++l) deep_files += b.bed.store().level_file_count(l);
  EXPECT_GT(deep_files, 0u);
  Rng probe(5);
  for (int i = 0; i < 200; ++i) {
    auto it = model.begin();
    std::advance(it, (long)probe.below(model.size()));
    auto [s, v] = b.get(it->first);
    ASSERT_EQ(s, Status::kOk) << it->first;
    ASSERT_EQ(v.fingerprint, it->second) << it->first;
  }
}

TEST(LsmBehavior, DebugLocateFindsNewestVersionFirst) {
  Bed b;
  ASSERT_EQ(b.put("key-000000000001", 100, 1), Status::kOk);
  b.drain();  // old version now in an SST
  ASSERT_EQ(b.put("key-000000000001", 100, 2), Status::kOk);
  const auto hits = b.bed.store().debug_locate("key-000000000001");
  ASSERT_GE(hits.size(), 2u);  // memtable + SST copy
  EXPECT_NE(hits[0].find("memtable"), std::string::npos);
  EXPECT_NE(hits[0].find("fp=2"), std::string::npos);
}

TEST(LsmBehavior, WalSpaceIsReclaimedAfterFlush) {
  Bed b;
  for (u64 i = 0; i < 4000; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 512, i), Status::kOk);
  b.drain();
  // Live bytes must reflect SSTs, not the whole WAL history (~2 MiB+).
  const u64 app = 4000ull * (12 + 512);
  EXPECT_LT(b.bed.store().sst_bytes_live(), app * 2);
}

TEST(LsmBehavior, MixedReadWriteUnderStallPressure) {
  Bed b;
  (void)harness::fill_stack(b.bed, 3000, 12, 512, 32);
  wl::WorkloadSpec spec;
  spec.num_ops = 6000;
  spec.key_space = 3000;
  spec.key_bytes = 12;
  spec.value_bytes = 512;
  spec.mix = {0.0, 0.6, 0.4, 0};
  spec.queue_depth = 32;
  const harness::RunResult r = harness::run_workload(b.bed, spec, {.drain_after = true});
  EXPECT_EQ(r.ops, 6000u);
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_EQ(r.not_found, 0u);
}

TEST(LsmBehavior, ParallelCompactionsOverlapAndPreserveData) {
  harness::LsmBedConfig c = small_cfg();
  c.lsm.max_background_compactions = 2;
  harness::LsmBed bed(c);
  std::map<std::string, u64> model;
  Rng rng(7);
  // Heavy churn across a wide key range to give multiple levels work.
  u64 oks = 0;
  for (u64 i = 0; i < 12000; ++i) {
    const std::string k = wl::make_key(rng.below(4000), 12);
    bed.store(k, ValueDesc{512, i}, [&](Status s) { oks += s == Status::kOk; });
    model[k] = i;
    if (i % 64 == 0) bed.eq().run();
  }
  bed.eq().run();
  bool done = false;
  bed.drain([&] { done = true; });
  bed.eq().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(oks, 12000u);
  EXPECT_GE(bed.store().peak_parallel_compactions(), 2u);
  Rng probe(9);
  for (int i = 0; i < 300; ++i) {
    auto it = model.begin();
    std::advance(it, (long)probe.below(model.size()));
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    bed.retrieve(it->first, [&](Status s, ValueDesc v) { out = {s, v}; });
    bed.eq().run();
    ASSERT_EQ(out.first, Status::kOk) << it->first;
    ASSERT_EQ(out.second.fingerprint, it->second) << it->first;
  }
}

TEST(LsmBehavior, TombstonesEventuallyCompactAway) {
  Bed b;
  for (u64 i = 0; i < 2000; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 512, i), Status::kOk);
  b.drain();
  for (u64 i = 0; i < 2000; ++i) {
    Status st = Status::kIoError;
    b.bed.remove(wl::make_key(i, 12), [&](Status s) { st = s; });
    b.bed.eq().run();
    ASSERT_EQ(st, Status::kOk);
  }
  // Churn to force compactions through the tombstones.
  for (u64 i = 0; i < 4000; ++i)
    ASSERT_EQ(b.put(wl::make_key(10000 + i, 12), 512, i), Status::kOk);
  b.drain();
  for (u64 i = 0; i < 2000; i += 101)
    EXPECT_EQ(b.get(wl::make_key(i, 12)).first, Status::kNotFound) << i;
}

// Four overlapping L0 files whose tombstones delete every key they hold
// merge into no table at all, with nothing below them. The merge must
// still install: its inputs leave L0, and L1 stays empty. (Installed as
// a trivial move instead, the four files would land in L1 overlapping,
// and a lookup, which reads only the first L1 file that covers its key,
// would find deleted values.)
TEST(LsmBehavior, FullyDeletedL0CompactsToNothing) {
  Bed b;
  auto wave = [&b](u64 first, bool put) {
    for (u64 i = first; i < 400; i += 2) {
      const std::string k = wl::make_key(i, 12);
      EXPECT_EQ(put ? b.put(k, 512, i) : b.del(k), Status::kOk) << i;
    }
    b.drain();  // each wave flushes one L0 file
  };
  wave(0, true);   // the even keys
  wave(1, true);   // the odd keys
  wave(0, false);  // delete the even keys
  wave(1, false);  // delete the odd keys: the fourth file starts a merge
  EXPECT_EQ(b.bed.store().level_file_count(0), 0u);
  EXPECT_EQ(b.bed.store().level_file_count(1), 0u);
  u32 found = 0;
  for (u64 i = 0; i < 400; ++i)
    found += b.get(wl::make_key(i, 12)).first != Status::kNotFound;
  EXPECT_EQ(found, 0u) << "deleted keys read back";
}

}  // namespace
}  // namespace kvsim::lsm
