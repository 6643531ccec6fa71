// Tests for the YCSB workload presets and the supporting generator
// machinery (latest distribution, scans, distinct inserts, permutation).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "workload/ycsb.h"

namespace kvsim::wl {
namespace {

TEST(Permutation, IsABijection) {
  for (u64 n : {1u, 2u, 17u, 100u, 1000u, 4096u}) {
    Permutation perm(n, 7);
    std::set<u64> seen;
    for (u64 i = 0; i < n; ++i) {
      const u64 x = perm(i);
      EXPECT_LT(x, n);
      EXPECT_TRUE(seen.insert(x).second) << "collision at n=" << n;
    }
  }
}

TEST(Permutation, ActuallyShuffles) {
  Permutation perm(1000, 3);
  u64 fixed = 0;
  for (u64 i = 0; i < 1000; ++i) fixed += perm(i) == i;
  EXPECT_LT(fixed, 20u);
}

TEST(DistinctInserts, VisitEveryKeyOnce) {
  WorkloadSpec spec;
  spec.num_ops = 5000;
  spec.key_space = 5000;
  spec.pattern = Pattern::kUniform;
  spec.mix = OpMix::insert_only();
  spec.distinct_inserts = true;
  SyntheticOpSource s(spec);
  Op op;
  std::set<u64> seen;
  while (s.next(op)) {
    EXPECT_EQ((int)op.type, (int)OpType::kInsert);
    EXPECT_TRUE(seen.insert(op.key_id).second);
  }
  EXPECT_EQ(seen.size(), 5000u);
}

TEST(LatestPattern, SkewsTowardNewestKeys) {
  KeyChooser c(Pattern::kLatest, 100'000, 5);
  u64 in_top_decile = 0;
  const u64 draws = 20'000;
  for (u64 i = 0; i < draws; ++i)
    in_top_decile += c.next() >= 90'000;
  // Zipf-over-recency puts far more than 10% of draws in the newest 10%.
  EXPECT_GT(in_top_decile, draws / 2);
}

TEST(LatestPattern, FrontierAdvances) {
  KeyChooser c(Pattern::kLatest, 1000, 9);
  for (int i = 0; i < 100; ++i) EXPECT_LT(c.next(), 1000u);
  c.set_space(1500);  // 500 inserts moved the frontier
  EXPECT_EQ(c.key_space(), 1500u);
  u64 above_old_frontier = 0;
  for (int i = 0; i < 5000; ++i) above_old_frontier += c.next() >= 1000;
  EXPECT_GT(above_old_frontier, 1000u);  // new keys are the hot ones
}

TEST(YcsbSpecs, MixesMatchDefinition) {
  const YcsbRecordConfig rec;
  const WorkloadSpec a = ycsb_spec(YcsbWorkload::kA, 1000, 100, rec);
  EXPECT_DOUBLE_EQ(a.mix.update, 0.5);
  EXPECT_DOUBLE_EQ(a.mix.read, 0.5);
  EXPECT_EQ(a.value_bytes, 1000u);  // 10 x 100 B
  const WorkloadSpec d = ycsb_spec(YcsbWorkload::kD, 1000, 100, rec);
  EXPECT_TRUE(d.inserts_extend_space);
  EXPECT_EQ((int)d.pattern, (int)Pattern::kLatest);
  const WorkloadSpec e = ycsb_spec(YcsbWorkload::kE, 1000, 100, rec);
  EXPECT_DOUBLE_EQ(e.mix.scan, 0.95);
  EXPECT_GT(e.scan_length, 0u);
}

TEST(YcsbSpecs, StreamRespectsScanOps) {
  WorkloadSpec spec = ycsb_spec(YcsbWorkload::kE, 1000, 2000, {});
  SyntheticOpSource s(spec);
  Op op;
  u64 scans = 0, inserts = 0;
  while (s.next(op)) {
    if (op.type == OpType::kScan) {
      ++scans;
      EXPECT_EQ(op.scan_length, spec.scan_length);
    } else if (op.type == OpType::kInsert) {
      ++inserts;
      EXPECT_GE(op.key_id, 1000u);  // fresh ids past the loaded space
    }
  }
  EXPECT_NEAR((double)scans / 2000.0, 0.95, 0.03);
  EXPECT_GT(inserts, 50u);
}

TEST(YcsbEndToEnd, WorkloadARunsCleanOnKvssd) {
  harness::KvssdBedConfig cfg;
  cfg.dev = ssd::SsdConfig::small_device();
  cfg.ftl.track_iterator_keys = false;
  cfg.ftl.expected_keys_hint = 20'000;
  harness::KvssdBed bed(cfg);
  const YcsbRecordConfig rec;
  (void)harness::fill_stack(bed, 5000, rec.key_bytes, rec.value_bytes(), 32);
  WorkloadSpec spec = ycsb_spec(YcsbWorkload::kA, 5000, 4000, rec);
  spec.queue_depth = 16;
  const harness::RunResult r = harness::run_workload(bed, spec, {.drain_after = true});
  EXPECT_EQ(r.ops, 4000u);
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_EQ(r.not_found, 0u);  // space fully loaded
  EXPECT_GT(r.read.count(), 0u);
  EXPECT_GT(r.update.count(), 0u);
}

TEST(YcsbEndToEnd, WorkloadEScansRunClean) {
  harness::KvssdBedConfig cfg;
  cfg.dev = ssd::SsdConfig::small_device();
  cfg.ftl.track_iterator_keys = false;
  cfg.ftl.expected_keys_hint = 20'000;
  harness::KvssdBed bed(cfg);
  const YcsbRecordConfig rec;
  (void)harness::fill_stack(bed, 5000, rec.key_bytes, rec.value_bytes(), 32);
  WorkloadSpec spec = ycsb_spec(YcsbWorkload::kE, 5000, 1000, rec);
  spec.queue_depth = 8;
  const harness::RunResult r = harness::run_workload(bed, spec, {.drain_after = true});
  EXPECT_EQ(r.ops, 1000u);
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_GT(r.scan.count(), 800u);
  // A 16-key scan costs well more than one point read but far less than
  // 16 serial device reads (later keys can hit buffered/parallel paths).
  EXPECT_GT(r.scan.mean(), 100'000.0);
}

}  // namespace
}  // namespace kvsim::wl
