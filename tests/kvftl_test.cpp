// Unit and behavioral tests for the KV-SSD firmware model.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "kvftl/kv_ftl.h"
#include "workload/workload.h"

namespace kvsim::kvftl {
namespace {

struct Bed {
  ssd::SsdConfig dev;
  sim::EventQueue eq;
  flash::FlashController flash;
  KvFtl ftl;

  explicit Bed(ssd::SsdConfig d = tiny_device(), KvFtlConfig cfg = tiny_cfg())
      : dev(d), flash(eq, d.geometry, d.timing), ftl(eq, flash, d, cfg) {}

  static ssd::SsdConfig tiny_device() {
    ssd::SsdConfig d;
    d.geometry.channels = 2;
    d.geometry.dies_per_channel = 2;
    d.geometry.planes_per_die = 2;
    d.geometry.blocks_per_plane = 8;
    d.geometry.pages_per_block = 16;  // 64 blocks, 32 MiB raw
    d.write_buffer_bytes = 2 * MiB;
    return d;
  }
  static KvFtlConfig tiny_cfg() {
    KvFtlConfig cfg;
    cfg.index.dram_bytes = 4 * MiB;  // plenty: no spill unless asked
    cfg.expected_keys_hint = 100000;
    return cfg;
  }

  Status store(const std::string& key, u32 vsize, u64 vfp) {
    Status out = Status::kIoError;
    ftl.store(key, ValueDesc{vsize, vfp}, [&](Status s) { out = s; });
    eq.run();
    return out;
  }
  std::pair<Status, ValueDesc> retrieve(const std::string& key) {
    std::pair<Status, ValueDesc> out{Status::kIoError, {}};
    ftl.retrieve(key, [&](Status s, ValueDesc v) { out = {s, v}; });
    eq.run();
    return out;
  }
  Status remove(const std::string& key) {
    Status out = Status::kIoError;
    ftl.remove(key, [&](Status s) { out = s; });
    eq.run();
    return out;
  }
  std::pair<Status, bool> exist(const std::string& key) {
    std::pair<Status, bool> out{Status::kIoError, false};
    ftl.exist(key, [&](Status s, bool f) { out = {s, f}; });
    eq.run();
    return out;
  }
  void flush() {
    bool done = false;
    ftl.flush([&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
  }
};

TEST(KvFtl, RejectsInconsistentConfig) {
  ssd::SsdConfig dev = Bed::tiny_device();
  sim::EventQueue eq;
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  KvFtlConfig cfg = Bed::tiny_cfg();
  cfg.page_data_slots = 64;  // 64 KiB data area in a 32 KiB page
  EXPECT_THROW((KvFtl{eq, flash, dev, cfg}), std::invalid_argument);
  cfg = Bed::tiny_cfg();
  cfg.index_managers = 0;
  EXPECT_THROW((KvFtl{eq, flash, dev, cfg}), std::invalid_argument);
}

TEST(KvFtl, StoreRetrieveRoundTrip) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 500, 0xabcd), Status::kOk);
  auto [s, v] = bed.retrieve("key-0001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 500u);
  EXPECT_EQ(v.fingerprint, 0xabcdu);
  EXPECT_EQ(bed.ftl.kvp_count(), 1u);
}

TEST(KvFtl, MissingKeyNotFoundViaBloom) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 100, 1), Status::kOk);
  auto [s, v] = bed.retrieve("nope-999");
  EXPECT_EQ(s, Status::kNotFound);
  EXPECT_EQ(v.size, 0u);
  EXPECT_GE(bed.ftl.bloom_negative_hits(), 1u);
}

// An absent key that passes the Bloom filter (a false positive) walks the
// index and answers kNotFound; only the filter's own negatives count as
// Bloom hits.
TEST(KvFtl, BloomFalsePositiveAnswersNotFound) {
  KvFtlConfig cfg = Bed::tiny_cfg();
  cfg.expected_keys_hint = 1;  // the smallest filter: 1024 counters
  Bed bed(Bed::tiny_device(), cfg);
  for (u64 i = 0; i < 500; ++i)
    ASSERT_EQ(bed.store(wl::make_key(i, 16), 100, i), Status::kOk);
  u64 passed = 0;
  for (u64 i = 1000; i < 1050; ++i) {
    const u64 negatives = bed.ftl.bloom_negative_hits();
    const auto [s, v] = bed.retrieve(wl::make_key(i, 16));
    EXPECT_EQ(s, Status::kNotFound) << i;
    EXPECT_EQ(v.size, 0u) << i;
    passed += bed.ftl.bloom_negative_hits() == negatives;
  }
  EXPECT_GT(passed, 0u);
  EXPECT_LT(passed, 50u);
}

TEST(KvFtl, OverwriteReturnsLatest) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 100, 1), Status::kOk);
  EXPECT_EQ(bed.store("key-0001", 9000, 2), Status::kOk);
  auto [s, v] = bed.retrieve("key-0001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 9000u);
  EXPECT_EQ(v.fingerprint, 2u);
  EXPECT_EQ(bed.ftl.kvp_count(), 1u);
}

TEST(KvFtl, RemoveThenNotFound) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 100, 1), Status::kOk);
  EXPECT_EQ(bed.remove("key-0001"), Status::kOk);
  EXPECT_EQ(bed.retrieve("key-0001").first, Status::kNotFound);
  EXPECT_EQ(bed.ftl.kvp_count(), 0u);
  EXPECT_EQ(bed.remove("key-0001"), Status::kNotFound);
}

TEST(KvFtl, ExistQueries) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 100, 1), Status::kOk);
  EXPECT_EQ(bed.exist("key-0001"), (std::pair{Status::kOk, true}));
  EXPECT_EQ(bed.exist("key-0002"), (std::pair{Status::kOk, false}));
}

TEST(KvFtl, KeySizeLimits) {
  Bed bed;
  EXPECT_EQ(bed.store("abc", 10, 1), Status::kInvalidArgument);  // < 4 B
  EXPECT_EQ(bed.store(std::string(256, 'x'), 10, 1),
            Status::kInvalidArgument);  // > 255 B
  EXPECT_EQ(bed.store(std::string(255, 'x'), 10, 1), Status::kOk);
  EXPECT_EQ(bed.store("abcd", 10, 1), Status::kOk);
}

TEST(KvFtl, ValueSizeLimit) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 2 * MiB + 1, 1), Status::kInvalidArgument);
}

TEST(KvFtl, ZeroLengthValueStillStores) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 0, 7), Status::kOk);
  auto [s, v] = bed.retrieve("key-0001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 0u);
  EXPECT_EQ(bed.ftl.live_slots(), 1u);  // metadata still takes a slot
}

TEST(KvFtl, SmallValuePaddingSpaceAmplification) {
  Bed bed;
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(bed.store(wl::make_key((u64)i, 16), 50, (u64)i), Status::kOk);
  // 50 B values pad to 1 KiB slots: SA vs key+value (66 B) is ~15x.
  const double sa = (double)bed.ftl.live_slots() * 1024.0 /
                    (double)bed.ftl.app_bytes_live();
  EXPECT_NEAR(sa, 1024.0 / 66.0, 0.5);
}

TEST(KvFtl, LargeValueSplitsIntoChunksAndReadsBack) {
  Bed bed;
  const u32 vsize = 100 * 1024;  // > 24 KiB data area: 5 chunks
  EXPECT_EQ(bed.store("key-0001", vsize, 0xfeed), Status::kOk);
  EXPECT_EQ(bed.ftl.live_slots(), 100u);
  auto [s, v] = bed.retrieve("key-0001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, vsize);
  EXPECT_EQ(v.fingerprint, 0xfeedu);
}

TEST(KvFtl, MaxSizeValueRoundTrip) {
  Bed bed;
  EXPECT_EQ(bed.store("key-0001", 2 * MiB, 42), Status::kOk);
  auto [s, v] = bed.retrieve("key-0001");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 2 * MiB);
}

TEST(KvFtl, CapacityLimitReached) {
  Bed bed;
  // Device data capacity ~ (64 - reserved) blocks * 16 pages * 24 slots.
  // Store 40 KiB values until refusal.
  Status last = Status::kOk;
  u64 stored = 0;
  for (u64 i = 0; i < 100000; ++i) {
    last = bed.store(wl::make_key(i, 16), 40 * 1024, i);
    if (last != Status::kOk) break;
    ++stored;
  }
  EXPECT_TRUE(last == Status::kCapacityLimit || last == Status::kDeviceFull);
  EXPECT_GT(stored, 100u);
  // Existing data still readable.
  auto [s, v] = bed.retrieve(wl::make_key(0, 16));
  EXPECT_EQ(s, Status::kOk);
}

TEST(KvFtl, GcReclaimsAndPreservesData) {
  Bed bed;
  // Working set ~60% of capacity, overwritten repeatedly.
  const u64 keys = 300;
  const u32 vsize = 23 * 1024;  // ~1 page per KVP
  std::map<u64, u64> expected;
  Rng rng(17);
  u64 oks = 0, fulls = 0;
  for (u64 op = 0; op < 4000; ++op) {
    const u64 id = rng.below(keys);
    const Status s = bed.store(wl::make_key(id, 16), vsize, op);
    if (s == Status::kOk) {
      expected[id] = op;
      ++oks;
    } else {
      ++fulls;
    }
  }
  bed.flush();
  EXPECT_GT(oks, 3900u);
  EXPECT_GT(bed.ftl.stats().gc_runs, 0u);
  for (const auto& [id, fp] : expected) {
    auto [s, v] = bed.retrieve(wl::make_key(id, 16));
    ASSERT_EQ(s, Status::kOk) << "key " << id;
    ASSERT_EQ(v.fingerprint, fp) << "key " << id;
  }
}

TEST(KvFtl, SequentialAndRandomStoresCostTheSame) {
  // The paper's headline: hash-order indexing erases sequential-access
  // benefits. Mean store latency for sequential vs random key order must
  // be statistically indistinguishable (< 5% apart).
  auto run = [](bool seq) {
    Bed bed;
    Rng rng(23);
    const u64 n = 2000;
    TimeNs total = 0;
    for (u64 i = 0; i < n; ++i) {
      const u64 id = seq ? i : rng.below(100000);
      const TimeNs t0 = bed.eq.now();
      bed.ftl.store(wl::make_key(id, 16), ValueDesc{4096, i},
                    [&](Status s) {
                      EXPECT_EQ(s, Status::kOk);
                      total += bed.eq.now() - t0;
                    });
      bed.eq.run();
    }
    return (double)total / (double)n;
  };
  const double seq_lat = run(true);
  const double rand_lat = run(false);
  EXPECT_NEAR(seq_lat / rand_lat, 1.0, 0.05);
}

TEST(KvFtl, IteratorBucketsCoverAllKeys) {
  Bed bed;
  std::set<std::string> inserted;
  for (u64 i = 0; i < 200; ++i) {
    const std::string k = wl::make_key(i, 12);
    ASSERT_EQ(bed.store(k, 100, i), Status::kOk);
    inserted.insert(k);
  }
  std::set<std::string> iterated;
  for (u32 bucket : bed.ftl.iterator_bucket_ids()) {
    bool done = false;
    bed.ftl.iterate_bucket(bucket, [&](std::vector<std::string> keys) {
      for (auto& k : keys) iterated.insert(std::move(k));
      done = true;
    });
    bed.eq.run();
    EXPECT_TRUE(done);
  }
  EXPECT_EQ(iterated, inserted);
}

TEST(KvFtl, IteratorForgetsDeletedKeys) {
  Bed bed;
  const std::string a = wl::make_key(1, 12), b = wl::make_key(2, 12);
  ASSERT_EQ(bed.store(a, 100, 1), Status::kOk);
  ASSERT_EQ(bed.store(b, 100, 2), Status::kOk);
  ASSERT_EQ(bed.remove(a), Status::kOk);
  std::set<std::string> iterated;
  for (u32 bucket : bed.ftl.iterator_bucket_ids()) {
    bed.ftl.iterate_bucket(bucket, [&](std::vector<std::string> keys) {
      for (auto& k : keys) iterated.insert(std::move(k));
    });
    bed.eq.run();
  }
  EXPECT_EQ(iterated, std::set<std::string>{b});
}

// A cursor batch is a command: it completes no earlier than the dispatch
// core gets to it, however soon its bucket-page read lands.
TEST(KvFtl, IteratorBatchWaitsForItsDispatch) {
  Bed bed;
  ASSERT_EQ(bed.store(wl::make_key(1, 16), 100, 1), Status::kOk);
  const TimeNs t0 = bed.eq.now();
  // 1000 commands at once queue 1000 dispatches ahead of the batch.
  for (u64 i = 0; i < 1000; ++i)
    bed.ftl.exist(wl::make_key(i, 16), [](Status, bool) {});
  TimeNs done_at = 0;
  bed.ftl.charge_iterator_read([&] { done_at = bed.eq.now(); });
  bed.eq.run();
  EXPECT_GE(done_at, t0 + 1001 * bed.dev.firmware_dispatch_ns);
}

TEST(KvFtl, IndexSpillRaisesLatency) {
  // Shrink the index DRAM so it overflows early: stores must slow down
  // once segments spill to flash (the Fig. 3 mechanism).
  KvFtlConfig cfg = Bed::tiny_cfg();
  cfg.index.dram_bytes = 16 * KiB;  // 4 segments
  cfg.index.segment_split_threshold = 64;
  Bed bed(Bed::tiny_device(), cfg);

  auto mean_store = [&](u64 from, u64 n) {
    TimeNs total = 0;
    for (u64 i = from; i < from + n; ++i) {
      const TimeNs t0 = bed.eq.now();
      bed.ftl.store(wl::make_key(i, 16), ValueDesc{512, i},
                    [&](Status) { total += bed.eq.now() - t0; });
      bed.eq.run();
    }
    return (double)total / (double)n;
  };
  const double early = mean_store(0, 200);       // index fits DRAM
  (void)mean_store(200, 5000);                   // grow the index
  const double late = mean_store(5200, 200);     // index spilled
  EXPECT_LT(bed.ftl.index().hit_rate(), 0.9);
  EXPECT_GT(late, early * 1.5);
}

TEST(KvFtl, DeviceCountersConsistent) {
  Bed bed;
  for (u64 i = 0; i < 50; ++i)
    ASSERT_EQ(bed.store(wl::make_key(i, 16), 4096, i), Status::kOk);
  bed.flush();
  const auto& st = bed.ftl.stats();
  EXPECT_EQ(st.host_write_ops, 50u);
  EXPECT_EQ(st.host_bytes_written, 50u * (16 + 4096));
  EXPECT_EQ(bed.ftl.live_slots(), 200u);  // 4 slots per 4 KiB value
  EXPECT_GT(st.flash_bytes_written, 0u);
  EXPECT_GT(bed.ftl.device_bytes_used(), 200u * 1024);
}

}  // namespace
}  // namespace kvsim::kvftl
