// Behavioral tests for KV-FTL mechanisms beyond basic CRUD: write-stream
// placement, device-full recovery, buffered-read fast path, split-blob
// lifecycle, and space accounting identities.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.h"
#include "kvftl/kv_ftl.h"
#include "workload/workload.h"

namespace kvsim::kvftl {
namespace {

ssd::SsdConfig tiny_device() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 8;
  d.geometry.pages_per_block = 16;  // 32 MiB raw
  d.write_buffer_bytes = 2 * MiB;
  return d;
}

struct Bed {
  ssd::SsdConfig dev;
  sim::EventQueue eq;
  flash::FlashController flash;
  KvFtl ftl;

  explicit Bed(KvFtlConfig cfg = {})
      : dev(tiny_device()), flash(eq, dev.geometry, dev.timing),
        ftl(eq, flash, dev, cfg) {}

  Status store(const std::string& key, u32 vsize, u64 vfp, u8 stream = 0) {
    Status out = Status::kIoError;
    ftl.store(key, ValueDesc{vsize, vfp}, [&](Status s) { out = s; }, stream);
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
  void flush() {
    bool done = false;
    ftl.flush([&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
  }
};

TEST(KvFtlBehavior, DeviceFullRecoversAfterDeletes) {
  Bed bed;
  // Fill until the device refuses.
  u64 stored = 0;
  Status last = Status::kOk;
  while (last == Status::kOk && stored < 200000) {
    last = bed.store(wl::make_key(stored, 16), 20 * 1024, stored);
    if (last == Status::kOk) ++stored;
  }
  ASSERT_NE(last, Status::kOk);
  ASSERT_GT(stored, 100u);
  // Delete a quarter of the data; stores must succeed again.
  for (u64 i = 0; i < stored / 4; ++i)
    ASSERT_EQ(bed.remove(wl::make_key(i, 16)), Status::kOk);
  u64 recovered = 0;
  for (u64 i = 0; i < 10; ++i)
    recovered +=
        bed.store(wl::make_key(1000000 + i, 16), 20 * 1024, i) == Status::kOk;
  EXPECT_GE(recovered, 8u);
}

TEST(KvFtlBehavior, BufferedReadsAreFasterThanFlashReads) {
  Bed bed;
  ASSERT_EQ(bed.store("hot-key-0", 4096, 1), Status::kOk);
  // Still in the open page buffer: read is a DRAM hit.
  const TimeNs t0 = bed.eq.now();
  auto [s1, v1] = bed.retrieve("hot-key-0");
  const TimeNs buffered = bed.eq.now() - t0;
  ASSERT_EQ(s1, Status::kOk);

  bed.flush();  // now on flash
  const TimeNs t1 = bed.eq.now();
  auto [s2, v2] = bed.retrieve("hot-key-0");
  const TimeNs flashed = bed.eq.now() - t1;
  ASSERT_EQ(s2, Status::kOk);
  EXPECT_LT(buffered, flashed / 2);  // tR dominates the flash path
}

TEST(KvFtlBehavior, RemovingSplitBlobFreesAllSlots) {
  Bed bed;
  const u32 vsize = 70 * 1024;  // 70 slots, 3 chunks
  ASSERT_EQ(bed.store("big-blob-1", vsize, 7), Status::kOk);
  EXPECT_EQ(bed.ftl.live_slots(), 70u);
  ASSERT_EQ(bed.remove("big-blob-1"), Status::kOk);
  EXPECT_EQ(bed.ftl.live_slots(), 0u);
  EXPECT_EQ(bed.ftl.app_bytes_live(), 0u);
}

TEST(KvFtlBehavior, OverwriteShrinkReleasesSlots) {
  Bed bed;
  ASSERT_EQ(bed.store("resize-me", 10 * 1024, 1), Status::kOk);
  EXPECT_EQ(bed.ftl.live_slots(), 10u);
  ASSERT_EQ(bed.store("resize-me", 1 * 1024, 2), Status::kOk);
  EXPECT_EQ(bed.ftl.live_slots(), 1u);
  auto [s, v] = bed.retrieve("resize-me");
  EXPECT_EQ(v.size, 1024u);
  EXPECT_EQ(v.fingerprint, 2u);
}

TEST(KvFtlBehavior, StreamsKeepBlocksSingleStream) {
  KvFtlConfig cfg;
  cfg.write_streams = 2;
  Bed bed(cfg);
  // Burst interleaved streams, 4 KiB values (4 slots each).
  u64 oks = 0;
  for (u64 i = 0; i < 1200; ++i)
    bed.ftl.store(wl::make_key(i, 16), ValueDesc{4096, i},
                  [&](Status s) { oks += s == Status::kOk; }, (u8)(i % 2));
  bed.eq.run();
  EXPECT_EQ(oks, 1200u);
  // Every key readable, from either stream.
  for (u64 i = 0; i < 1200; i += 111) {
    auto [s, v] = bed.retrieve(wl::make_key(i, 16));
    ASSERT_EQ(s, Status::kOk) << i;
    ASSERT_EQ(v.fingerprint, i) << i;
  }
}

TEST(KvFtlBehavior, StreamsReduceWafUnderSkewedUpdates) {
  // Replicates ablation A5: 2 GiB device, 80% fill with 4 KiB values,
  // Zipf updates at QD 64, hint = hot decile of ranks. The separation
  // benefit is configuration-sensitive (it can invert when fill-block
  // reclamation dominates), so the test pins the validated A5 scenario.
  auto run = [](u32 streams) {
    ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
    dev.geometry.blocks_per_plane = 8;  // 2 GiB raw
    sim::EventQueue eq;
    flash::FlashController flash(eq, dev.geometry, dev.timing);
    KvFtlConfig cfg;
    cfg.write_streams = streams;
    cfg.expected_keys_hint = 400000;
    cfg.track_iterator_keys = false;
    KvFtl ftl(eq, flash, dev, cfg);
    const u64 keys = ftl.max_kvp_capacity() * 8 / 10 / 4;

    // Fill at bounded queue depth.
    u64 inflight = 0, issued = 0, completed = 0;
    std::function<void()> fill_pump = [&] {
      while (inflight < 64 && issued < keys) {
        const u64 id = issued++;
        ++inflight;
        ftl.store(wl::make_key(id, 16), ValueDesc{4096, id},
                  [&](Status) {
                    --inflight;
                    ++completed;
                    fill_pump();
                  });
      }
    };
    fill_pump();
    while (completed < keys && eq.step()) {
    }

    ZipfGenerator zipf(keys, 0.99);
    Rng rng(17);
    inflight = issued = completed = 0;
    std::function<void()> pump = [&] {
      while (inflight < 64 && issued < keys) {
        ++issued;
        ++inflight;
        const u64 rank = zipf.next(rng);
        const u64 id = scatter_rank(rank, keys);
        const u8 hint = streams > 1 && rank < keys / 10 ? 1 : 0;
        ftl.store(wl::make_key(id, 16), ValueDesc{4096, issued},
                  [&](Status) {
                    --inflight;
                    ++completed;
                    pump();
                  },
                  hint);
      }
    };
    pump();
    while (completed < keys && eq.step()) {
    }
    return ftl.stats().waf();
  };
  const double waf1 = run(1);
  const double waf2 = run(2);
  EXPECT_LT(waf2, waf1);
}

TEST(KvFtlBehavior, SpaceAccountingIdentity) {
  Bed bed;
  Rng rng(11);
  u64 expected_app = 0;
  for (u64 i = 0; i < 500; ++i) {
    const u32 vsize = (u32)rng.range(1, 30000);
    ASSERT_EQ(bed.store(wl::make_key(i, 16), vsize, i), Status::kOk);
    expected_app += 16 + vsize;
  }
  EXPECT_EQ(bed.ftl.app_bytes_live(), expected_app);
  // Device usage >= app bytes (padding) and includes the index footprint.
  EXPECT_GE(bed.ftl.device_bytes_used(),
            bed.ftl.live_slots() * 1024);
  EXPECT_GE(bed.ftl.device_bytes_used(), expected_app);
}

TEST(KvFtlBehavior, WasteTrackedWhenChunksDontFit) {
  Bed bed;
  // 20 KiB values (20 slots): two per page never fit (20+20 > 24), so
  // every page wastes 4 slots.
  for (u64 i = 0; i < 200; ++i)
    ASSERT_EQ(bed.store(wl::make_key(i, 16), 20 * 1024, i), Status::kOk);
  bed.flush();
  EXPECT_GT(bed.ftl.padding_waste_slots(), 150u);
}

TEST(KvFtlBehavior, ReadCacheHitsAndCoherence) {
  KvFtlConfig cfg;
  cfg.read_cache_bytes = 1 * MiB;
  Bed bed(cfg);
  ASSERT_EQ(bed.store("cached-1", 4096, 1), Status::kOk);
  bed.flush();
  (void)bed.retrieve("cached-1");  // miss: populates the cache
  const u64 hits0 = bed.ftl.read_cache_hits();
  const TimeNs t0 = bed.eq.now();
  auto [s, v] = bed.retrieve("cached-1");  // hit
  const TimeNs hit_lat = bed.eq.now() - t0;
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(bed.ftl.read_cache_hits(), hits0 + 1);
  EXPECT_LT(hit_lat, 60 * kUs);  // no tR in the path

  // Coherence: an overwrite must not serve the stale cached version.
  ASSERT_EQ(bed.store("cached-1", 4096, 2), Status::kOk);
  auto [s2, v2] = bed.retrieve("cached-1");
  EXPECT_EQ(s2, Status::kOk);
  EXPECT_EQ(v2.fingerprint, 2u);
}

TEST(KvFtlBehavior, ReadCacheBytesBounded) {
  KvFtlConfig cfg;
  cfg.read_cache_bytes = 64 * KiB;  // holds ~16 x 4 KiB blobs
  Bed bed(cfg);
  for (u64 i = 0; i < 64; ++i)
    ASSERT_EQ(bed.store(wl::make_key(i, 16), 4096, i), Status::kOk);
  bed.flush();
  for (u64 i = 0; i < 64; ++i) (void)bed.retrieve(wl::make_key(i, 16));
  // Second pass over all 64: most must still miss (only 16 fit).
  const u64 hits0 = bed.ftl.read_cache_hits();
  for (u64 i = 0; i < 64; ++i) (void)bed.retrieve(wl::make_key(i, 16));
  EXPECT_LT(bed.ftl.read_cache_hits() - hits0, 20u);
}

TEST(KvFtlBehavior, ReadCacheDisabledByDefault) {
  Bed bed;
  ASSERT_EQ(bed.store("no-cache-1", 4096, 1), Status::kOk);
  bed.flush();
  (void)bed.retrieve("no-cache-1");
  (void)bed.retrieve("no-cache-1");
  EXPECT_EQ(bed.ftl.read_cache_hits(), 0u);
}

TEST(KvFtlBehavior, GcChurnSpreadsWear) {
  Bed bed;
  const u64 keys = bed.ftl.max_kvp_capacity() * 7 / 10 / 4;
  u64 oks = 0;
  for (u64 i = 0; i < keys; ++i)
    bed.ftl.store(wl::make_key(i, 16), ValueDesc{4096, i},
                  [&](Status s) { oks += s == Status::kOk; });
  bed.eq.run();
  Rng rng(3);
  for (u64 op = 0; op < keys * 3; ++op) {
    bed.ftl.store(wl::make_key(rng.below(keys), 16), ValueDesc{4096, op},
                  [](Status) {});
    if (op % 128 == 0) bed.eq.run();
  }
  bed.eq.run();
  const auto& alloc = bed.ftl.allocator();
  ASSERT_GT(alloc.mean_erase_count(), 1.0);  // real churn happened
  // Static wear leveling keeps the hottest block within a small factor
  // of the mean.
  EXPECT_LT((double)alloc.max_erase_count(),
            alloc.mean_erase_count() * 4.0 + 4.0);
}

TEST(KvFtlBehavior, GcMigrationNeverDropsChunksWhenLanesOutnumberReserve) {
  // 8 GC lanes over a 4-block GC reserve on a 1 GiB device (256 blocks
  // of 4 MiB): uniform updates at QD 64 drive GC until its lanes hold the
  // whole reserve, so a migrated chunk's lane can find no fresh block. The
  // chunk must still land somewhere; an unplaced one would leave the index
  // pointing into the erased victim.
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  dev.geometry.blocks_per_plane = 4;
  sim::EventQueue eq;
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  KvFtlConfig cfg;
  cfg.expected_keys_hint = 400'000;
  cfg.track_iterator_keys = false;
  cfg.index.dram_bytes = 16 * MiB;
  KvFtl ftl(eq, flash, dev, cfg);
  const u64 keys = ftl.max_kvp_capacity() * 7 / 10 / 4;
  std::vector<u64> latest(keys);

  // Issue `total` ops at QD 64; `op(i, done)` issues op i.
  auto pump = [&](u64 total, const std::function<void(u64, sim::Task)>& op) {
    u64 issued = 0, completed = 0, inflight = 0;
    std::function<void()> refill = [&] {
      while (inflight < 64 && issued < total) {
        ++inflight;
        op(issued++, [&] {
          --inflight;
          ++completed;
          refill();
        });
      }
    };
    refill();
    while (completed < total && eq.step()) {
    }
    ASSERT_EQ(completed, total);
  };
  u64 failed = 0;
  auto put = [&](u64 id, u64 fp, sim::Task done) {
    latest[id] = fp;
    ftl.store(wl::make_key(id, 16), ValueDesc{4096, fp},
              [&failed, done = std::move(done)](Status s) mutable {
                failed += s != Status::kOk;
                done();
              });
  };
  pump(keys, [&](u64 i, sim::Task done) { put(i, i, std::move(done)); });
  Rng rng(7);
  pump(keys * 4 / 10, [&](u64 i, sim::Task done) {
    put(rng.below(keys), keys + i, std::move(done));
  });
  ASSERT_EQ(failed, 0u);
  bool flushed = false;
  ftl.flush([&] { flushed = true; });
  eq.run();
  ASSERT_TRUE(flushed);
  ASSERT_GT(ftl.stats().gc_runs, 0u);

  EXPECT_EQ(ftl.live_slots(), 4 * keys);
  u64 wrong = 0;
  pump(keys, [&](u64 id, sim::Task done) {
    ftl.retrieve(wl::make_key(id, 16), [&, id, done = std::move(done)](
                                           Status s, ValueDesc v) mutable {
      wrong += s != Status::kOk || v.fingerprint != latest[id];
      done();
    });
  });
  EXPECT_EQ(wrong, 0u);
  ftl.audit_verify();
}

TEST(KvFtlBehavior, FlushIsIdempotentAndQuiesces) {
  Bed bed;
  for (u64 i = 0; i < 50; ++i)
    ASSERT_EQ(bed.store(wl::make_key(i, 16), 2048, i), Status::kOk);
  bed.flush();
  const u64 programs = bed.flash.stats().page_programs;
  bed.flush();  // nothing left to seal
  EXPECT_EQ(bed.flash.stats().page_programs, programs);
}

}  // namespace
}  // namespace kvsim::kvftl
