// Unit and behavioral tests for the block-SSD firmware model.
#include <gtest/gtest.h>

#include <map>

#include "blockftl/block_ftl.h"
#include "common/hash.h"
#include "common/rng.h"

namespace kvsim::blockftl {
namespace {

struct Bed {
  ssd::SsdConfig dev;
  sim::EventQueue eq;
  flash::FlashController flash;
  BlockFtl ftl;

  explicit Bed(ssd::SsdConfig d = tiny_device(), BlockFtlConfig cfg = {})
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

  Status write(Lba lba, u32 bytes, u64 fp) {
    Status out = Status::kIoError;
    ftl.write(lba, bytes, fp, [&](Status s) { out = s; });
    eq.run();
    return out;
  }
  std::pair<Status, u64> read(Lba lba, u32 bytes) {
    std::pair<Status, u64> out{Status::kIoError, 0};
    ftl.read(lba, bytes, [&](Status s, u64 fp) { out = {s, fp}; });
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

constexpr u32 k4K = 4 * KiB;
inline Lba lba_of_slot(u64 slot) { return slot * 8; }  // 4 KiB = 8 sectors

TEST(BlockFtl, RejectsInconsistentConfig) {
  ssd::SsdConfig dev = Bed::tiny_device();
  sim::EventQueue eq;
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  BlockFtlConfig cfg;
  cfg.logical_page_bytes = 3000;  // does not divide 32 KiB
  EXPECT_THROW((BlockFtl{eq, flash, dev, cfg}), std::invalid_argument);
}

TEST(BlockFtl, WriteReadRoundTrip) {
  Bed bed;
  EXPECT_EQ(bed.write(0, k4K, 77), Status::kOk);
  auto [s, fp] = bed.read(0, k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, mix64(77));
}

TEST(BlockFtl, MultiSlotFingerprintXor) {
  Bed bed;
  EXPECT_EQ(bed.write(0, 4 * k4K, 100), Status::kOk);
  auto [s, fp] = bed.read(0, 4 * k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, mix64(100) ^ mix64(101) ^ mix64(102) ^ mix64(103));
  // Partial read of the middle slots.
  auto [s2, fp2] = bed.read(lba_of_slot(1), 2 * k4K);
  EXPECT_EQ(s2, Status::kOk);
  EXPECT_EQ(fp2, mix64(101) ^ mix64(102));
}

TEST(BlockFtl, UnwrittenReadsAsZero) {
  Bed bed;
  auto [s, fp] = bed.read(lba_of_slot(100), k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, 0u);
}

TEST(BlockFtl, OverwriteKeepsLiveBytesConstant) {
  Bed bed;
  EXPECT_EQ(bed.write(0, k4K, 1), Status::kOk);
  const u64 live = bed.ftl.live_bytes();
  EXPECT_EQ(bed.write(0, k4K, 2), Status::kOk);
  EXPECT_EQ(bed.ftl.live_bytes(), live);
  auto [s, fp] = bed.read(0, k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, mix64(2));
}

TEST(BlockFtl, InvalidArguments) {
  Bed bed;
  EXPECT_EQ(bed.write(0, 0, 0), Status::kInvalidArgument);
  const Lba past_end = bed.ftl.exported_bytes() / 512 + 8;
  EXPECT_EQ(bed.write(past_end, k4K, 0), Status::kInvalidArgument);
}

TEST(BlockFtl, SubSlotWriteTriggersRmw) {
  Bed bed;
  EXPECT_EQ(bed.write(0, k4K, 1), Status::kOk);
  bed.flush();  // force the page out of the device buffer
  EXPECT_EQ(bed.ftl.stats().rmw_ops, 0u);
  EXPECT_EQ(bed.write(0, 512, 2), Status::kOk);  // 512 B into a mapped slot
  EXPECT_EQ(bed.ftl.stats().rmw_ops, 1u);
}

TEST(BlockFtl, SubSlotWriteToUnmappedSlotNoRmw) {
  Bed bed;
  EXPECT_EQ(bed.write(lba_of_slot(5), 512, 1), Status::kOk);
  EXPECT_EQ(bed.ftl.stats().rmw_ops, 0u);
}

TEST(BlockFtl, TrimInvalidatesFullSlots) {
  Bed bed;
  EXPECT_EQ(bed.write(0, 8 * k4K, 3), Status::kOk);
  const u64 live = bed.ftl.live_bytes();
  Status st = Status::kIoError;
  bed.ftl.trim(0, 8 * k4K, [&](Status s) { st = s; });
  bed.eq.run();
  EXPECT_EQ(st, Status::kOk);
  EXPECT_EQ(bed.ftl.live_bytes(), live - 8 * k4K);
  auto [s, fp] = bed.read(0, 8 * k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, 0u);
}

TEST(BlockFtl, TrimIgnoresPartialSlots) {
  Bed bed;
  EXPECT_EQ(bed.write(0, 2 * k4K, 3), Status::kOk);
  Status st = Status::kIoError;
  bed.ftl.trim(1, k4K, [&](Status s) { st = s; });  // covers no full slot
  bed.eq.run();
  EXPECT_EQ(st, Status::kOk);
  auto [s, fp] = bed.read(0, 2 * k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, mix64(3) ^ mix64(4));
}

TEST(BlockFtl, SequentialWritesFasterThanRandom) {
  // Sequential streams skip per-page reorganization and use cheap map
  // updates; measure mean ack latency over a sustained burst.
  auto run = [](bool seq) {
    Bed bed;
    Rng rng(5);
    const u64 slots = 2000;
    TimeNs total = 0;
    u64 done_ops = 0;
    for (u64 i = 0; i < slots; ++i) {
      const u64 slot = seq ? i : rng.below(4000);
      const TimeNs t0 = bed.eq.now();
      bed.ftl.write(lba_of_slot(slot), k4K, i, [&](Status s) {
        EXPECT_EQ(s, Status::kOk);
        total += bed.eq.now() - t0;
        ++done_ops;
      });
      bed.eq.run();
    }
    EXPECT_EQ(done_ops, slots);
    return (double)total / (double)slots;
  };
  const double seq_lat = run(true);
  const double rand_lat = run(false);
  EXPECT_LT(seq_lat, rand_lat);
}

TEST(BlockFtl, SequentialReadsBenefitFromReadahead) {
  Bed bed;
  for (u64 i = 0; i < 512; ++i)
    ASSERT_EQ(bed.write(lba_of_slot(i), k4K, i), Status::kOk);
  bed.flush();

  auto read_all = [&](bool seq) {
    Rng rng(9);
    TimeNs total = 0;
    for (u64 i = 0; i < 256; ++i) {
      const u64 slot = seq ? i : rng.below(512);
      const TimeNs t0 = bed.eq.now();
      bed.ftl.read(lba_of_slot(slot), k4K, [&](Status s, u64) {
        EXPECT_EQ(s, Status::kOk);
        total += bed.eq.now() - t0;
      });
      bed.eq.run();
    }
    return (double)total / 256.0;
  };
  const double rand_lat = read_all(false);
  const double seq_lat = read_all(true);
  EXPECT_LT(seq_lat, rand_lat * 0.8);
  EXPECT_GT(bed.ftl.cache_hits(), 0u);
}

TEST(BlockFtl, GarbageCollectionReclaimsAndPreservesData) {
  Bed bed;
  // Exported slots: 32 MiB * 0.93 / 4 KiB ~ 7618. Overwrite a 1000-slot
  // working set many times to force GC.
  std::map<u64, u64> expected;
  Rng rng(13);
  for (u64 op = 0; op < 20000; ++op) {
    const u64 slot = rng.below(1000);
    ASSERT_EQ(bed.write(lba_of_slot(slot), k4K, op), Status::kOk)
        << "op " << op;
    expected[slot] = op;
  }
  bed.flush();
  EXPECT_GT(bed.ftl.stats().gc_runs, 0u);
  EXPECT_GT(bed.ftl.stats().flash_bytes_written,
            bed.ftl.stats().host_bytes_written);
  // Every slot must still read back its last write.
  for (const auto& [slot, fp] : expected) {
    auto [s, got] = bed.read(lba_of_slot(slot), k4K);
    ASSERT_EQ(s, Status::kOk);
    ASSERT_EQ(got, mix64(fp)) << "slot " << slot;
  }
}

TEST(BlockFtl, TrimmedBlocksMakeGcFree) {
  Bed bed;
  // Write a large sequential region as one burst (so pages pack fully),
  // then trim it all: GC should find zero-valid victims (no migration).
  const u64 slots = 4000;
  auto burst_fill = [&](u64 fp_base) {
    u64 oks = 0;
    for (u64 i = 0; i < slots; ++i)
      bed.ftl.write(lba_of_slot(i), k4K, fp_base + i,
                    [&](Status s) { oks += s == Status::kOk; });
    bed.eq.run();
    EXPECT_EQ(oks, slots);
  };
  burst_fill(0);
  bed.flush();
  Status st = Status::kIoError;
  bed.ftl.trim(0, slots * k4K, [&](Status s) { st = s; });
  bed.eq.run();
  EXPECT_EQ(st, Status::kOk);
  // Now rewrite: GC victims are the TRIMmed blocks, so migration is
  // essentially free (a handful of slots from blocks that straddle the
  // old and new data, nothing proportional to the rewrite).
  burst_fill(100);
  bed.flush();
  EXPECT_LT(bed.ftl.stats().gc_migrated_units, slots / 20);
}

TEST(BlockFtl, WafIsOneForSingleSequentialFill) {
  Bed bed;
  // Issue the whole fill as one burst so pages fill completely (per-op
  // draining would trip the partial-page flush timer and pad pages).
  const u64 slots = 2048;
  u64 oks = 0;
  for (u64 i = 0; i < slots; ++i)
    bed.ftl.write(lba_of_slot(i), k4K, i,
                  [&](Status s) { oks += s == Status::kOk; });
  bed.eq.run();
  bed.flush();
  EXPECT_EQ(oks, slots);
  const auto& st = bed.ftl.stats();
  EXPECT_NEAR(st.waf(), 1.0, 0.05);
}

TEST(BlockFtl, FlushSealsPartialPages) {
  Bed bed;
  Status st = Status::kIoError;
  bed.ftl.write(0, k4K, 1, [&](Status s) { st = s; });
  // Run just far enough for the ack, but not the 2 ms idle-flush timer.
  bed.eq.run_until(1 * kMs);
  EXPECT_EQ(st, Status::kOk);
  const u64 before = bed.ftl.stats().flash_bytes_written;
  bool flushed = false;
  bed.ftl.flush([&] { flushed = true; });
  bed.eq.run();
  EXPECT_TRUE(flushed);
  EXPECT_GT(bed.ftl.stats().flash_bytes_written, before);
  auto [s, fp] = bed.read(0, k4K);
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(fp, mix64(1));
}

// A read that misses the DRAM cache joins its firmware-CPU slot and its
// flash fetch. With the CPU idle the fetch ends last, and its completion
// is the read's only event.
TEST(BlockFtl, ColdReadOnIdleCpuRunsOneEvent) {
  Bed bed;
  ASSERT_EQ(bed.write(0, k4K, 5), Status::kOk);
  bed.flush();
  const u64 events0 = bed.eq.events_processed();
  const TimeNs t0 = bed.eq.now();
  TimeNs done_at = 0;
  u64 got = 0;
  bed.ftl.read(0, k4K, [&](Status s, u64 fp) {
    EXPECT_EQ(s, Status::kOk);
    got = fp;
    done_at = bed.eq.now();
  });
  bed.eq.run();
  EXPECT_EQ(got, mix64(5));
  EXPECT_EQ(bed.eq.events_processed() - events0, 1u);
  const flash::FlashTiming& ft = bed.dev.timing;
  EXPECT_EQ(done_at, t0 + ft.read_page_ns + ft.transfer_ns(k4K));
  EXPECT_EQ(bed.ftl.cache_hits(), 0u);
}

// With the firmware CPU backed up past the fetch, the read completes when
// its CPU slot ends, and the fetched page is in the DRAM cache from the
// fetch's completion on.
TEST(BlockFtl, ColdReadBehindBusyCpuCompletesAtItsCpuSlot) {
  Bed bed;
  ASSERT_EQ(bed.write(0, k4K, 5), Status::kOk);
  bed.flush();
  const TimeNs t0 = bed.eq.now();
  // TRIMs of slots nothing wrote, issued at one instant, queue on the CPU.
  constexpr u32 kTrims = 100;
  const BlockFtlConfig cfg;
  for (u32 i = 0; i < kTrims; ++i)
    bed.ftl.trim(lba_of_slot(1000 + i), k4K, [](Status) {});
  TimeNs first_at = 0;
  bed.ftl.read(0, k4K, [&](Status s, u64 fp) {
    EXPECT_EQ(s, Status::kOk);
    EXPECT_EQ(fp, mix64(5));
    first_at = bed.eq.now();
  });
  const flash::FlashTiming& ft = bed.dev.timing;
  const TimeNs fetched = t0 + ft.read_page_ns + ft.transfer_ns(k4K);
  const TimeNs cpu_end =
      t0 + kTrims * cfg.trim_ns + bed.dev.firmware_dispatch_ns;
  ASSERT_GT(cpu_end, fetched + 10 * kUs);

  // Between the fetch's completion and the slot's end, the same page hits.
  bed.eq.run_until(fetched + 5 * kUs);
  EXPECT_EQ(first_at, 0);
  const u64 hits0 = bed.ftl.cache_hits(), lookups0 = bed.ftl.cache_lookups();
  TimeNs second_at = 0;
  bed.ftl.read(0, k4K, [&](Status s, u64 fp) {
    EXPECT_EQ(s, Status::kOk);
    EXPECT_EQ(fp, mix64(5));
    second_at = bed.eq.now();
  });
  EXPECT_EQ(bed.ftl.cache_hits() - hits0, 1u);
  EXPECT_EQ(bed.ftl.cache_lookups() - lookups0, 1u);
  bed.eq.run();
  EXPECT_EQ(first_at, cpu_end);
  EXPECT_EQ(second_at,
            cpu_end + bed.dev.firmware_dispatch_ns + cfg.cache_hit_ns);
}

}  // namespace
}  // namespace kvsim::blockftl
