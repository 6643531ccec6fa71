// Tests for the extent-based filesystem over the block device.
#include <gtest/gtest.h>

#include <stdexcept>

#include "fs/file_system.h"
#include "harness/stacks.h"

namespace kvsim::fs {
namespace {

struct Bed {
  harness::BlockBedConfig cfg;
  harness::BlockDirectBed dev_bed;
  FileSystem fs;

  Bed()
      : cfg(make_cfg()),
        dev_bed(cfg),
        fs(dev_bed.eq(), dev_bed.device()) {}

  static harness::BlockBedConfig make_cfg() {
    harness::BlockBedConfig c;
    c.dev.geometry.channels = 2;
    c.dev.geometry.dies_per_channel = 2;
    c.dev.geometry.planes_per_die = 2;
    c.dev.geometry.blocks_per_plane = 8;
    c.dev.geometry.pages_per_block = 16;  // 32 MiB raw
    return c;
  }

  Status append(FileSystem::Handle h, u64 bytes, u64 fp = 1) {
    Status out = Status::kIoError;
    fs.append(h, bytes, fp, [&](Status s) { out = s; });
    dev_bed.eq().run();
    return out;
  }
  Status read(FileSystem::Handle h, u64 off, u64 bytes) {
    Status out = Status::kIoError;
    fs.read(h, off, bytes, [&](Status s, u64) { out = s; });
    dev_bed.eq().run();
    return out;
  }
  Status remove(FileSystem::Handle h) {
    Status out = Status::kIoError;
    fs.remove(h, [&](Status s) { out = s; });
    dev_bed.eq().run();
    return out;
  }
};

TEST(FileSystem, CreateLookup) {
  Bed bed;
  auto h = bed.fs.create("wal");
  EXPECT_EQ(bed.fs.lookup("wal"), h);
  EXPECT_EQ(bed.fs.lookup("missing"), FileSystem::kInvalidHandle);
}

TEST(FileSystem, AppendGrowsFile) {
  Bed bed;
  auto h = bed.fs.create("data");
  EXPECT_EQ(bed.append(h, 10 * KiB), Status::kOk);
  EXPECT_EQ(bed.fs.file_bytes(h), 10 * KiB);
  EXPECT_EQ(bed.append(h, 4 * KiB), Status::kOk);
  EXPECT_EQ(bed.fs.file_bytes(h), 14 * KiB);
}

TEST(FileSystem, ReadWithinFile) {
  Bed bed;
  auto h = bed.fs.create("data");
  ASSERT_EQ(bed.append(h, 1 * MiB), Status::kOk);
  EXPECT_EQ(bed.read(h, 0, 4 * KiB), Status::kOk);
  EXPECT_EQ(bed.read(h, 512 * KiB, 64 * KiB), Status::kOk);
  EXPECT_EQ(bed.read(h, 0, 1 * MiB), Status::kOk);
}

TEST(FileSystem, ReadPastEndFails) {
  Bed bed;
  auto h = bed.fs.create("data");
  ASSERT_EQ(bed.append(h, 8 * KiB), Status::kOk);
  EXPECT_EQ(bed.read(h, 64 * KiB, 8 * KiB), Status::kInvalidArgument);
}

TEST(FileSystem, RemoveFreesSpaceAndTrims) {
  Bed bed;
  const u64 before = bed.fs.used_bytes();
  auto h = bed.fs.create("data");
  ASSERT_EQ(bed.append(h, 4 * MiB), Status::kOk);
  EXPECT_GT(bed.fs.used_bytes(), before);
  const u64 live_before = bed.dev_bed.ftl().live_bytes();
  EXPECT_GT(live_before, 0u);
  ASSERT_EQ(bed.remove(h), Status::kOk);
  EXPECT_EQ(bed.fs.used_bytes(), before);
  EXPECT_LT(bed.dev_bed.ftl().live_bytes(), live_before);
  EXPECT_EQ(bed.read(h, 0, 4 * KiB), Status::kInvalidArgument);
}

TEST(FileSystem, SpaceExhaustionReportsDeviceFull) {
  Bed bed;
  auto h = bed.fs.create("hog");
  Status s = Status::kOk;
  for (int i = 0; i < 64 && s == Status::kOk; ++i)
    s = bed.append(h, 1 * MiB);
  EXPECT_EQ(s, Status::kDeviceFull);
  // The failed append must not leak partial extents: free space stable.
  const u64 free1 = bed.fs.free_bytes();
  EXPECT_EQ(bed.append(h, 1 * MiB), Status::kDeviceFull);
  EXPECT_EQ(bed.fs.free_bytes(), free1);
}

TEST(FileSystem, FreeListCoalesces) {
  Bed bed;
  auto a = bed.fs.create("a");
  auto b = bed.fs.create("b");
  auto c = bed.fs.create("c");
  ASSERT_EQ(bed.append(a, 1 * MiB), Status::kOk);
  ASSERT_EQ(bed.append(b, 1 * MiB), Status::kOk);
  ASSERT_EQ(bed.append(c, 1 * MiB), Status::kOk);
  ASSERT_EQ(bed.remove(a), Status::kOk);
  ASSERT_EQ(bed.remove(b), Status::kOk);
  ASSERT_EQ(bed.remove(c), Status::kOk);
  // After coalescing, a file larger than any single original extent fits.
  auto big = bed.fs.create("big");
  EXPECT_EQ(bed.append(big, 3 * MiB), Status::kOk);
}

TEST(FileSystem, JournalWritesHappen) {
  Bed bed;
  for (int i = 0; i < 20; ++i) {
    auto h = bed.fs.create(std::string("f").append(std::to_string(i)));
    ASSERT_EQ(bed.append(h, 4 * KiB), Status::kOk);
  }
  EXPECT_GT(bed.fs.journal_writes(), 0u);
}

TEST(FileSystem, CpuAccounted) {
  Bed bed;
  auto h = bed.fs.create("data");
  ASSERT_EQ(bed.append(h, 64 * KiB), Status::kOk);
  EXPECT_GT(bed.fs.host_cpu_ns(), 0u);
}

// One seeded violation per rule, each next to the boundary it must keep.
TEST(FsConfigValidate, RejectsEachBadKnob) {
  EXPECT_NO_THROW(FsConfig{}.validate());
  auto check = [](void (*set)(FsConfig&, u32), u32 v, bool ok) {
    FsConfig c;
    set(c, v);
    if (ok)
      EXPECT_NO_THROW(c.validate()) << v;
    else
      EXPECT_THROW(c.validate(), std::invalid_argument) << v;
  };
  auto block = [](FsConfig& c, u32 v) { c.block_bytes = v; };
  check(block, 512, true);
  check(block, 64 * KiB, true);
  check(block, 0, false);
  check(block, 511, false);
  check(block, 4 * KiB + 256, false);
  auto extent = [](FsConfig& c, u32 v) { c.max_extent_blocks = v; };
  check(extent, 1, true);
  check(extent, 0, false);
  auto journal = [](FsConfig& c, u32 v) { c.journal_every_ops = v; };
  check(journal, 1, true);
  check(journal, 0, false);
}

TEST(FsConfigValidate, ConstructorRejectsBadConfigAndTooSmallDevice) {
  harness::BlockDirectBed dev_bed(Bed::make_cfg());
  FsConfig bad;
  bad.journal_every_ops = 0;
  EXPECT_THROW(FileSystem(dev_bed.eq(), dev_bed.device(), bad),
               std::invalid_argument);
  // Block 0 is the journal, so a device needs at least two fs blocks.
  const u64 cap = dev_bed.device().capacity_bytes();
  FsConfig one;
  one.block_bytes = (u32)(cap / 512 * 512);  // exactly one block fits
  EXPECT_THROW(FileSystem(dev_bed.eq(), dev_bed.device(), one),
               std::invalid_argument);
  FsConfig two;
  two.block_bytes = (u32)(cap / 2 / 512 * 512);
  FileSystem fs(dev_bed.eq(), dev_bed.device(), two);
  EXPECT_EQ(fs.free_bytes() + fs.used_bytes(),
            cap / two.block_bytes * two.block_bytes);
}

}  // namespace
}  // namespace kvsim::fs
