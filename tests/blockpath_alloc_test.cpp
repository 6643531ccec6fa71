// Allocation-regression tests for the block-stack read path.
//
// A counting global allocator pins how many heap allocations one read
// costs once the path has warmed up: per-command state lives in pooled
// records (LsmStore lookups, BlockDevice commands, BlockFtl reads) whose
// event closures capture only {this, slot}, the caches are flat, SST
// lookups use the point index, and a one-extent file read goes straight
// to the device. A count that grows means a per-op allocation crept back
// into the path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "harness/stacks.h"
#include "workload/workload.h"

// --- counting global allocator ---------------------------------------------
namespace {
unsigned long long g_allocs = 0;  // tests are single-threaded
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace kvsim::harness {
namespace {

// Per-read ceilings. The LSM lookup and the device read allocate nothing.
// A hashkv read allocates the closure its device read completes into: it
// owns the caller's callback and the record's value descriptor, more than
// sim::Fn's inline buffer holds.
constexpr unsigned long long kLsmGetAllocs = 0;
constexpr unsigned long long kDeviceReadAllocs = 0;
constexpr unsigned long long kHashKvGetAllocs = 1;

// Keys are 16 bytes: past std::string's inline capacity, like the
// benchmark's keys, so every key copy shows up as an allocation.
constexpr u32 kKeyBytes = 16;

ssd::SsdConfig small_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 16;
  d.geometry.pages_per_block = 16;  // 64 MiB raw
  return d;
}

template <typename Bed>
void put_and_drain(Bed& bed, u64 keys, u32 value_bytes) {
  for (u64 i = 0; i < keys; ++i) {
    bed.store(wl::make_key(i, kKeyBytes), ValueDesc{value_bytes, i + 1},
              [](Status s) { ASSERT_EQ(s, Status::kOk); });
    bed.eq().run();
  }
  bed.drain([] {});
  bed.eq().run();
}

TEST(BlockPathAllocation, LsmGetThatReadsOneDataBlock) {
  LsmBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;  // device reads go to the dies
  c.lsm.memtable_bytes = 256 * KiB;
  c.lsm.l1_target_bytes = 1 * MiB;
  c.lsm.sst_target_bytes = 512 * KiB;
  c.lsm.block_cache_bytes = 16 * 4 * KiB;
  LsmBed bed(c);
  constexpr u64 kKeys = 2000;
  put_and_drain(bed, kKeys, 1 * KiB);

  // Keys 7 apart sit in different 4 KiB data blocks, and the 16-block
  // cache never holds one again before the stride comes back round.
  auto get = [&](u64 i) {
    Status out = Status::kIoError;
    const std::string k = wl::make_key(i, kKeyBytes);
    const auto before = g_allocs;
    bed.store().get(k, [&out](Status s, ValueDesc) { out = s; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  for (u64 i = 0; i < kKeys; i += 7) get(i);  // warm-up
  const u64 lookups0 = bed.store().block_cache_lookups();
  const u64 hits0 = bed.store().block_cache_hits();
  const u64 reads0 = bed.ftl().stats().host_read_ops;
  u64 n = 0;
  for (u64 i = 3; i < kKeys; i += 7, ++n)
    EXPECT_LE(get(i), kLsmGetAllocs) << "key " << i;
  EXPECT_EQ(bed.store().block_cache_lookups() - lookups0, n);
  EXPECT_EQ(bed.store().block_cache_hits() - hits0, 0u);
  EXPECT_EQ(bed.ftl().stats().host_read_ops - reads0, n);  // one read each
}

TEST(BlockPathAllocation, OneSlotDeviceRead) {
  BlockBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;
  BlockDirectBed bed(c);
  constexpr u64 kSlots = 512;
  constexpr u32 kSlotBytes = 4 * KiB;
  for (u64 s = 0; s < kSlots; ++s) {
    bed.device().write(s * (kSlotBytes / 512), kSlotBytes, s,
                       [](Status st) { ASSERT_EQ(st, Status::kOk); });
    bed.eq().run();
  }
  bed.ftl().flush([] {});
  bed.eq().run();

  auto read = [&](u64 s) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    bed.device().read(s * (kSlotBytes / 512), kSlotBytes,
                      [&out](Status st, u64) { out = st; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  // Slots 17 apart land on different flash pages (8 slots per page).
  for (u64 s = 0; s < kSlots; s += 17) read(s);  // warm-up
  const u64 flash_reads0 = bed.flash().stats().page_reads;
  u64 n = 0;
  for (u64 s = 5; s < kSlots; s += 17, ++n)
    EXPECT_LE(read(s), kDeviceReadAllocs) << "slot " << s;
  EXPECT_EQ(bed.flash().stats().page_reads - flash_reads0, n);
}

TEST(BlockPathAllocation, HashKvGetFromDevice) {
  HashKvBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;
  HashKvBed bed(c);
  constexpr u64 kKeys = 600;
  put_and_drain(bed, kKeys, 1 * KiB);

  auto get = [&](u64 i) {
    Status out = Status::kIoError;
    const std::string k = wl::make_key(i, kKeyBytes);
    const auto before = g_allocs;
    bed.store().get(k, [&out](Status s, ValueDesc) { out = s; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  for (u64 i = 0; i < kKeys; i += 5) get(i);  // warm-up
  const u64 reads0 = bed.ftl().stats().host_read_ops;
  u64 n = 0;
  for (u64 i = 2; i < kKeys; i += 5, ++n)
    EXPECT_LE(get(i), kHashKvGetAllocs) << "key " << i;
  EXPECT_EQ(bed.ftl().stats().host_read_ops - reads0, n);  // all on device
}

// --- the bed above the store -------------------------------------------------

/// Allocations of one read issued by `issue`, run to completion.
template <typename Bed, typename Issue>
unsigned long long read_allocs(Bed& bed, Issue issue) {
  Status out = Status::kIoError;
  const auto before = g_allocs;
  issue([&out](Status s, ValueDesc) { out = s; });
  bed.eq().run();
  EXPECT_EQ(out, Status::kOk);
  return g_allocs - before;
}

/// Once warm, a read through the bed (pooled host-op record, retry check)
/// costs no allocation beyond the store read beneath it. Reads alternate
/// between the two paths over the same keys.
template <typename Bed>
void expect_bed_read_adds_nothing(Bed& bed, u64 keys, u64 stride) {
  auto bed_get = [&](const std::string& k) {
    return read_allocs(bed, [&](KvStack::RetrieveDone cb) {
      bed.retrieve(k, std::move(cb));
    });
  };
  auto store_get = [&](const std::string& k) {
    return read_allocs(bed, [&](KvStack::RetrieveDone cb) {
      bed.store().get(k, std::move(cb));
    });
  };
  for (u64 i = 0; i < keys; i += stride) {  // warm-up
    bed_get(wl::make_key(i, kKeyBytes));
    store_get(wl::make_key(i, kKeyBytes));
  }
  for (u64 i = 1; i < keys; i += stride) {
    const std::string a = wl::make_key(i, kKeyBytes);
    const std::string b = wl::make_key(i + stride / 2, kKeyBytes);
    const auto store_allocs = store_get(a);
    EXPECT_LE(bed_get(b), store_allocs) << "key " << i;
  }
}

TEST(BlockPathAllocation, LsmBedRetrieveAddsNothingToTheStoreGet) {
  LsmBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;
  c.lsm.memtable_bytes = 256 * KiB;
  c.lsm.l1_target_bytes = 1 * MiB;
  c.lsm.sst_target_bytes = 512 * KiB;
  c.lsm.block_cache_bytes = 16 * 4 * KiB;
  LsmBed bed(c);
  put_and_drain(bed, 2000, 1 * KiB);
  expect_bed_read_adds_nothing(bed, 2000, 14);
}

TEST(BlockPathAllocation, HashKvBedRetrieveAddsNothingToTheStoreGet) {
  HashKvBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;
  HashKvBed bed(c);
  put_and_drain(bed, 600, 1 * KiB);
  expect_bed_read_adds_nothing(bed, 600, 10);
}

}  // namespace
}  // namespace kvsim::harness
