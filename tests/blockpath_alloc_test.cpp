// Allocation-regression tests for the block-stack read path.
//
// A counting global allocator pins how many heap allocations one read
// costs once the path has warmed up: per-command state lives in pooled
// records (LsmStore lookups, BlockDevice commands, BlockFtl reads) whose
// event closures capture only {this, slot}, the caches are flat, SST
// lookups use the point index, and a one-extent file read goes straight
// to the device. The hashkv store keeps each op in a pooled record too,
// and its index and key lists hold record ids, not key copies. A count
// that grows means a per-op allocation crept back into the path. SSTs
// keep their keys in one arena per table, so building or merging tables
// allocates a fixed number of times per table, not once per key.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fs/file_system.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "lsm/sst.h"
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

// Per-op ceilings. The LSM lookup, the device read and the hashkv get and
// update allocate nothing: the hashkv store keeps the caller's callback
// and the record's value descriptor in a pooled op record.
constexpr unsigned long long kLsmGetAllocs = 0;
constexpr unsigned long long kDeviceReadAllocs = 0;
constexpr unsigned long long kHashKvGetAllocs = 0;
constexpr unsigned long long kHashKvUpdateAllocs = 0;

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

// A read that misses several distinct flash pages charges them in
// first-seen order from the pooled read's own page list, so once warm it
// allocates nothing either.
TEST(BlockPathAllocation, MultiPageDeviceRead) {
  BlockBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;
  BlockDirectBed bed(c);
  constexpr u64 kSlots = 512;
  constexpr u32 kSlotBytes = 4 * KiB;
  // Slots written in the order i * 17 (mod 512) are never sequential, so
  // they stripe over the write points: neighbouring slots sit on
  // different flash pages, and a page holds slots 32 apart.
  for (u64 i = 0; i < kSlots; ++i) {
    const u64 s = i * 17 % kSlots;
    bed.device().write(s * (kSlotBytes / 512), kSlotBytes, s,
                       [](Status st) { ASSERT_EQ(st, Status::kOk); });
    bed.eq().run();
  }
  bed.ftl().flush([] {});
  bed.eq().run();

  constexpr u32 kReadSlots = 4;  // below the readahead streak
  auto read = [&](u64 s) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    bed.device().read(s * (kSlotBytes / 512), kReadSlots * kSlotBytes,
                      [&out](Status st, u64) { out = st; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  // Reads 40 slots apart share no page with the read before them.
  for (u64 s = 0; s + kReadSlots <= kSlots; s += 40) read(s);  // warm-up
  const u64 flash_reads0 = bed.flash().stats().page_reads;
  u64 n = 0;
  for (u64 s = 20; s + kReadSlots <= kSlots; s += 40, ++n)
    EXPECT_LE(read(s), kDeviceReadAllocs) << "slot " << s;
  EXPECT_EQ(bed.flash().stats().page_reads - flash_reads0, kReadSlots * n);
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

// An update of a record on the device reads the old record before it
// acks (Aerospike's update path). Once the store's pools and lists are warm,
// it allocates nothing. Updates that flush a write block or start a
// defrag are left out: BlockFtl::write allocates its join and ::trim its
// completion closure.
TEST(BlockPathAllocation, HashKvUpdateThatReadsTheOldRecord) {
  HashKvBedConfig c;
  c.dev = small_dev();
  c.ftl.read_cache_pages = 4;
  HashKvBed bed(c);
  constexpr u64 kKeys = 6000;
  // 40 B header + 16 B key + 968 B value = 1 KiB: no record spans two
  // flash pages.
  constexpr u32 kValueBytes = 968;
  ASSERT_EQ(bed.store().record_device_bytes(kKeyBytes, kValueBytes), 1 * KiB);
  put_and_drain(bed, kKeys, kValueBytes);

  u64 version = kKeys;
  auto update = [&](u64 i) {
    Status out = Status::kIoError;
    const std::string k = wl::make_key(i, kKeyBytes);
    const auto before = g_allocs;
    bed.store().put(k, ValueDesc{kValueBytes, ++version},
                    [&out](Status s) { out = s; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  // Warm-up: uniform updates until defrag has recycled write blocks many
  // times, so the lists and pools are at their steady size; then a drain
  // puts every record on the device.
  Rng rng(3);
  for (u64 op = 0; op < 5 * kKeys; ++op) update(rng.below(kKeys));
  ASSERT_GT(bed.store().defrags_run(), 20u);
  bed.drain([] {});
  bed.eq().run();
  // Distinct keys spread over every write block, so few blocks fall to
  // the defrag threshold (a defrag re-stages records in RAM).
  u64 measured = 0;
  for (u64 op = 0; op < 100; ++op) {
    const ssd::FtlStats s0 = bed.ftl().stats();
    const u64 defrags0 = bed.store().defrags_run();
    const auto allocs = update((op * 59 + 7) % kKeys);
    const ssd::FtlStats& s1 = bed.ftl().stats();
    if (s1.host_read_ops != s0.host_read_ops + 1 ||
        s1.host_write_ops != s0.host_write_ops ||
        bed.store().defrags_run() != defrags0)
      continue;  // no read of the old record, or a flush or defrag ran
    ++measured;
    EXPECT_LE(allocs, kHashKvUpdateAllocs) << "update " << op;
  }
  EXPECT_GE(measured, 80u);
}

// Four tenants on WRR-weighted NVMe queues, reading open loop: reads
// park in the submission rings and the store's op pool serves each.
// Once warm, N reads allocate what 2N do, so none allocates per op.
// Updates run only in the warm-up: a write-block flush and a defrag trim
// allocate in BlockFtl::write and ::trim, below the store. Records are
// exactly 1 KiB, so no read spans two flash pages. Both timed runs fit
// in one 100 ms bandwidth window of the run's result.
TEST(BlockPathAllocation, WarmOpenLoopHashKvTenantsAllocateNothingPerOp) {
  HashKvBedConfig c;
  c.dev = small_dev();
  c.nvme.num_queues = 4;
  c.nvme.queue_weights = {1, 2, 4, 8};
  HashKvBed bed(c);
  constexpr u64 kKeys = 512;
  // 40 B header + 2 B tenant tag + 16 B key + 966 B value = 1 KiB.
  constexpr u32 kValueBytes = 966;
  ASSERT_EQ(bed.store().record_device_bytes(2 + kKeyBytes, kValueBytes),
            1 * KiB);
  TimeNs elapsed = 0;
  auto run = [&](u64 ops_per_tenant, wl::OpMix ops) {
    wl::TenantMix m;
    for (u32 t = 0; t < 4; ++t) {
      wl::WorkloadSpec s;
      s.num_ops = ops_per_tenant;
      s.key_space = kKeys;
      s.key_bytes = kKeyBytes;
      s.value_bytes = kValueBytes;
      s.mix = ops;
      s.seed = 11 + t;
      s.arrival.kind = wl::ArrivalKind::kPoisson;
      s.arrival.rate_ops_per_sec = 20'000;
      s.arrival.max_inflight = 16;
      m.tenants.push_back(wl::TenantSpec{
          .spec = s, .weight = 1u << t, .queue = t, .nsid = (u8)(t + 1)});
    }
    RunOptions opts;
    opts.telemetry = false;
    const auto before = g_allocs;
    const MixResult r = run_mix(bed, m, opts);
    EXPECT_EQ(r.combined.ops, 4 * ops_per_tenant);
    elapsed = r.combined.elapsed;
    return g_allocs - before;
  };
  run(kKeys, wl::OpMix::insert_only());
  for (int i = 0; i < 8; ++i) run(2000, wl::OpMix{0, 0.3, 0.7, 0});
  ASSERT_GT(bed.store().defrags_run(), 0u);
  const wl::OpMix reads = wl::OpMix::read_only();
  run(500, reads);  // warm-up
  u64 sq_max = 0;
  for (u32 q = 0; q < 4; ++q)
    sq_max = std::max(sq_max, bed.link().queue_stats(q).max_occupancy);
  EXPECT_GT(sq_max, 1u) << "no read waited in a submission ring";
  const auto n = run(250, reads);
  EXPECT_EQ(run(500, reads), n) << "the run allocated per op";
  EXPECT_LT(elapsed, 100 * kMs);
}

// Every journal_every_ops-th metadata op of the file system also writes
// the journal block. The journal write's completion holds only the
// caller's join, so beyond the device write itself it allocates nothing:
// a warm append that journals allocates what a plain append and a bare
// one-block device write do together.
TEST(BlockPathAllocation, JournalingAppendAddsOnlyItsDeviceWrite) {
  BlockBedConfig c;
  c.dev = small_dev();
  BlockDirectBed bed(c);
  fs::FileSystem fs(bed.eq(), bed.device());
  const fs::FileSystem::Handle h = fs.create("log");
  auto append = [&] {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    fs.append(h, 4 * KiB, 1, [&out](Status s) { out = s; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  auto device_write = [&](Lba lba) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    bed.device().write(lba, 4 * KiB, 1, [&out](Status s) { out = s; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  for (int i = 0; i < 64; ++i) append();  // warm-up
  const Lba spare = fs.used_bytes() / 512 + 1024;  // past every extent
  device_write(spare);
  const auto write_allocs = device_write(spare);
  u64 journaled = 0;
  unsigned long long plain = ~0ull;
  for (int i = 0; i < 32; ++i) {
    const u64 journal0 = fs.journal_writes();
    const auto allocs = append();
    if (fs.journal_writes() == journal0) {
      plain = std::min(plain, allocs);
      continue;
    }
    ++journaled;
    ASSERT_NE(plain, ~0ull) << "no plain append before the journal write";
    EXPECT_LE(allocs, plain + write_allocs) << "append " << i;
  }
  EXPECT_EQ(journaled, 4u);
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

// --- SST build and compaction merge ---------------------------------------

// A table makes a fixed number of allocations whatever its size: its
// entries, key arena, key hashes, point index, Bloom filter and the shared
// table itself. A merge adds its table, cursor, pick, cut and output
// lists to that count per output table. Keys are 18 bytes, past
// std::string's inline buffer, so a per-key allocation would show.
constexpr unsigned long long kSstBuildAllocs = 6;
constexpr unsigned long long kSstMergeAllocs = 5;

std::vector<std::string> table_keys(u64 n, u64 stride, u64 first) {
  std::vector<std::string> keys;
  for (u64 i = 0; i < n; ++i)
    keys.push_back(wl::make_key(first + i * stride, 18));
  return keys;
}

std::shared_ptr<lsm::Sst> build_table(u64 id,
                                      const std::vector<std::string>& keys,
                                      u64 seq) {
  u64 key_bytes = 0;
  for (const std::string& k : keys) key_bytes += k.size();
  lsm::SstBuilder b;
  b.reserve(keys.size(), key_bytes);
  for (const std::string& k : keys) b.add(k, ValueDesc{1024, seq}, seq, false);
  return b.finish(id);
}

TEST(BlockPathAllocation, SstBuildIsFixedWhateverItsSize) {
  for (u64 n : {10ull, 1000ull, 100000ull}) {
    const std::vector<std::string> keys = table_keys(n, 1, 0);
    const auto before = g_allocs;
    const auto sst = build_table(1, keys, 1);
    EXPECT_EQ(g_allocs - before, kSstBuildAllocs) << n << " entries";
    EXPECT_EQ(sst->entries.size(), n);
  }
}

TEST(BlockPathAllocation, SstMergeIsFixedPerOutputTable) {
  for (u64 n : {10ull, 1000ull, 100000ull}) {
    // Two overlapping L0-style tables over a run of two disjoint ones.
    const std::vector<std::shared_ptr<lsm::Sst>> inputs = {
        build_table(1, table_keys(n, 2, 0), 3),
        build_table(2, table_keys(n, 3, 0), 2),
        build_table(3, table_keys(n, 1, 0), 1),
        build_table(4, table_keys(n, 1, n), 1)};
    for (const u64 target : {~u64{0}, u64{256 * KiB}}) {
      u64 next_id = 10;
      const auto before = g_allocs;
      const auto out = lsm::merge_ssts(inputs, false, target, next_id);
      const auto allocs = g_allocs - before;
      if (target == ~u64{0}) {
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(allocs, kSstMergeAllocs + kSstBuildAllocs) << n;
      } else {
        EXPECT_LE(allocs, kSstMergeAllocs + kSstBuildAllocs * out.size())
            << n << " entries per input, " << out.size() << " tables";
      }
      // Keys 0 .. 2n-1, then the multiples of 3 up to 3n-3.
      u64 entries = 0, want = 2 * n;
      for (const auto& t : out) entries += t->entries.size();
      for (u64 i = 0; i < n; ++i) want += 3 * i >= 2 * n;
      EXPECT_EQ(entries, want);
    }
  }
}

}  // namespace
}  // namespace kvsim::harness
