// Allocation-regression tests for the KV-SSD command path.
//
// A counting global allocator pins how many heap allocations one command
// costs once the containers have warmed up: the blob table, index segment
// cache and buffered-page flags are flat, small-blob reads collect their
// page list inline, and the KV API and the FTL keep each command in a
// pooled record whose closures capture only {this, slot}. A count that
// grows means a per-op allocation crept back into the hot path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "harness/runner.h"
#include "harness/stacks.h"
#include "kvftl/kv_ftl.h"

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

namespace kvsim::kvftl {
namespace {

// Per-command ceilings: a warm command keeps its join, callback and key in
// a pooled record, so it allocates nothing.
constexpr unsigned long long kRetrieveAllocs = 0;
constexpr unsigned long long kStoreAllocs = 0;

struct Bed {
  ssd::SsdConfig dev;
  sim::EventQueue eq;
  flash::FlashController flash;
  KvFtl ftl;

  explicit Bed(KvFtlConfig cfg)
      : dev(device()), flash(eq, dev.geometry, dev.timing),
        ftl(eq, flash, dev, cfg) {}

  static ssd::SsdConfig device() {
    ssd::SsdConfig d;
    d.geometry.channels = 2;
    d.geometry.dies_per_channel = 2;
    d.geometry.planes_per_die = 2;
    d.geometry.blocks_per_plane = 8;
    d.geometry.pages_per_block = 16;  // 64 blocks, 32 MiB raw
    d.write_buffer_bytes = 2 * MiB;
    return d;
  }

  // Keys are 16 bytes: past std::string's inline capacity, like the
  // benchmark's keys, so every key copy would show up as an allocation.
  static std::string key(u64 i) {
    std::string k = "key-000000000000";
    for (int d = 15; i > 0 && d >= 4; --d, i /= 10) k[(size_t)d] = (char)('0' + i % 10);
    return k;
  }

  unsigned long long store(const std::string& k, u32 vsize) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    ftl.store(k, ValueDesc{vsize, vsize}, [&out](Status s) { out = s; });
    eq.run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  }
  unsigned long long retrieve(const std::string& k) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    ftl.retrieve(k, [&out](Status s, ValueDesc) { out = s; });
    eq.run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  }
  unsigned long long exist(const std::string& k) {
    bool found = false;
    const auto before = g_allocs;
    ftl.exist(k, [&found](Status, bool f) { found = f; });
    eq.run();
    EXPECT_TRUE(found);
    return g_allocs - before;
  }
  void flush() {
    ftl.flush([] {});
    eq.run();
  }
};

KvFtlConfig resident_index() {
  KvFtlConfig cfg;
  cfg.index.dram_bytes = 4 * MiB;  // every segment stays cached
  cfg.expected_keys_hint = 100000;
  return cfg;
}

TEST(KvFtlAllocation, IndexHitRetrieveOfPlacedBlob) {
  Bed bed(resident_index());
  for (u64 i = 0; i < 64; ++i) bed.store(Bed::key(i), 4 * KiB);
  bed.flush();  // every blob on flash: reads go to the dies
  for (u64 i = 0; i < 64; ++i) bed.retrieve(Bed::key(i));  // warm-up
  const u64 reads0 = bed.flash.stats().page_reads;
  for (u64 i = 0; i < 64; ++i)
    EXPECT_LE(bed.retrieve(Bed::key(i)), kRetrieveAllocs) << "key " << i;
  EXPECT_EQ(bed.flash.stats().page_reads - reads0, 64u);  // one-chunk reads
  EXPECT_EQ(bed.ftl.index().cached_segments(), bed.ftl.index().segments());
}

TEST(KvFtlAllocation, IndexHitOverwriteStore) {
#if KVSIM_AUDIT
  GTEST_SKIP() << "the shadow log auditor allocates per chunk placement";
#endif
  Bed bed(resident_index());
  // 1 KiB values: one slot each, so the warm-up grows the open blocks'
  // record lists well past what the measured overwrites append.
  for (int round = 0; round < 300; ++round) bed.store(Bed::key(round % 8), KiB);
  const u64 hits0 = bed.ftl.stats().host_write_ops;
  for (int round = 0; round < 48; ++round)
    EXPECT_LE(bed.store(Bed::key(round % 8), KiB), kStoreAllocs)
        << "round " << round;
  EXPECT_EQ(bed.ftl.stats().host_write_ops - hits0, 48u);
  EXPECT_EQ(bed.ftl.kvp_count(), 8u);
}

TEST(KvFtlAllocation, IndexMissWalkAddsNoAllocation) {
  KvFtlConfig cfg = resident_index();
  cfg.index.dram_bytes = 4 * KiB;          // one cached segment
  cfg.index.segment_split_threshold = 8;   // many segments: 3-level walks
  Bed bed(cfg);
  for (u64 i = 0; i < 2000; ++i) bed.store(Bed::key(i), KiB);
  bed.flush();
  ASSERT_GT(bed.ftl.index().segments(), 32u);  // past cap * f * f * 8

  const std::string a = Bed::key(1);
  std::string b;  // a key in another segment: looking it up evicts a's
  for (u64 i = 2; b.empty(); ++i)
    if (bed.ftl.index().segment_of(hash64(Bed::key(i))) !=
        bed.ftl.index().segment_of(hash64(a)))
      b = Bed::key(i);

  bed.exist(a);
  bed.exist(b);  // warm-up: both paths have run once
  bed.exist(a);
  const auto hit = bed.exist(a);  // a's segment is cached: no walk
  const u64 reads0 = bed.flash.stats().page_reads;
  const auto miss = bed.exist(b);  // b's segment was evicted: full walk
  EXPECT_EQ(bed.flash.stats().page_reads - reads0, 3u);
  EXPECT_EQ(miss, hit) << "the index level walk allocated";
}

}  // namespace
}  // namespace kvsim::kvftl

namespace kvsim::harness {
namespace {

KvssdBedConfig small_kvssd() {
  KvssdBedConfig c;
  c.dev = kvftl::Bed::device();
  c.ftl = kvftl::resident_index();
  return c;
}

// The KV API's four commands, warm, through the NVMe link and the FTL:
// the device record holds the key copy, the callback and the FTL's answer
// for the return leg, so no command allocates.
TEST(KvFtlAllocation, WarmDeviceCommandsAllocateNothing) {
#if KVSIM_AUDIT
  GTEST_SKIP() << "the shadow log auditor allocates per chunk placement";
#endif
  KvssdBed bed(small_kvssd());
  kvapi::KvsDevice& dev = bed.device();
  auto count = [&](auto issue) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    issue(out);
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  auto store = [&](const std::string& k) {
    return count([&](Status& out) {
      dev.store(k, ValueDesc{KiB, 7}, [&out](Status s) { out = s; });
    });
  };
  auto get = [&](const std::string& k) {
    return count([&](Status& out) {
      dev.retrieve(k, [&out](Status s, ValueDesc) { out = s; });
    });
  };
  auto exist = [&](const std::string& k) {
    return count([&](Status& out) {
      dev.exist(k, [&out](Status s, bool found) {
        out = found ? s : Status::kNotFound;
      });
    });
  };
  auto remove = [&](const std::string& k) {
    return count([&](Status& out) {
      dev.remove(k, [&out](Status s) { out = s; });
    });
  };
  for (u64 i = 0; i < 128; ++i) store(kvftl::Bed::key(i));
  // Warm-up: overwrites grow the open blocks' record lists past what the
  // measured ones append; every other command runs once.
  for (int round = 0; round < 300; ++round) store(kvftl::Bed::key(round % 8));
  get(kvftl::Bed::key(0));
  exist(kvftl::Bed::key(0));
  remove(kvftl::Bed::key(127));
  for (u64 i = 0; i < 48; ++i) {
    const std::string k = kvftl::Bed::key(i % 8);
    EXPECT_EQ(store(k), 0u) << "store " << i;
    EXPECT_EQ(get(k), 0u) << "retrieve " << i;
    EXPECT_EQ(exist(k), 0u) << "exist " << i;
  }
  for (u64 i = 64; i < 112; ++i)
    EXPECT_EQ(remove(kvftl::Bed::key(i)), 0u) << "remove " << i;
}

// The runner formats each op's key inline and its completion closures
// fit sim::Fn, so once the pools are warm a run's allocations are its
// fixed setup: N ops cost what 2N ops cost. (Telemetry is off: its slices
// grow with simulated time, not with ops; both runs fit in one 100 ms
// bandwidth window.)
TEST(KvFtlAllocation, WarmRunMixAllocatesNothingPerOp) {
#if KVSIM_AUDIT
  GTEST_SKIP() << "the shadow log auditor allocates per chunk placement";
#endif
  KvssdBed bed(small_kvssd());
  fill_stack(bed, 512, 16, KiB);
  TimeNs elapsed = 0;
  auto run = [&](u64 ops) {
    wl::WorkloadSpec s;
    s.num_ops = ops;
    s.key_space = 512;
    s.key_bytes = 16;
    s.value_bytes = KiB;
    s.mix = wl::OpMix{0, 0.5, 0.5, 0};
    s.queue_depth = 8;
    RunOptions opts;
    opts.telemetry = false;
    const auto before = g_allocs;
    const RunResult r = run_workload(bed, s, opts);
    EXPECT_EQ(r.ops, ops);
    elapsed = r.elapsed;
    return g_allocs - before;
  };
  // Warm-up: until GC has erased as many blocks as the device has, so
  // the pools and every block's record list are at their steady size.
  while (bed.flash().stats().block_erases <
         kvftl::Bed::device().geometry.total_blocks())
    run(8000);
  const auto n = run(1000);
  EXPECT_EQ(run(2000), n) << "the run allocated per op";
  EXPECT_LT(elapsed, 100 * kMs);
}

// Once warm, a retrieve through the KV bed (pooled host-op record, retry
// check) costs no allocation beyond the device command beneath it.
TEST(KvFtlAllocation, BedRetrieveAddsNothingToTheDeviceCommand) {
  KvssdBed bed(small_kvssd());
  for (u64 i = 0; i < 64; ++i)
    bed.store(kvftl::Bed::key(i), ValueDesc{4 * KiB, i + 1}, [](Status) {});
  bed.drain([] {});
  bed.eq().run();

  auto count = [&](auto issue) {
    Status out = Status::kIoError;
    const auto before = g_allocs;
    issue([&out](Status s, ValueDesc) { out = s; });
    bed.eq().run();
    EXPECT_EQ(out, Status::kOk);
    return g_allocs - before;
  };
  auto bed_get = [&](const std::string& k) {
    return count([&](KvStack::RetrieveDone cb) {
      bed.retrieve(k, std::move(cb));
    });
  };
  auto dev_get = [&](const std::string& k) {
    return count([&](KvStack::RetrieveDone cb) {
      bed.device().retrieve(k, std::move(cb));
    });
  };
  for (u64 i = 0; i < 64; ++i) {  // warm-up
    bed_get(kvftl::Bed::key(i));
    dev_get(kvftl::Bed::key(i));
  }
  for (u64 i = 0; i < 64; ++i) {
    const std::string k = kvftl::Bed::key(i);
    const auto dev_allocs = dev_get(k);
    EXPECT_LE(bed_get(k), dev_allocs) << "key " << i;
  }
}

}  // namespace
}  // namespace kvsim::harness
