// Tests for the mini-Aerospike hash-index store.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/stacks.h"
#include "hashkv/key_index.h"
#include "workload/workload.h"

namespace kvsim::hashkv {
namespace {

harness::HashKvBedConfig small_bed_cfg() {
  harness::HashKvBedConfig c;
  c.dev.geometry.channels = 2;
  c.dev.geometry.dies_per_channel = 2;
  c.dev.geometry.planes_per_die = 2;
  c.dev.geometry.blocks_per_plane = 8;
  c.dev.geometry.pages_per_block = 16;  // 32 MiB raw
  return c;
}

struct Bed {
  harness::HashKvBed bed{small_bed_cfg()};

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

TEST(HashKv, PutGetRoundTrip) {
  Bed b;
  EXPECT_EQ(b.put("user1", 100, 5), Status::kOk);
  auto [s, v] = b.get("user1");
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.size, 100u);
  EXPECT_EQ(v.fingerprint, 5u);
}

TEST(HashKv, GetMissing) {
  Bed b;
  EXPECT_EQ(b.get("ghost").first, Status::kNotFound);
}

TEST(HashKv, GetAfterFlushReadsDevice) {
  Bed b;
  // Fill past one write block so records reach the device.
  for (u64 i = 0; i < 100; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 4096, i), Status::kOk);
  b.drain();
  const u64 reads_before = b.bed.ftl().stats().host_read_ops;
  auto [s, v] = b.get(wl::make_key(5, 12));
  EXPECT_EQ(s, Status::kOk);
  EXPECT_EQ(v.fingerprint, 5u);
  EXPECT_GT(b.bed.ftl().stats().host_read_ops, reads_before);
}

TEST(HashKv, OverwriteAndDelete) {
  Bed b;
  EXPECT_EQ(b.put("user1", 100, 1), Status::kOk);
  EXPECT_EQ(b.put("user1", 200, 2), Status::kOk);
  EXPECT_EQ(b.get("user1").second.fingerprint, 2u);
  EXPECT_EQ(b.del("user1"), Status::kOk);
  EXPECT_EQ(b.get("user1").first, Status::kNotFound);
  EXPECT_EQ(b.del("user1"), Status::kNotFound);
  EXPECT_EQ(b.bed.store().record_count(), 0u);
}

TEST(HashKv, RecordRoundingMatchesAerospikeModel) {
  Bed b;
  // header 40 + key 16 + value 50 = 106 -> 112 after 16 B alignment.
  EXPECT_EQ(b.bed.store().record_device_bytes(16, 50), 112u);
  // Space amp for 50 B values stays under 2 (Fig. 7's Aerospike line).
  EXPECT_LT(112.0 / 66.0, 2.0);
}

TEST(HashKv, UpdatesTriggerDefrag) {
  Bed b;
  const u64 keys = 400;
  Rng rng(3);
  for (u64 i = 0; i < keys; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 4096, i), Status::kOk);
  for (u64 op = 0; op < 4000; ++op)
    ASSERT_EQ(b.put(wl::make_key(rng.below(keys), 12), 4096, 1000 + op),
              Status::kOk);
  b.drain();
  EXPECT_GT(b.bed.store().defrags_run(), 0u);
  // All keys still readable with latest values.
  for (u64 i = 0; i < keys; ++i)
    EXPECT_EQ(b.get(wl::make_key(i, 12)).first, Status::kOk);
}

TEST(HashKv, DefragReclaimsSpace) {
  Bed b;
  const u64 keys = 500;
  Rng rng(5);
  for (u64 i = 0; i < keys; ++i)
    ASSERT_EQ(b.put(wl::make_key(i, 12), 4096, i), Status::kOk);
  for (u64 op = 0; op < 5000; ++op)
    ASSERT_EQ(b.put(wl::make_key(rng.below(keys), 12), 4096, op), Status::kOk);
  b.drain();
  // Device usage stays within a small multiple of live data despite 10x
  // the write volume.
  const double live = (double)b.bed.app_bytes_live();
  EXPECT_LT((double)b.bed.device_bytes_used(), live * 4.0);
}

TEST(HashKv, DataLargerThanWriteBlockRejected) {
  Bed b;
  EXPECT_EQ(b.put("user1", 256 * 1024, 1), Status::kInvalidArgument);
}

TEST(HashKv, ModelBasedRandomOps) {
  Bed b;
  std::map<std::string, u64> model;
  Rng rng(7);
  for (u64 op = 0; op < 3000; ++op) {
    const std::string k = wl::make_key(rng.below(300), 12);
    const double r = rng.uniform();
    if (r < 0.5) {
      ASSERT_EQ(b.put(k, (u32)rng.range(1, 8000), op), Status::kOk);
      model[k] = op;
    } else if (r < 0.8) {
      auto [s, v] = b.get(k);
      auto it = model.find(k);
      if (it == model.end()) {
        ASSERT_EQ(s, Status::kNotFound);
      } else {
        ASSERT_EQ(s, Status::kOk);
        ASSERT_EQ(v.fingerprint, it->second);
      }
    } else {
      const Status s = b.del(k);
      ASSERT_EQ(s, model.count(k) ? Status::kOk : Status::kNotFound);
      model.erase(k);
    }
  }
}

// --- drain and a nearly full device -------------------------------------------

// Defrag can re-stage records after the drain's flush. The drain then
// flushes again: it calls back every round, on every seed.
TEST(HashKvDrain, CallsBackAfterDefragRestagesRecords) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    Bed b;
    constexpr u64 kKeys = 400;
    for (u64 i = 0; i < kKeys; ++i)
      ASSERT_EQ(b.put(wl::make_key(i, 12), 4096, i), Status::kOk);
    Rng rng(seed);
    for (u64 round = 0; round < 12; ++round) {
      u64 acked = 0;
      for (u64 op = 0; op < 64; ++op)
        b.bed.store(wl::make_key(rng.below(kKeys), 12),
                    ValueDesc{4096, 1000 + op},
                    [&acked](Status s) { acked += s == Status::kOk; });
      bool drained = false;
      b.bed.drain([&drained] { drained = true; });
      b.bed.eq().run();
      ASSERT_TRUE(drained) << "seed " << seed << " round " << round;
      ASSERT_EQ(acked, 64u);
      ASSERT_EQ(b.bed.store().record_count(), kKeys);
    }
  }
}

/// Fill `fill` of the device with 4 KiB values under 16 B keys, then run
/// `updates_per_key` uniform updates per key at QD 1. Defrag can reclaim
/// only blocks below its threshold, so updates that outrun it fill the
/// device, and the store refuses them. Throughout, the records fit the
/// device, every acked write reads back, and drain calls back.
void fill_and_update_near_full(double fill, u64 updates_per_key) {
  Bed b;
  const u64 capacity = b.bed.device().capacity_bytes();
  const u64 rec = b.bed.store().record_device_bytes(16, 4096);
  const u64 keys = (u64)(fill * (double)capacity) / rec;
  std::map<u64, u64> acked;  // key -> fingerprint
  for (u64 i = 0; i < keys; ++i) {
    ASSERT_EQ(b.put(wl::make_key(i, 16), 4096, i + 1), Status::kOk) << i;
    acked[i] = i + 1;
  }
  Rng rng(11);
  for (u64 op = 0; op < updates_per_key * keys; ++op) {
    const u64 k = rng.below(keys);
    const u64 fp = keys + op + 1;
    const Status s = b.put(wl::make_key(k, 16), 4096, fp);
    if (s == Status::kOk) {
      acked[k] = fp;
    } else {
      ASSERT_EQ(s, Status::kDeviceFull);
    }
    // The staged buffer always has a free write block to flush into, so
    // the store never holds more than the device does. A defrag that
    // found none used to stage records past the end of its block.
    ASSERT_LE(b.bed.store().device_bytes_used(), capacity) << "update " << op;
  }
  b.drain();
  EXPECT_EQ(b.bed.store().record_count(), keys);
  for (const auto& [k, fp] : acked) {
    auto [s, v] = b.get(wl::make_key(k, 16));
    ASSERT_EQ(s, Status::kOk) << k;
    ASSERT_EQ(v.fingerprint, fp) << k;
  }
}

// At 68% full, defrag used to append records past the end of its write
// block when no write block was free; from 69% the store wedged, with
// drain never calling back.
TEST(HashKvNearlyFull, DefragNeverOverrunsAWriteBlock) {
  fill_and_update_near_full(0.68, 40);
}
TEST(HashKvNearlyFull, DrainCallsBackOnceUpdatesFillTheDevice) {
  fill_and_update_near_full(0.72, 10);
}

// Fresh keys until the store refuses one: the staged buffer still has a
// write block to flush into, so drain calls back and every record reads.
TEST(HashKvNearlyFull, DrainCallsBackOnAFullDevice) {
  Bed b;
  u64 ok = 0;
  Status s = Status::kOk;
  for (u64 i = 0; s == Status::kOk; ++i) {
    s = b.put(wl::make_key(i, 16), 4096, i + 1);
    ok += s == Status::kOk;
  }
  EXPECT_EQ(s, Status::kDeviceFull);
  b.drain();
  EXPECT_EQ(b.bed.store().record_count(), ok);
  EXPECT_LE(b.bed.store().device_bytes_used(),
            b.bed.device().capacity_bytes());
  for (u64 i = 0; i < ok; i += 97)
    EXPECT_EQ(b.get(wl::make_key(i, 16)).second.fingerprint, i + 1);
}

// --- the primary index against a std::map model ------------------------------

// Keys whose hashes share their low 32 bits share a home slot and a tag,
// so only the key comparison tells them apart; erases shift the probe
// run back across the end of the slot array.
TEST(HashKvIndex, KeyComparisonSeparatesCollidingHashes) {
  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) keys.push_back("key" + std::to_string(i));
  auto key_of = [&](u32 id) -> std::string_view { return keys[id]; };
  auto hash = [](u32 id) { return ((u64)id << 32) | 0xffffffffull; };
  KeyIndex index;
  for (u32 id = 0; id < 40; ++id) {
    ASSERT_EQ(index.find(hash(id), keys[id], key_of), KeyIndex::kNone);
    index.insert(hash(id), id);
  }
  for (u32 id = 0; id < 40; ++id)
    EXPECT_EQ(index.find(hash(id), keys[id], key_of), id);
  for (u32 id = 0; id < 40; id += 3) index.erase(hash(id), id);
  EXPECT_EQ(index.size(), 26u);
  for (u32 id = 0; id < 40; ++id)
    EXPECT_EQ(index.find(hash(id), keys[id], key_of),
              id % 3 == 0 ? KeyIndex::kNone : id);
  index.clear();
  EXPECT_EQ(index.find(hash(1), keys[1], key_of), KeyIndex::kNone);
}


// Deletes and re-puts inside one buffer generation, then flush, defrag
// and a crash cut: every key reads its latest fingerprint, and the
// store's record count and live bytes match the model throughout.
TEST(HashKvIndex, MatchesAMapModelThroughDefragAndACrash) {
  harness::HashKvBedConfig c = small_bed_cfg();
  c.crash_tracking = true;
  harness::HashKvBed bed(c);
  std::map<std::string, std::pair<u32, u64>> model;  // key -> (vsize, fp)
  auto put = [&](const std::string& k, u32 vsize, u64 fp) {
    Status out = Status::kIoError;
    bed.store().put(k, ValueDesc{vsize, fp}, [&out](Status s) { out = s; });
    bed.eq().run();
    ASSERT_EQ(out, Status::kOk);
    model[k] = {vsize, fp};
  };
  auto del = [&](const std::string& k) {
    Status out = Status::kIoError;
    bed.store().del(k, [&out](Status s) { out = s; });
    bed.eq().run();
    ASSERT_EQ(out, model.erase(k) ? Status::kOk : Status::kNotFound);
  };
  auto drain = [&] {
    bool drained = false;
    bed.store().drain([&drained] { drained = true; });
    bed.eq().run();
    ASSERT_TRUE(drained);
  };
  auto check = [&](const char* when) {
    u64 bytes = 0;
    for (const auto& [k, v] : model) bytes += k.size() + v.first;
    EXPECT_EQ(bed.store().record_count(), model.size()) << when;
    EXPECT_EQ(bed.store().app_bytes_live(), bytes) << when;
    for (u64 i = 0; i < 320; ++i) {
      const std::string k = wl::make_key(i, 16);
      Status s = Status::kIoError;
      ValueDesc v;
      bed.store().get(k, [&](Status st, ValueDesc vd) {
        s = st;
        v = vd;
      });
      bed.eq().run();
      auto it = model.find(k);
      if (it == model.end()) {
        ASSERT_EQ(s, Status::kNotFound) << when << " " << k;
      } else {
        ASSERT_EQ(s, Status::kOk) << when << " " << k;
        ASSERT_EQ(v.fingerprint, it->second.second) << when << " " << k;
      }
    }
  };

  u64 fp = 0;
  for (u64 i = 0; i < 200; ++i) put(wl::make_key(i, 16), 2000, ++fp);
  drain();  // every record on the device
  check("after the fill");

  // One buffer generation: a device-resident key is deleted and re-put; a
  // staged key is deleted, a new key is put, and the staged key returns.
  const std::string on_device = wl::make_key(3, 16);
  const std::string staged = wl::make_key(250, 16);
  const std::string fresh = wl::make_key(251, 16);
  del(on_device);
  put(on_device, 300, ++fp);
  put(staged, 300, ++fp);
  del(staged);
  put(fresh, 300, ++fp);
  check("inside the generation");
  put(staged, 400, ++fp);
  del(wl::make_key(7, 16));
  check("before the flush");
  drain();
  check("after the flush");

  // Updates and deletes until defrag has rewritten blocks.
  Rng rng(5);
  while (bed.store().defrags_run() < 20) {
    const std::string k = wl::make_key(rng.below(320), 16);
    if (rng.below(8) == 0) {
      del(k);
    } else {
      put(k, (u32)rng.range(100, 6000), ++fp);
    }
  }
  check("after defrag");

  // Deletes are not durable, so re-put every deleted key before the cut:
  // then the drained state is exactly the model.
  for (u64 i = 0; i < 320; ++i)
    if (!model.count(wl::make_key(i, 16)))
      put(wl::make_key(i, 16), 500, ++fp);
  drain();
  const ssd::CrashOutcome out = bed.simulate_crash();
  EXPECT_EQ(out.lost_units, 0u);
  EXPECT_EQ(out.recovered_units, model.size());
  EXPECT_EQ(bed.store().op_pool_usage().live, 0u);
  check("after the crash");
  put(fresh, 700, ++fp);
  del(on_device);
  drain();
  check("after recovery");
}

// --- config validation: one seeded violation per rule -----------------------

/// The default config passes; `violate` breaks exactly one rule, which
/// both validate() and the store's constructor (via the bed) reject.
void expect_rejected(void (*violate)(HashKvConfig&)) {
  harness::HashKvBedConfig c = small_bed_cfg();
  EXPECT_NO_THROW(c.store.validate());
  violate(c.store);
  EXPECT_THROW(c.store.validate(), std::invalid_argument);
  EXPECT_THROW(harness::HashKvBed{c}, std::invalid_argument);
}

TEST(HashKvConfigValidate, RejectsRecordAlignNotAPowerOfTwo) {
  expect_rejected([](HashKvConfig& c) { c.record_align = 24; });
  expect_rejected([](HashKvConfig& c) { c.record_align = 0; });
}
TEST(HashKvConfigValidate, RejectsWriteBlockNotAMultipleOfTheSector) {
  expect_rejected([](HashKvConfig& c) { c.write_block_bytes = 100'000; });
  expect_rejected([](HashKvConfig& c) { c.read_sector_bytes = 0; });
  expect_rejected([](HashKvConfig& c) { c.write_block_bytes = 0; });
}
TEST(HashKvConfigValidate, RejectsDefragThresholdOutsideUnitInterval) {
  expect_rejected([](HashKvConfig& c) { c.defrag_threshold = -0.01; });
  expect_rejected([](HashKvConfig& c) { c.defrag_threshold = 1.01; });
  expect_rejected([](HashKvConfig& c) {
    c.defrag_threshold = std::numeric_limits<double>::quiet_NaN();
  });
}

TEST(HashKvConfigValidate, BoundaryValuesAreAccepted) {
  HashKvConfig c;
  c.record_align = 1;
  c.defrag_threshold = 0.0;
  EXPECT_NO_THROW(c.validate());
  c.defrag_threshold = 1.0;
  c.write_block_bytes = c.read_sector_bytes;
  EXPECT_NO_THROW(c.validate());
}

}  // namespace
}  // namespace kvsim::hashkv
