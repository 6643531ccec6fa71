// Tests for the mini-Aerospike hash-index store.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>

#include "common/rng.h"
#include "harness/stacks.h"
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
