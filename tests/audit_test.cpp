// KVSIM_AUDIT: the auditor classes compile in every build, so every
// seeded-violation test here runs regardless of the CMake option. The
// end-to-end tests exercise the real FTL hook wiring; when KVSIM_AUDIT
// is OFF audit_verify() is a no-op and they degrade to smoke tests.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "blockftl/block_ftl.h"
#include "common/rng.h"
#include "flash/controller.h"
#include "kvftl/kv_ftl.h"
#include "lsm/sst.h"
#include "ssd/audit.h"
#include "ssd/ftl_core.h"
#include "ssd/telemetry.h"

namespace kvsim {
namespace {

flash::FlashGeometry tiny_geom() {
  flash::FlashGeometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 1;
  g.blocks_per_plane = 8;
  g.pages_per_block = 8;
  return g;
}

// ---------------------------------------------------------------------------
// FlashAudit: NAND legality state machine
// ---------------------------------------------------------------------------

TEST(FlashAudit, InOrderProgramEraseCycleIsLegal) {
  ssd::FlashAudit a(tiny_geom());
  const auto g = tiny_geom();
  a.on_program(g.page_id(3, 0));
  a.on_program(g.page_id(3, 1));
  a.on_program(g.page_id(3, 2));
  a.on_read(g.page_id(3, 2), 4096);
  EXPECT_EQ(a.programmed_pages(3), 3u);
  a.on_erase(3);
  EXPECT_EQ(a.programmed_pages(3), 0u);
  a.on_program(g.page_id(3, 0));  // reuse after erase is fine
}

TEST(FlashAudit, DetectsReprogramWithoutErase) {
  ssd::FlashAudit a(tiny_geom());
  const auto g = tiny_geom();
  a.on_program(g.page_id(5, 0));
  EXPECT_THROW(a.on_program(g.page_id(5, 0)), ssd::AuditFailure);
}

TEST(FlashAudit, DetectsOutOfOrderProgram) {
  ssd::FlashAudit a(tiny_geom());
  const auto g = tiny_geom();
  a.on_program(g.page_id(5, 0));
  EXPECT_THROW(a.on_program(g.page_id(5, 2)), ssd::AuditFailure);
}

TEST(FlashAudit, DetectsReadOfErasedPage) {
  ssd::FlashAudit a(tiny_geom());
  const auto g = tiny_geom();
  EXPECT_THROW(a.on_read(g.page_id(7, 0), 4096), ssd::AuditFailure);
  a.on_program(g.page_id(7, 0));
  a.on_read(g.page_id(7, 0), 4096);  // now legal
  EXPECT_THROW(a.on_read(g.page_id(7, 1), 4096), ssd::AuditFailure);
}

TEST(FlashAudit, ExemptBlocksSkipLegality) {
  ssd::FlashAudit a(tiny_geom());
  const auto g = tiny_geom();
  a.set_exempt(4);
  EXPECT_TRUE(a.exempt(4));
  // Index-charge traffic: reads of never-programmed pages and round-robin
  // reprograms are the model, not a bug.
  a.on_read(g.page_id(4, 3), 4096);
  a.on_program(g.page_id(4, 2));
  a.on_program(g.page_id(4, 2));
  a.set_exempt(4, false);
  EXPECT_THROW(a.on_read(g.page_id(4, 3), 4096), ssd::AuditFailure);
}

// The controller hook fires on the mutation path itself, so an illegal
// call fails fast even in non-audit builds once a sink is attached.
TEST(FlashAudit, ControllerHookFailsFastOnIllegalTraffic) {
  sim::EventQueue eq;
  ssd::SsdConfig dev;
  dev.geometry = tiny_geom();
  flash::FlashController ctrl(eq, dev.geometry, dev.timing);
  ssd::FlashAudit audit(dev.geometry);
  ctrl.set_audit(&audit);
  const auto g = dev.geometry;

  ctrl.program_page(g.page_id(0, 0), g.page_bytes, [] {});
  ctrl.read_page(g.page_id(0, 0), 4096, [] {});
  EXPECT_THROW(ctrl.program_page(g.page_id(0, 2), g.page_bytes, [] {}),
               ssd::AuditFailure);
  EXPECT_THROW(ctrl.read_page(g.page_id(1, 0), 4096, [] {}),
               ssd::AuditFailure);
  ctrl.erase_block(0, [] {});
  ctrl.program_page(g.page_id(0, 0), g.page_bytes, [] {});  // legal again

  ctrl.set_audit(nullptr);  // detached: controller stops checking
  ctrl.read_page(g.page_id(1, 0), 4096, [] {});
  eq.run();
}

// ---------------------------------------------------------------------------
// SlotMapAudit: block-FTL mapping shadow
// ---------------------------------------------------------------------------

TEST(SlotMapAudit, DetectsRemapWithoutInvalidate) {
  ssd::SlotMapAudit a(/*total_blocks=*/8, /*slots_per_block=*/16);
  a.on_map(1, 100);
  EXPECT_THROW(a.on_map(1, 101), ssd::AuditFailure);
}

TEST(SlotMapAudit, DetectsTwoLpnsOnOneSlot) {
  ssd::SlotMapAudit a(8, 16);
  a.on_map(1, 100);
  EXPECT_THROW(a.on_map(2, 100), ssd::AuditFailure);
}

TEST(SlotMapAudit, DetectsMismatchedUnmap) {
  ssd::SlotMapAudit a(8, 16);
  a.on_map(1, 100);
  EXPECT_THROW(a.on_unmap(1, 101), ssd::AuditFailure);
  EXPECT_THROW(a.on_unmap(2, 100), ssd::AuditFailure);
  a.on_unmap(1, 100);
  EXPECT_EQ(a.mapped_slots(), 0u);
}

TEST(SlotMapAudit, VerifyCrossChecksMapAndCounters) {
  ssd::SlotMapAudit a(2, 4);
  std::vector<ssd::SlotMapEntry> map(8, {~0ull, 0});
  std::vector<u32> valid(2, 0);
  a.on_map(0, 5);
  map[0] = {5, 42};
  valid[1] = 1;
  a.verify(map, ~0ull, valid, /*live_slots=*/1);  // consistent

  // Seeded violations, each against a fresh copy of the honest state:
  auto bad_map = map;
  bad_map[0].gsi = 6;  // FTL map diverged from the shadow
  EXPECT_THROW(a.verify(bad_map, ~0ull, valid, 1), ssd::AuditFailure);
  bad_map = map;
  bad_map[3].gsi = 7;  // mapping the shadow never saw
  EXPECT_THROW(a.verify(bad_map, ~0ull, valid, 2), ssd::AuditFailure);
  auto bad_valid = valid;
  bad_valid[1] = 2;  // stale per-block counter
  EXPECT_THROW(a.verify(map, ~0ull, bad_valid, 1), ssd::AuditFailure);
  EXPECT_THROW(a.verify(map, ~0ull, valid, 0), ssd::AuditFailure);
}

// ---------------------------------------------------------------------------
// KvLogAudit: KV-FTL log placement shadow
// ---------------------------------------------------------------------------

TEST(KvLogAudit, DetectsDoublePlacement) {
  ssd::KvLogAudit a(8);
  a.on_place(0xabc, 0, 2, 0, 3);
  EXPECT_THROW(a.on_place(0xabc, 0, 3, 1, 3), ssd::AuditFailure);
}

TEST(KvLogAudit, DetectsLogSlotCollision) {
  ssd::KvLogAudit a(8);
  a.on_place(0xabc, 0, 2, 0, 3);
  EXPECT_THROW(a.on_place(0xdef, 0, 2, 0, 1), ssd::AuditFailure);
}

TEST(KvLogAudit, DetectsMismatchedInvalidate) {
  ssd::KvLogAudit a(8);
  a.on_place(0xabc, 0, 2, 0, 3);
  EXPECT_THROW(a.on_invalidate(0xabc, 0, 2, 1), ssd::AuditFailure);
  EXPECT_THROW(a.on_invalidate(0xabc, 1, 2, 0), ssd::AuditFailure);
  a.on_invalidate(0xabc, 0, 2, 0);
  EXPECT_EQ(a.placed_chunks(), 0u);
  EXPECT_EQ(a.live_slots(), 0u);
}

TEST(KvLogAudit, TracksPerBlockSlotAccounting) {
  ssd::KvLogAudit a(8);
  a.on_place(1, 0, 2, 0, 3);
  a.on_place(1, 1, 2, 1, 2);
  a.on_place(2, 0, 5, 0, 7);
  EXPECT_EQ(a.block_valid_slots(2), 5u);
  EXPECT_EQ(a.block_valid_slots(5), 7u);
  EXPECT_EQ(a.live_slots(), 12u);
  EXPECT_TRUE(a.is_placed_at(1, 1, 2, 1));
  EXPECT_FALSE(a.is_placed_at(1, 1, 2, 0));
  a.on_invalidate(1, 0, 2, 0);
  EXPECT_EQ(a.block_valid_slots(2), 2u);
  EXPECT_EQ(a.live_slots(), 9u);
}

// ---------------------------------------------------------------------------
// EventQueue clamp accounting
// ---------------------------------------------------------------------------

TEST(AuditClamps, PastTimeScheduleIsCountedAndFlagged) {
  sim::EventQueue eq;
  eq.schedule_after(10 * kUs, [] {});
  eq.run();
  EXPECT_EQ(eq.clamped_schedules(), 0u);
  ssd::audit_check_clamps(eq.clamped_schedules());

  eq.schedule_at(1, [] {});  // the past: gets clamped and counted
  eq.run();
  EXPECT_EQ(eq.clamped_schedules(), 1u);
  EXPECT_THROW(ssd::audit_check_clamps(eq.clamped_schedules()),
               ssd::AuditFailure);
}

TEST(AuditClamps, TelemetryExposesClampCounter) {
  sim::EventQueue eq;
  ssd::TelemetryCollector col(10 * kUs);
  col.attach(eq.now(), nullptr, nullptr, {}, &eq);
  eq.schedule_after(25 * kUs, [] {});
  eq.run();
  eq.schedule_at(3, [] {});  // clamped
  eq.run();
  col.finalize(eq.now());
  u64 total = 0;
  for (const auto& s : col.slices()) total += s.extras.clamped_schedules;
  EXPECT_EQ(total, 1u);
}

// ---------------------------------------------------------------------------
// Block lifecycle: the one state machine both FTLs run on
// ---------------------------------------------------------------------------

using S = ssd::BlockState;
constexpr std::pair<S, S> kLegalTransitions[] = {
    {S::kFree, S::kOpen},    {S::kFree, S::kIndexBlock},
    {S::kOpen, S::kSealed},  {S::kSealed, S::kErasing},
    {S::kErasing, S::kFree}, {S::kErasing, S::kBad},
    {S::kOpen, S::kBad},     {S::kSealed, S::kBad}};

TEST(BlockLifecycleAudit, DetectsEraseOfOpenBlock) {
  try {
    ssd::audit_block_transition(5, S::kOpen, S::kErasing);
    FAIL() << "erasing an open block passed the audit";
  } catch (const ssd::AuditFailure& e) {
    EXPECT_NE(std::string(e.what()).find("block 5 moved open -> erasing"),
              std::string::npos)
        << e.what();
  }
}

TEST(BlockLifecycleAudit, AcceptsExactlyTheLegalTransitions) {
  const S all[] = {S::kFree,    S::kOpen,       S::kSealed,
                   S::kErasing, S::kIndexBlock, S::kBad};
  int legal = 0;
  for (S from : all)
    for (S to : all) {
      bool expect_ok = false;
      for (const auto& [f, t] : kLegalTransitions)
        expect_ok = expect_ok || (f == from && t == to);
      legal += expect_ok;
      if (expect_ok) {
        EXPECT_NO_THROW(ssd::audit_block_transition(0, from, to));
      } else {
        EXPECT_THROW(ssd::audit_block_transition(0, from, to),
                     ssd::AuditFailure)
            << (int)from << " -> " << (int)to;
      }
    }
  EXPECT_EQ(legal, 8);
}

// ---------------------------------------------------------------------------
// LSM tables: each SST's keys ascend; a level >= 1's files are sorted by
// smallest key and do not overlap. LsmStore checks both after every flush
// and compaction install in the KVSIM_AUDIT build.
// ---------------------------------------------------------------------------

std::shared_ptr<lsm::Sst> lsm_table(u64 id,
                                    std::initializer_list<const char*> keys) {
  lsm::SstBuilder b;
  u64 seq = 0;
  for (const char* k : keys) b.add(k, ValueDesc{100, seq}, ++seq, false);
  return b.finish(id);
}

TEST(LsmTableAudit, DetectsKeysOutOfOrder) {
  EXPECT_NO_THROW(lsm::audit_sst_keys(*lsm_table(1, {"a", "b", "c"})));
  EXPECT_NO_THROW(lsm::audit_sst_keys(*lsm_table(2, {})));
  try {
    lsm::audit_sst_keys(*lsm_table(3, {"a", "c", "b"}));
    FAIL() << "a table with keys out of order passed the audit";
  } catch (const ssd::AuditFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "sst-3 entry 2 does not sort after entry 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(lsm::audit_sst_keys(*lsm_table(4, {"a", "b", "b"})),
               ssd::AuditFailure);  // a key twice
}

TEST(LsmTableAudit, DetectsOverlappingOrUnsortedLevelFiles) {
  const auto ab = lsm_table(1, {"a", "b"});
  const auto cd = lsm_table(2, {"c", "d"});
  const auto bc = lsm_table(3, {"b", "c"});
  EXPECT_NO_THROW(lsm::audit_level(1, {ab, cd}));
  EXPECT_NO_THROW(lsm::audit_level(1, {}));
  EXPECT_THROW(lsm::audit_level(1, {cd, ab}), ssd::AuditFailure);
  try {
    lsm::audit_level(2, {ab, bc, cd});
    FAIL() << "overlapping files in one level passed the audit";
  } catch (const ssd::AuditFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "L2 sst-1 and sst-3 overlap or are out of order"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// End-to-end: real FTLs under their audit hooks. With KVSIM_AUDIT=ON the
// shadow models run live and audit_verify() cross-checks them; with it
// OFF audit_verify() is a no-op and these are workload smoke tests.
// ---------------------------------------------------------------------------

ssd::SsdConfig tiny_device() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 8;
  d.geometry.pages_per_block = 16;  // 64 blocks, 32 MiB raw
  d.write_buffer_bytes = 2 * MiB;
  return d;
}

TEST(AuditEndToEnd, BlockFtlChurnVerifiesClean) {
  sim::EventQueue eq;
  ssd::SsdConfig dev = tiny_device();
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  blockftl::BlockFtlConfig cfg;
  cfg.write_points = 4;
  blockftl::BlockFtl ftl(eq, flash, dev, cfg);

  const u64 slots = ftl.exported_bytes() / ftl.slot_bytes();
  Rng rng(7);
  // Random single-slot overwrites: reorg path, RMW-free whole slots, GC.
  for (int i = 0; i < 2000; ++i) {
    const u64 lpn = rng.next() % slots;
    ftl.write(lpn * (ftl.slot_bytes() / 512), (u32)ftl.slot_bytes(),
              /*fp_base=*/i, [](Status s) { ASSERT_EQ(s, Status::kOk); });
    if (i % 64 == 0) eq.run();
  }
  eq.run();
  ftl.trim(0, 64 * ftl.slot_bytes(), [](Status) {});
  bool flushed = false;
  ftl.flush([&] { flushed = true; });
  eq.run();
  ASSERT_TRUE(flushed);
  EXPECT_NO_THROW(ftl.audit_verify());
}

TEST(AuditEndToEnd, KvFtlChurnVerifiesClean) {
  sim::EventQueue eq;
  ssd::SsdConfig dev = tiny_device();
  flash::FlashController flash(eq, dev.geometry, dev.timing);
  kvftl::KvFtlConfig cfg;
  cfg.index.dram_bytes = 4 * MiB;
  cfg.expected_keys_hint = 10000;
  kvftl::KvFtl ftl(eq, flash, dev, cfg);

  Rng rng(11);
  // Overwrite-heavy churn over a small key set plus deletes: exercises
  // placement, invalidation, GC migration, and the index-charge path.
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "key-" + std::to_string(rng.next() % 200);
    const u32 vsize = 256 + (u32)(rng.next() % (8 * KiB));
    ftl.store(key, ValueDesc{vsize, (u64)i}, [](Status s) {
      ASSERT_TRUE(s == Status::kOk || s == Status::kDeviceFull ||
                  s == Status::kCapacityLimit);
    });
    if (i % 16 == 0) {
      ftl.remove("key-" + std::to_string(rng.next() % 200), [](Status) {});
    }
    if (i % 64 == 0) eq.run();
  }
  eq.run();
  bool flushed = false;
  ftl.flush([&] { flushed = true; });
  eq.run();
  ASSERT_TRUE(flushed);
  EXPECT_NO_THROW(ftl.audit_verify());
}

}  // namespace
}  // namespace kvsim
