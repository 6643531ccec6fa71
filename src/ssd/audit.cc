#include "ssd/audit.h"

namespace kvsim::ssd {

void audit_fail(const char* subsystem, const std::string& detail) {
  throw AuditFailure(std::string("[KVSIM_AUDIT] ") + subsystem + ": " +
                     detail);
}

void audit_check_clamps(u64 clamped_schedules) {
  if (clamped_schedules != 0)
    audit_fail("sim", std::to_string(clamped_schedules) +
                          " schedule_at calls targeted the past (clamped "
                          "to now); a past-time schedule hides a "
                          "causality bug in a completion-time computation");
}

// ---------------------------------------------------------------------------
// FlashAudit
// ---------------------------------------------------------------------------

FlashAudit::FlashAudit(const flash::FlashGeometry& geom)
    : geom_(geom),
      next_page_(geom.total_blocks(), 0),
      exempt_(geom.total_blocks(), 0) {}

void FlashAudit::set_exempt(flash::BlockId b, bool exempt) {
  exempt_[b] = exempt ? 1 : 0;
}

void FlashAudit::on_read(flash::PageId p, u32 bytes) {
  (void)bytes;
  const flash::BlockId b = geom_.block_of_page(p);
  if (exempt_[b]) return;
  const u32 page = geom_.page_in_block(p);
  if (page >= next_page_[b])
    audit_fail("flash",
               "read of erased/unwritten page " + std::to_string(page) +
                   " of block " + std::to_string(b) + " (only " +
                   std::to_string(next_page_[b]) +
                   " pages programmed since erase)");
}

void FlashAudit::on_program(flash::PageId p) {
  const flash::BlockId b = geom_.block_of_page(p);
  if (exempt_[b]) return;
  const u32 page = geom_.page_in_block(p);
  if (page < next_page_[b])
    audit_fail("flash", "reprogram of page " + std::to_string(page) +
                            " of block " + std::to_string(b) +
                            " without an intervening erase");
  if (page > next_page_[b])
    audit_fail("flash", "out-of-order program: block " + std::to_string(b) +
                            " expected page " +
                            std::to_string(next_page_[b]) + ", got page " +
                            std::to_string(page));
  next_page_[b] = page + 1;
}

void FlashAudit::on_erase(flash::BlockId b) { next_page_[b] = 0; }

// ---------------------------------------------------------------------------
// SlotMapAudit
// ---------------------------------------------------------------------------

SlotMapAudit::SlotMapAudit(u64 total_blocks, u32 slots_per_block)
    : slots_per_block_(slots_per_block), block_live_(total_blocks, 0) {}

void SlotMapAudit::on_map(u64 lpn, u64 gsi) {
  if (lpn_to_slot_.count(lpn))
    audit_fail("blockftl", "lpn " + std::to_string(lpn) +
                               " remapped without invalidating slot " +
                               std::to_string(lpn_to_slot_[lpn]));
  auto occupant = slot_to_lpn_.find(gsi);
  if (occupant != slot_to_lpn_.end())
    audit_fail("blockftl", "two lpns (" + std::to_string(occupant->second) +
                               ", " + std::to_string(lpn) +
                               ") resolve to flash slot " +
                               std::to_string(gsi));
  lpn_to_slot_[lpn] = gsi;
  slot_to_lpn_[gsi] = lpn;
  ++block_live_[gsi / slots_per_block_];
}

void SlotMapAudit::on_unmap(u64 lpn, u64 gsi) {
  auto it = lpn_to_slot_.find(lpn);
  if (it == lpn_to_slot_.end() || it->second != gsi)
    audit_fail("blockftl",
               "invalidate of lpn " + std::to_string(lpn) + " at slot " +
                   std::to_string(gsi) +
                   (it == lpn_to_slot_.end()
                        ? " but the lpn is unmapped"
                        : " but the shadow maps it to slot " +
                              std::to_string(it->second)));
  lpn_to_slot_.erase(it);
  slot_to_lpn_.erase(gsi);
  --block_live_[gsi / slots_per_block_];
}

void SlotMapAudit::verify(const std::vector<SlotMapEntry>& map,
                          u64 unmapped_sentinel,
                          const std::vector<u32>& valid_count,
                          u64 live_slots) const {
  if (live_slots != lpn_to_slot_.size())
    audit_fail("blockftl", "live-slot counter " + std::to_string(live_slots) +
                               " != shadow mapped-slot count " +
                               std::to_string(lpn_to_slot_.size()));
  u64 mapped = 0;
  for (u64 lpn = 0; lpn < map.size(); ++lpn) {
    if (map[lpn].gsi == unmapped_sentinel) continue;
    ++mapped;
    auto it = lpn_to_slot_.find(lpn);
    if (it == lpn_to_slot_.end())
      audit_fail("blockftl", "map entry for lpn " + std::to_string(lpn) +
                                 " has no shadow counterpart");
    if (it->second != map[lpn].gsi)
      audit_fail("blockftl",
                 "lpn " + std::to_string(lpn) + " maps to slot " +
                     std::to_string(map[lpn].gsi) + " but the shadow says " +
                     std::to_string(it->second));
  }
  if (mapped != lpn_to_slot_.size())
    audit_fail("blockftl",
               "shadow holds " + std::to_string(lpn_to_slot_.size()) +
                   " mappings but the map exposes " + std::to_string(mapped));
  for (u64 b = 0; b < valid_count.size(); ++b)
    if (valid_count[b] != block_live_[b])
      audit_fail("blockftl",
                 "block " + std::to_string(b) + " valid counter " +
                     std::to_string(valid_count[b]) +
                     " != shadow live count " + std::to_string(block_live_[b]));
}

// ---------------------------------------------------------------------------
// KvLogAudit
// ---------------------------------------------------------------------------

KvLogAudit::KvLogAudit(u64 total_blocks) : block_live_(total_blocks, 0) {}

void KvLogAudit::on_place(u64 khash, u8 chunk_idx, u32 block, u32 rec,
                          u16 slots) {
  const ChunkKey ck{khash, chunk_idx};
  if (chunk_to_loc_.count(ck))
    audit_fail("kvftl", "chunk " + std::to_string(chunk_idx) + " of blob " +
                            std::to_string(khash) +
                            " placed twice without invalidation");
  const LocKey lk{block, rec};
  auto occupant = loc_to_chunk_.find(lk);
  if (occupant != loc_to_chunk_.end())
    audit_fail("kvftl",
               "log slot (block " + std::to_string(block) + ", rec " +
                   std::to_string(rec) + ") already holds chunk " +
                   std::to_string(occupant->second.second) + " of blob " +
                   std::to_string(occupant->second.first));
  chunk_to_loc_[ck] = Placement{block, rec, slots};
  loc_to_chunk_[lk] = ck;
  block_live_[block] += slots;
  live_slots_ += slots;
}

void KvLogAudit::on_invalidate(u64 khash, u8 chunk_idx, u32 block, u32 rec) {
  const ChunkKey ck{khash, chunk_idx};
  auto it = chunk_to_loc_.find(ck);
  if (it == chunk_to_loc_.end() || it->second.block != block ||
      it->second.rec != rec)
    audit_fail("kvftl",
               "invalidate of chunk " + std::to_string(chunk_idx) +
                   " of blob " + std::to_string(khash) + " at (block " +
                   std::to_string(block) + ", rec " + std::to_string(rec) +
                   ") does not match the shadow placement");
  block_live_[block] -= it->second.slots;
  live_slots_ -= it->second.slots;
  loc_to_chunk_.erase(LocKey{block, rec});
  chunk_to_loc_.erase(it);
}

bool KvLogAudit::is_placed_at(u64 khash, u8 chunk_idx, u32 block,
                              u32 rec) const {
  auto it = chunk_to_loc_.find(ChunkKey{khash, chunk_idx});
  return it != chunk_to_loc_.end() && it->second.block == block &&
         it->second.rec == rec;
}

}  // namespace kvsim::ssd
