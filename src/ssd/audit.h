// KVSIM_AUDIT: invariant auditors for the device state machines.
//
// The paper's conclusions attribute latency/bandwidth effects to specific
// internal mechanisms (index occupancy, packing, foreground GC), so the
// simulator is only trustworthy if its internal invariants hold at all
// times — not just in end-to-end numbers. Each auditor is a *shadow
// model*: an independently-maintained ground truth fed by hooks on the
// mutation paths, cross-checked against the subsystem's own bookkeeping.
// Any divergence fails fast with a diagnostic (AuditFailure).
//
// Three auditors cover the three state machines the paper leans on:
//
//  * FlashAudit    — NAND legality: a page programs only into an erased
//    block, pages of a block program strictly in order, and reads only
//    touch programmed pages. Blocks carrying the KV-FTL's *abstract*
//    index-charge traffic are exempted explicitly (that traffic models
//    flash time, not flash content).
//  * SlotMapAudit  — block-FTL mapping: every mapped logical slot
//    resolves to exactly one live flash slot, and the FTL's incremental
//    valid-page counters match the shadow map.
//  * KvLogAudit    — KV-FTL log: index entries and log blobs are
//    one-to-one; a reclaimed blob chunk is unreachable.
//
// The auditor classes are always compiled (so violation-detection unit
// tests run in every build). The *hooks* inside FlashController/BlockFtl/
// KvFtl only instantiate them when the KVSIM_AUDIT CMake option is ON.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "flash/controller.h"
#include "flash/geometry.h"

#ifndef KVSIM_AUDIT
#define KVSIM_AUDIT 0
#endif

namespace kvsim::ssd {

/// Thrown on any invariant violation. Deliberately an exception (not
/// abort) so tests can prove a seeded violation is detected.
class AuditFailure : public std::logic_error {
 public:
  explicit AuditFailure(const std::string& what) : std::logic_error(what) {}
};

/// Fail fast with a "[KVSIM_AUDIT] <subsystem>: <detail>" diagnostic.
[[noreturn]] void audit_fail(const char* subsystem, const std::string& detail);

/// Nonzero past-time schedules on the EventQueue are silently clamped to
/// `now`; a clamp means some component computed a completion time in the
/// past, which hides a causality bug. The auditor treats any clamp as a
/// violation.
void audit_check_clamps(u64 clamped_schedules);

/// Shadow NAND state machine (see file comment). Tracks, per block, the
/// next page index a program may legally target; erase resets it.
class FlashAudit final : public flash::FlashAuditSink {
 public:
  KVSIM_THREAD_CONFINED;

  explicit FlashAudit(const flash::FlashGeometry& geom);

  /// Exempt `b` from legality checking (index-charge blocks whose reads/
  /// programs model time, not content).
  void set_exempt(flash::BlockId b, bool exempt = true);
  [[nodiscard]] bool exempt(flash::BlockId b) const { return exempt_[b] != 0; }

  /// Pages of `b` programmed since its last erase.
  [[nodiscard]] u32 programmed_pages(flash::BlockId b) const { return next_page_[b]; }

  void on_read(flash::PageId p, u32 bytes) override;
  void on_program(flash::PageId p) override;
  void on_erase(flash::BlockId b) override;

 private:
  flash::FlashGeometry geom_;
  std::vector<u32> next_page_;  // per block: pages programmed since erase
  std::vector<u8> exempt_;
};

/// A block-FTL map entry: the global flash slot an LPN maps to (or the
/// unmapped sentinel) and the fingerprint stored there.
struct SlotMapEntry {
  u64 gsi = 0;
  u64 fp = 0;
};

/// Shadow of the block FTL's logical-to-physical slot map.
class SlotMapAudit {
 public:
  KVSIM_THREAD_CONFINED;

  SlotMapAudit(u64 total_blocks, u32 slots_per_block);

  /// Hook: `lpn` was mapped to global slot `gsi`.
  void on_map(u64 lpn, u64 gsi);
  /// Hook: `lpn`'s mapping to `gsi` was invalidated.
  void on_unmap(u64 lpn, u64 gsi);

  /// Cross-check the FTL's own structures against the shadow:
  /// `map[lpn].gsi == sentinel` marks unmapped entries; `valid_count[b]`
  /// is the FTL's incremental per-block live-slot counter.
  void verify(const std::vector<SlotMapEntry>& map, u64 unmapped_sentinel,
              const std::vector<u32>& valid_count, u64 live_slots) const;

  [[nodiscard]] u64 mapped_slots() const { return lpn_to_slot_.size(); }

 private:
  u32 slots_per_block_;
  std::unordered_map<u64, u64> lpn_to_slot_;
  std::unordered_map<u64, u64> slot_to_lpn_;
  std::vector<u32> block_live_;
};

/// Shadow of the KV FTL's blob-chunk log placement.
class KvLogAudit {
 public:
  KVSIM_THREAD_CONFINED;

  explicit KvLogAudit(u64 total_blocks);

  /// Hook: chunk `chunk_idx` of blob `khash` was placed at (block, rec)
  /// covering `slots` data slots.
  void on_place(u64 khash, u8 chunk_idx, u32 block, u32 rec, u16 slots);
  /// Hook: that placement was invalidated (overwrite, delete, GC move).
  void on_invalidate(u64 khash, u8 chunk_idx, u32 block, u32 rec);

  [[nodiscard]] bool is_placed_at(u64 khash, u8 chunk_idx, u32 block, u32 rec) const;
  [[nodiscard]] u64 placed_chunks() const { return chunk_to_loc_.size(); }
  [[nodiscard]] u64 live_slots() const { return live_slots_; }
  [[nodiscard]] u64 block_valid_slots(u32 block) const { return block_live_[block]; }

 private:
  struct Placement {
    u32 block;
    u32 rec;
    u16 slots;
  };
  using ChunkKey = std::pair<u64, u8>;  // (khash, chunk_idx)
  using LocKey = std::pair<u32, u32>;   // (block, rec)

  std::map<ChunkKey, Placement> chunk_to_loc_;
  std::map<LocKey, ChunkKey> loc_to_chunk_;
  std::vector<u64> block_live_;
  u64 live_slots_ = 0;
};

}  // namespace kvsim::ssd
