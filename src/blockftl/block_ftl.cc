#include "blockftl/block_ftl.h"

#include "common/hash.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace kvsim::blockftl {

namespace {
void validate_block_cfg(const ssd::SsdConfig& dev,
                        const BlockFtlConfig& cfg) {
  if (cfg.logical_page_bytes < 512 ||
      dev.geometry.page_bytes % cfg.logical_page_bytes != 0)
    throw std::invalid_argument(
        "BlockFtlConfig: logical page must divide the flash page");
  if (cfg.write_points == 0)
    throw std::invalid_argument("BlockFtlConfig: need write points");
}
}  // namespace

BlockFtl::BlockFtl(sim::EventQueue& eq, flash::FlashController& flash,
                   const ssd::SsdConfig& dev, const BlockFtlConfig& cfg)
    : FtlCore(eq, flash, dev),
      cfg_(cfg),
      read_cache_(cfg.read_cache_pages) {
  validate_block_cfg(dev, cfg_);
  const u64 total_slots = geom_.total_pages() * slots_per_page();
  total_slots_exported_ =
      (u64)((double)total_slots * (1.0 - dev.overprovision));
  map_.assign(total_slots_exported_, {kUnmapped, 0});
  rmap_.assign(total_slots, kUnmapped);
  wps_.resize(cfg_.write_points);
  for (auto& wp : wps_) add_write_point(wp);
  add_write_point(gc_wp_);
#if KVSIM_AUDIT
  map_audit_ = std::make_unique<ssd::SlotMapAudit>(
      geom_.total_blocks(), geom_.pages_per_block * slots_per_page());
#endif
}

void BlockFtl::audit_verify() const {
  if (!map_audit_) return;
  ssd::audit_check_clamps(eq_.clamped_schedules());
  map_audit_->verify(map_, kUnmapped, valid_units_, live_slots_);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void BlockFtl::write(Lba lba, u32 bytes, u64 fp_base, Done done) {
  if (busy_rejected(done)) return;
  const u64 lp = cfg_.logical_page_bytes;
  const u64 start = lba * 512, end = start + bytes;
  if (bytes == 0 || (end + lp - 1) / lp > map_.size()) {
    done(Status::kInvalidArgument);
    return;
  }
  const u64 first = start / lp, last = (end - 1) / lp;
  const u32 n = (u32)(last - first + 1);
  ++stats_.host_write_ops;
  stats_.host_bytes_written += bytes;

  // Sequential-stream detection on the byte-address stream.
  write_streak_ = (start == last_write_end_) ? write_streak_ + n : n;
  last_write_end_ = end;
  const bool seq = write_streak_ >= cfg_.seq_run_threshold;

  // Sub-slot writes to mapped slots require read-modify-write of their
  // page: the head's first, then the tail's (one read if they share it).
  flash::PageId rmw_pages[2];
  u32 n_rmw = 0;
  auto need_rmw = [&](u64 lpn) {
    if (map_[lpn].gsi == kUnmapped) return;
    const flash::PageId p = map_[lpn].gsi / slots_per_page();
    if (read_cache_.contains(p) || buffered_pages_[p]) return;
    if (n_rmw == 0 || rmw_pages[0] != p) rmw_pages[n_rmw++] = p;
  };
  if (start % lp != 0) need_rmw(first);
  if (end % lp != 0) need_rmw(last);
  if (n_rmw != 0) ++stats_.rmw_ops;

  // FTL-core work: dispatch plus per-slot map updates.
  const TimeNs per_slot =
      seq ? cfg_.map_update_seq_ns : cfg_.map_update_ns;
  const TimeNs cpu_done =
      cpu_.reserve(eq_.now(), dispatch_ns_ + (TimeNs)n * per_slot);

  auto join = sim::make_join(2, [this, first, n, fp_base, seq,
                                 done = std::move(done)](Status) mutable {
    for (u32 i = 0; i < n; ++i) write_slot(first + i, mix64(fp_base + i), seq);
    done(Status::kOk);
  });
  buffer_.acquire((u64)n * lp, [join] { join->arrive(); });
  eq_.schedule_at(cpu_done, [join] { join->arrive(); });
  // Sub-slot merges read the old page in the background (the write acks
  // from the buffer; the read still occupies the die before the merged
  // slot programs).
  for (u32 i = 0; i < n_rmw; ++i)
    flash_.read_page(rmw_pages[i], cfg_.logical_page_bytes, [] {});
}

void BlockFtl::write_slot(u64 lpn, u64 fp, bool seq) {
  drop_starved_writes(lpn, lpn + 1);  // this write replaces a queued one
  // Sequential streams fill one page before moving to the next write
  // point (consecutive LBAs land in the same flash page, so later reads
  // of a contiguous range touch one die); random slots stripe round-robin
  // for parallelism.
  WritePoint* wpp;
  if (seq) {
    wpp = &wps_[seq_wp_];
    if (wpp->used + 1 == slots_per_page())
      seq_wp_ = (seq_wp_ + 1) % wps_.size();
  } else {
    wpp = &wps_[wp_rr_];
    wp_rr_ = (wp_rr_ + 1) % wps_.size();
  }
  WritePoint& wp = *wpp;
  if (append_slot(wp, lpn, fp, seq, /*is_gc=*/false)) return;
  // The assigned write point is out of blocks; another may still have an
  // open one (avoids stranding the pages of other open blocks when the
  // free pool is down to the GC reserve).
  for (auto& other : wps_)
    if (&other != &wp && append_slot(other, lpn, fp, seq, false)) return;
  wp.starved.push_back(Starved{lpn, fp, seq});
  ++starved_writes_;
  start_foreground_gc();
}

void BlockFtl::drop_starved_writes(u64 first, u64 end) {
  if (starved_writes_ == 0) return;
  for (auto& wp : wps_) {
    const u64 n = std::erase_if(wp.starved, [&](const Starved& s) {
      return s.lpn >= first && s.lpn < end;
    });
    starved_writes_ -= n;
    // The page program that would have carried them frees their bytes.
    if (n != 0) buffer_.release(n * cfg_.logical_page_bytes);
  }
}

const BlockFtl::Starved* BlockFtl::queued_write(u64 lpn) const {
  for (const auto& wp : wps_)
    for (const Starved& s : wp.starved)
      if (s.lpn == lpn) return &s;
  return nullptr;
}

bool BlockFtl::append_slot(WritePoint& wp, u64 lpn, u64 fp, bool seq,
                           bool is_gc) {
  if (!ensure_block(wp, is_gc)) return false;
  invalidate(lpn, /*by_host=*/!is_gc);
  const flash::PageId page = geom_.page_id(*wp.block, wp.next_page);
  const u32 slot = wp.used;
  const u64 gsi = slot_index(page, slot);
  map_[lpn] = {gsi, fp};
  rmap_[gsi] = lpn;
  if (map_audit_) map_audit_->on_map(lpn, gsi);
  if (crash_tracking_)
    wp.staged.push_back(flash::OobEntry{lpn, fp, slot, ++write_seq_});
  ++valid_units_[*wp.block];
  ++live_slots_;
  wp.all_seq = (slot == 0 || wp.all_seq) && seq;
  fill_open_page(wp, 1, is_gc ? 0 : cfg_.logical_page_bytes);
  if (wp.used == slots_per_page()) {
    seal_page(wp, is_gc);
  } else if (!is_gc) {
    arm_flush_timer(wp);
  }
  return true;
}

void BlockFtl::seal_page(WritePoint& wp, bool is_gc) {
  ++wp.last_flush_arm;  // cancel any pending flush timer
  // Random-write coalescing: the firmware CPU spends time rearranging the
  // page before it is dispatched (the paper's "block-SSD holds data in
  // buffer much longer" behavior).
  const bool reorg = !wp.all_seq && !is_gc;
  seal_open_page(wp, reorg ? cpu_.reserve(eq_.now(), cfg_.reorg_per_page_ns)
                           : eq_.now());
}

void BlockFtl::arm_flush_timer(WritePoint& wp) {
  const u64 arm = ++wp.last_flush_arm;
  eq_.schedule_after(cfg_.partial_flush_ns, [this, &wp, arm] {
    if (wp.last_flush_arm == arm && wp.used != 0) seal_page(wp, false);
  });
}

void BlockFtl::invalidate(u64 lpn, bool by_host) {
  const u64 old = map_[lpn].gsi;
  if (old == kUnmapped) return;
  if (map_audit_) map_audit_->on_unmap(lpn, old);
  map_[lpn].gsi = kUnmapped;
  rmap_[old] = kUnmapped;
  --valid_units_[old / slots_per_page() / geom_.pages_per_block];
  --live_slots_;
  if (by_host) fresh_garbage();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void BlockFtl::read(Lba lba, u32 bytes, ReadDone done) {
  if (busy_rejected(done, u64{0})) return;
  const u64 lp = cfg_.logical_page_bytes;
  const u64 start = lba * 512, end = start + bytes;
  if (bytes == 0 || (end + lp - 1) / lp > map_.size()) {
    done(Status::kInvalidArgument, 0);
    return;
  }
  const u64 first = start / lp, last = (end - 1) / lp;
  ++stats_.host_read_ops;
  stats_.host_bytes_read += bytes;

  read_streak_ = (first == last_read_lpn_ + 1 || first == last_read_lpn_)
                     ? read_streak_ + (u32)(last - first + 1)
                     : (u32)(last - first + 1);
  last_read_lpn_ = last;

  // Gather the missed flash pages in first-seen order, each with the
  // bytes it serves, and the fingerprint answer. The pooled read's page
  // list keeps its capacity, so a warm read allocates nothing.
  const u32 slot = reads_.acquire();
  PendingRead& r = reads_[slot];
  r.fetched.clear();
  u64 fp = 0;
  TimeNs cpu = dispatch_ns_;
  for (u64 lpn = first; lpn <= last; ++lpn) {
    // An acked write still waiting for a block answers from the write
    // buffer, as a cache hit; the map still holds the older copy.
    const Starved* queued = starved_writes_ ? queued_write(lpn) : nullptr;
    const ssd::SlotMapEntry m = map_[lpn];
    if (!queued && m.gsi == kUnmapped) continue;  // unwritten reads as zeros
    fp ^= queued ? queued->fp : m.fp;
    const flash::PageId p = m.gsi / slots_per_page();
    ++cache_lookups_;
    if (queued || read_cache_.touch(p) || buffered_pages_[p]) {
      ++cache_hits_;
      cpu += cfg_.cache_hit_ns;
      continue;
    }
    const auto seen =
        std::find_if(r.fetched.rbegin(), r.fetched.rend(),
                     [p](const flash::PageRead& f) { return f.page == p; });
    if (seen != r.fetched.rend()) {
      seen->bytes += (u32)lp;
    } else {
      r.fetched.push_back(flash::PageRead{p, (u32)lp});
    }
  }
  const TimeNs cpu_done = cpu_.reserve(eq_.now(), cpu);

  // Miss pages batch into one die-op, charged in first-seen order: one
  // completion event feeds the DRAM cache and releases the host command.
  // The CPU slot's arrival is an event only when it ends after the batch.
  r.st = Status::kOk;
  r.fp = fp;
  r.done = std::move(done);
  const bool fetch = !r.fetched.empty();
  const TimeNs fetched_at =
      fetch ? flash_.read_multi(
                  r.fetched.data(), (u32)r.fetched.size(),
                  [this, slot](flash::OpStatus st, flash::PageId bad) {
                    read_fetched(slot, st, bad);
                  })
            : 0;
  const bool cpu_last = !fetch || cpu_done > fetched_at;
  r.remaining = (fetch ? 1 : 0) + (cpu_last ? 1 : 0);
  if (cpu_last) eq_.schedule_at(cpu_done, [this, slot] { read_arrive(slot); });

  // Sequential reads prefetch the next page into the cache.
  if (read_streak_ >= cfg_.seq_run_threshold) maybe_readahead(last + 1);
}

void BlockFtl::read_fetched(u32 slot, flash::OpStatus st, flash::PageId bad) {
  for (const flash::PageRead& f : reads_[slot].fetched) cache_insert(f.page);
  const Status err = read_status(st, bad);
  PendingRead& r = reads_[slot];
  if (r.st == Status::kOk) r.st = err;  // first failure wins
  read_arrive(slot);
}

void BlockFtl::read_arrive(u32 slot) {
  PendingRead& r = reads_[slot];
  if (--r.remaining != 0) return;
  ReadDone done = std::move(r.done);
  const Status st = r.st;
  const u64 fp = r.fp;
  reads_.release(slot);  // before `done`, which may start another read
  done(st, fp);
}

void BlockFtl::maybe_readahead(u64 next_lpn) {
  if (next_lpn >= map_.size() || map_[next_lpn].gsi == kUnmapped) return;
  const flash::PageId p = map_[next_lpn].gsi / slots_per_page();
  if (read_cache_.contains(p) || buffered_pages_[p]) return;
  read_cache_.insert(p);  // reserve the slot up-front so we don't double-fetch
  flash_.read_page(p, geom_.page_bytes, [] {});
}

// ---------------------------------------------------------------------------
// TRIM / flush
// ---------------------------------------------------------------------------

void BlockFtl::trim(Lba lba, u64 bytes, Done done) {
  if (busy_rejected(done)) return;
  const u64 lp = cfg_.logical_page_bytes;
  const u64 start = lba * 512, end = start + bytes;
  const u64 first = (start + lp - 1) / lp;        // first fully-covered slot
  const u64 last_excl = std::min(end / lp, (u64)map_.size());
  for (u64 lpn = first; lpn < last_excl; ++lpn)
    invalidate(lpn, /*by_host=*/true);
  // A relocated slot waiting for a block is trimmed too, or a freed block
  // would bring its data back.
  std::erase_if(recovery_starved_, [&](const Starved& s) {
    return s.lpn >= first && s.lpn < last_excl;
  });
  drop_starved_writes(first, last_excl);
  const TimeNs t = cpu_.reserve(eq_.now(), cfg_.trim_ns);
  eq_.schedule_at(t,
                  [done = std::move(done)]() mutable { done(Status::kOk); });
}

void BlockFtl::flush(sim::Task done) {
  audit_verify();
  for (auto& wp : wps_)
    if (wp.used != 0) seal_page(wp, false);
  if (gc_wp_.used != 0) seal_page(gc_wp_, true);
  drain(std::move(done));
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

bool BlockFtl::gc_victim_chosen(u32 valid) {
  // The best victim is (nearly) fully valid, so a cycle would rewrite a
  // whole block to free a whole block.
  const u32 block_slots = geom_.pages_per_block * slots_per_page();
  if (valid + block_slots / 16 >= block_slots)
    return ++gc_futile_streak_ >= 8;
  gc_futile_streak_ = 0;
  return false;
}

void BlockFtl::gc_victim_pages(flash::BlockId victim,
                               std::vector<flash::PageRead>& reads) {
  for (u32 pg = 0; pg < geom_.pages_per_block; ++pg) {
    const flash::PageId p = geom_.page_id(victim, pg);
    for (u32 s = 0; s < slots_per_page(); ++s)
      if (rmap_[slot_index(p, s)] != kUnmapped) {
        reads.push_back(flash::PageRead{p, geom_.page_bytes});
        break;
      }
  }
}

void BlockFtl::gc_migrate(flash::BlockId victim) {
  for (u32 pg = 0; pg < geom_.pages_per_block; ++pg) {
    const flash::PageId p = geom_.page_id(victim, pg);
    for (u32 s = 0; s < slots_per_page(); ++s) {
      const u64 gsi = slot_index(p, s);
      const u64 lpn = rmap_[gsi];
      if (lpn == kUnmapped) continue;
      const u64 fp = map_[lpn].fp;
      ++stats_.gc_migrated_units;
      stats_.gc_migrated_bytes += cfg_.logical_page_bytes;
      if (!append_slot(gc_wp_, lpn, fp, false, /*is_gc=*/true))
        throw std::logic_error("BlockFtl: GC found no block for a valid slot");
    }
  }
}

void BlockFtl::on_block_freed() {
  while (!recovery_starved_.empty()) {
    const Starved s = recovery_starved_.front();
    if (map_[s.lpn].gsi != kUnmapped) {
      // A newer host write (or recovery pass) superseded the queued
      // copy while it waited; restoring it would resurrect stale data.
      recovery_starved_.pop_front();
      continue;
    }
    if (!append_slot(gc_wp_, s.lpn, s.fp, false, /*is_gc=*/true)) break;
    recovery_starved_.pop_front();
  }
  for (auto& wp : wps_) {
    while (!wp.starved.empty()) {
      const Starved s = wp.starved.front();
      if (!append_slot(wp, s.lpn, s.fp, s.seq, false)) break;
      wp.starved.pop_front();
      --starved_writes_;
    }
  }
}

// ---------------------------------------------------------------------------
// Power loss & mount-time recovery
// ---------------------------------------------------------------------------

void BlockFtl::power_fail_and_recover(ssd::CrashOutcome& out,
                                      sim::Task done) {
  // Cut power at the media: in-flight programs tear (their OOB vanishes),
  // die/channel pipelines drain, and the serialized firmware CPU resets.
  const PowerCut cut = cut_power();
  out.torn_pages = cut.torn.size();
  cpu_.power_cycle(eq_.now());

  // Everything DRAM-resident is gone: open write points, read cache,
  // stream detectors, and the whole mapping (it is rebuilt from OOB below).
  for (auto& wp : wps_) wp = WritePoint{};
  starved_writes_ = 0;
  gc_wp_ = WritePoint{};
  wp_rr_ = 0;
  seq_wp_ = 0;
  recovery_starved_.clear();
  read_cache_.clear();
  reads_.clear();
  last_write_end_ = ~0ull;
  write_streak_ = 0;
  last_read_lpn_ = ~0ull - 1;
  read_streak_ = 0;
  // The pre-cut host-visible map measures the lost-write window below.
  std::vector<ssd::SlotMapEntry> pre(map_.size(), {kUnmapped, 0});
  pre.swap(map_);
  std::fill(rmap_.begin(), rmap_.end(), kUnmapped);
  live_slots_ = 0;

  // Rebuild the map from committed OOB. Pages are walked in epoch order
  // (deterministic; the controller's map iterates in hash order), and the
  // per-entry write sequence picks a slot's newest durable copy — program
  // completions interleave across write points, so program order alone
  // would resurrect stale data.
  std::unordered_map<u64, u64> best_seq;  // lpn -> winning write sequence
  const u32 spp = slots_per_page();
  for (const auto& [epoch, p] : cut.pages) {
    const auto& oob = flash_.committed_oob().at(p);
    for (const auto& e : oob.entries) {
      const u64 lpn = e.tag;
      const u64 gsi = slot_index(p, (u32)e.a);
      auto it = best_seq.find(lpn);
      if (it != best_seq.end() && it->second > e.b) continue;
      if (map_[lpn].gsi != kUnmapped) {  // older copy loses; its slot is waste
        const u64 old = map_[lpn].gsi;
        rmap_[old] = kUnmapped;
        --valid_units_[old / spp / geom_.pages_per_block];
        --live_slots_;
      }
      best_seq[lpn] = e.b;
      map_[lpn] = {gsi, e.fp};
      rmap_[gsi] = lpn;
      ++valid_units_[gsi / spp / geom_.pages_per_block];
      ++live_slots_;
    }
  }
  out.recovered_units = live_slots_;
  for (u64 lpn = 0; lpn < pre.size(); ++lpn)
    if (pre[lpn].gsi != kUnmapped &&
        (map_[lpn].gsi == kUnmapped || map_[lpn].fp != pre[lpn].fp))
      ++out.lost_units;

#if KVSIM_AUDIT
  // The slot-map shadow is firmware DRAM state: it died with the power and
  // is rebuilt from the recovered map. The flash shadow is physical truth
  // and deliberately survives (torn pages *were* programmed).
  map_audit_ = std::make_unique<ssd::SlotMapAudit>(
      geom_.total_blocks(), geom_.pages_per_block * slots_per_page());
  for (u64 lpn = 0; lpn < map_.size(); ++lpn)
    if (map_[lpn].gsi != kUnmapped) map_audit_->on_map(lpn, map_[lpn].gsi);
#endif

  // Mount: one small OOB read per page, plus firmware time to replay the
  // map.
  const TimeNs cpu_done = cpu_.reserve(
      eq_.now(), dispatch_ns_ + out.recovered_units * cfg_.map_update_seq_ns);
  out.rebuild_pages_read =
      mount(cut, cfg_.oob_read_bytes, cpu_done, std::move(done));
}

u64 BlockFtl::probe_total_slots(Lba lba, u32 bytes) const {
  if (bytes == 0) return 0;
  const u64 lp = cfg_.logical_page_bytes;
  const u64 start = lba * 512, end = start + bytes;
  return (end - 1) / lp - start / lp + 1;
}

u64 BlockFtl::probe_durable_slots(Lba lba, u32 bytes, u64 fp_base) const {
  if (bytes == 0) return 0;
  const u64 lp = cfg_.logical_page_bytes;
  const u64 start = lba * 512, end = start + bytes;
  const u64 first = start / lp, last = (end - 1) / lp;
  if (last >= map_.size()) return 0;
  u64 ok = 0;
  for (u64 i = 0; i <= last - first; ++i) {
    const ssd::SlotMapEntry m = map_[first + i];
    if (m.gsi != kUnmapped && m.fp == mix64(fp_base + i)) ++ok;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void BlockFtl::relocate_page(flash::PageId p) {
  for (u32 s = 0; s < slots_per_page(); ++s) {
    const u64 gsi = slot_index(p, s);
    const u64 lpn = rmap_[gsi];
    if (lpn == kUnmapped) continue;
    const u64 fp = map_[lpn].fp;
    ++stats_.remapped_units;
    if (!append_slot(gc_wp_, lpn, fp, false, /*is_gc=*/true)) {
      // No block anywhere (even the reserve is gone): hold the rebuilt
      // slot in the recovery queue. Unmapping now keeps the map honest —
      // a queued slot is firmware state, not flash state.
      invalidate(lpn, /*by_host=*/false);
      recovery_starved_.push_back(Starved{lpn, fp, false});
    }
  }
}

}  // namespace kvsim::blockftl
