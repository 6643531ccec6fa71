#include "ssd/ftl_core.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace kvsim::ssd {

void audit_block_transition(flash::BlockId b, BlockState from,
                            BlockState to) {
  using S = BlockState;
  constexpr std::pair<S, S> kLegal[] = {
      {S::kFree, S::kOpen},      {S::kFree, S::kIndexBlock},
      {S::kOpen, S::kSealed},    {S::kSealed, S::kErasing},
      {S::kErasing, S::kFree},   {S::kErasing, S::kBad},
      {S::kOpen, S::kBad},       {S::kSealed, S::kBad}};
  constexpr const char* kName[] = {"free",    "open",  "sealed",
                                   "erasing", "index", "bad"};
  for (const auto& [f, t] : kLegal)
    if (f == from && t == to) return;
  audit_fail("ssd", "block " + std::to_string(b) + " moved " +
                        kName[(int)from] + " -> " + kName[(int)to]);
}

FtlCore::FtlCore(sim::EventQueue& eq, flash::FlashController& flash,
                 const SsdConfig& dev)
    : eq_(eq),
      flash_(flash),
      geom_(dev.geometry),
      alloc_(dev.geometry),
      buffer_(eq, dev.write_buffer_bytes),
      gc_reserved_blocks_(dev.gc_reserved_blocks),
      gc_low_watermark_(dev.gc_low_watermark_blocks),
      dispatch_ns_(dev.firmware_dispatch_ns),
      crash_tracking_(flash.crash_tracking()) {
  dev.validate();
  block_state_.assign(geom_.total_blocks(), BlockState::kFree);
  valid_units_.assign(geom_.total_blocks(), 0);
  buffered_pages_.assign(geom_.total_pages(), 0);
  buffered_count_.assign(geom_.total_blocks(), 0);
#if KVSIM_AUDIT
  flash_audit_ = std::make_unique<FlashAudit>(geom_);
  flash_.set_audit(flash_audit_.get());
#endif
}

FtlCore::~FtlCore() {
  if (flash_audit_ && flash_.audit() == flash_audit_.get())
    flash_.set_audit(nullptr);
  if (faults_ && flash_.faults() == faults_.get()) flash_.set_faults(nullptr);
}

void FtlCore::set_fault_plan(const FaultPlan& plan) {
  plan.validate();
  if (faults_ && flash_.faults() == faults_.get()) flash_.set_faults(nullptr);
  faults_.reset();
  if (!plan.enabled) return;
  faults_ = std::make_unique<FaultInjector>(plan, geom_, eq_);
  flash_.set_faults(faults_.get());
}

void FtlCore::set_block_state(flash::BlockId b, BlockState to, bool mount) {
#if KVSIM_AUDIT
  if (!mount) audit_block_transition(b, block_state_[b], to);
#else
  (void)mount;
#endif
  block_state_[b] = to;
}

// ---------------------------------------------------------------------------
// Page path
// ---------------------------------------------------------------------------

bool FtlCore::ensure_block(WritePoint& wp, bool is_gc) {
  if (wp.block) return true;
  if (!is_gc && alloc_.free_blocks() <= gc_reserved_blocks_) return false;
  auto b = alloc_.allocate();
  if (!b) return false;
  wp.block = *b;
  wp.next_page = 0;
  wp.last_issue_at = 0;
  set_block_state(*b, BlockState::kOpen);
  if (!is_gc) maybe_start_gc();
  return true;
}

void FtlCore::seal_open_page(WritePoint& wp, TimeNs ready) {
  const flash::PageId page = geom_.page_id(*wp.block, wp.next_page);
  const u64 host_bytes = wp.host_bytes;
  wp.used = 0;
  wp.host_bytes = 0;
  if (crash_tracking_) {
    flash_.stage_oob(page, std::move(wp.staged));
    wp.staged.clear();
  }
  const TimeNs issue_at = std::max(ready, wp.last_issue_at);
  wp.last_issue_at = issue_at;
  if (++wp.next_page == geom_.pages_per_block) {
    set_block_state(*wp.block, BlockState::kSealed);
    wp.block.reset();
  }
  count_program();
  if (issue_at > eq_.now()) {
    eq_.schedule_at(issue_at, [this, page, host_bytes] {
      program_page(page, host_bytes);
    });
  } else {
    program_page(page, host_bytes);
  }
}

void FtlCore::program_page(flash::PageId page, u64 host_bytes) {
  flash_.program_page(page, geom_.page_bytes, [this, page, host_bytes](
                                                  flash::OpStatus st) {
    buffered_pages_[page] = 0;
    --buffered_count_[geom_.block_of_page(page)];
    if (host_bytes != 0) buffer_.release(host_bytes);
    // Recovery before the drain check: re-driven units may issue new
    // programs that a flush() waiter must still wait for.
    if (st == flash::OpStatus::kProgramFail) on_program_fail(page);
    program_done();
  });
}

void FtlCore::program_done() {
  if (--outstanding_programs_ == 0 && !drain_waiters_.empty()) {
    auto waiters = std::move(drain_waiters_);
    drain_waiters_.clear();
    for (auto& w : waiters) w();
  }
}

flash::PageId FtlCore::drop_open_page(WritePoint& wp) {
  const flash::BlockId b = *wp.block;
  const flash::PageId page = geom_.page_id(b, wp.next_page);
  if (wp.used != 0) {
    buffered_pages_[page] = 0;
    --buffered_count_[b];
    // Host units of the aborted page free their buffer space here; their
    // re-driven copies ride the recovery path, which never re-acquires.
    if (wp.host_bytes != 0) buffer_.release(wp.host_bytes);
  }
  wp.used = 0;
  wp.host_bytes = 0;
  wp.staged.clear();
  wp.block.reset();
  return page;
}

void FtlCore::drain(sim::Task done) {
  if (outstanding_programs_ == 0) {
    eq_.schedule_after(0, std::move(done));
  } else {
    drain_waiters_.push_back(std::move(done));
  }
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void FtlCore::maybe_start_gc() {
  if (!gc_running_ && !gc_stuck_ && alloc_.free_blocks() < gc_low_watermark_)
    run_gc();
}

void FtlCore::run_gc() {
  gc_running_ = true;
  ++stats_.gc_runs;
  // Fast path: erase all fully-invalid (e.g. TRIMmed) victims in one
  // parallel wave across their dies — this is how an LSM's whole-file
  // deletes keep device GC effectively free (Fig. 6a).
  std::vector<flash::BlockId> free_wins;
  flash::BlockId victim = ~0ull;
  u32 best = ~0u;
  for (flash::BlockId b = 0; b < geom_.total_blocks(); ++b) {
    if (block_state_[b] != BlockState::kSealed || buffered_count_[b] != 0)
      continue;
    if (valid_units_[b] == 0 && free_wins.size() < 32) free_wins.push_back(b);
    if (valid_units_[b] < best) {
      best = valid_units_[b];
      victim = b;
    }
  }
  if (free_wins.size() > 1) {
    auto join = sim::make_join((int)free_wins.size(), [this](Status) {
      on_block_freed();
      continue_gc(/*wave=*/true);
    });
    for (flash::BlockId b : free_wins) {
      set_block_state(b, BlockState::kErasing);
      flash_.erase_block(b, [this, b, join](flash::OpStatus st) {
        erased(b, st);
        join->arrive();
      });
    }
    return;
  }
  if (victim == ~0ull) {
    stop_gc();
    return;
  }
  if (gc_victim_chosen(best)) {
    gc_stuck_ = true;
    stop_gc();
    return;
  }
  if (best == 0) {
    finish_gc(victim);
    return;
  }
  // Read every page holding valid units as one batched die-op, then
  // migrate when the last page lands.
  std::vector<flash::PageRead> reads;
  gc_victim_pages(victim, reads);
  flash_.read_multi(reads.data(), (u32)reads.size(), [this, victim] {
    gc_migrate(victim);
    finish_gc(victim);
  });
}

void FtlCore::finish_gc(flash::BlockId victim) {
  set_block_state(victim, BlockState::kErasing);
  flash_.erase_block(victim, [this, victim](flash::OpStatus st) {
    // A victim whose erase fails is already fully migrated: it retires
    // empty and GC keeps hunting for a healthy one.
    if (erased(victim, st)) on_block_freed();
    continue_gc(/*wave=*/false);
  });
}

bool FtlCore::erased(flash::BlockId b, flash::OpStatus st) {
  valid_units_[b] = 0;
  on_block_erased(b);
  if (st == flash::OpStatus::kEraseFail) {
    retire_erase_failed(b);
    return false;
  }
  set_block_state(b, BlockState::kFree);
  alloc_.release(b);
  return true;
}

void FtlCore::continue_gc(bool wave) {
  if (gc_cycle_futile(wave)) {
    gc_stuck_ = true;
    stop_gc();
  } else if (alloc_.free_blocks() < gc_low_watermark_) {
    run_gc();
  } else {
    stop_gc();
  }
}

void FtlCore::stop_gc() {
  gc_running_ = false;
  audit_verify();
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

bool FtlCore::host_busy() {
  if (!faults_ || !faults_->host_busy()) return false;
  ++stats_.busy_rejections;
  return true;
}

Status FtlCore::read_status(flash::OpStatus st, flash::PageId bad) {
  if (st == flash::OpStatus::kTimeout) {
    ++stats_.op_timeouts;
    return Status::kTimeout;
  }
  if (st != flash::OpStatus::kUncorrectable) return Status::kOk;
  ++stats_.read_media_errors;
  // The failing command already spent its retry budget and surfaces
  // kMediaError; device-side scrub (RAID/parity rebuild) remaps every
  // live unit of the page at once, so a host retry finds the rebuilt copy
  // on a healthy block (buffered until its new page programs).
  relocate_page(bad);
  return Status::kMediaError;
}

void FtlCore::on_program_fail(flash::PageId page) {
  ++stats_.program_failures;
  ++stats_.reprogrammed_pages;
  // Retire first so the re-drive below can never target the bad block
  // (a GC write point might be the one that owns it).
  retire_block(geom_.block_of_page(page));
  relocate_page(page);
}

void FtlCore::retire_block(flash::BlockId b) {
  if (block_state_[b] == BlockState::kBad) return;
  // The open page of the point still filling `b` will never program:
  // re-place its units once the point has let go of the block, so that
  // placement cannot target it again.
  for (WritePoint* wp : write_points_)
    if (wp->block == b) relocate_page(drop_open_page(*wp));
  set_block_state(b, BlockState::kBad);
  ++stats_.grown_bad_blocks;
  // Not released to the allocator: the block is dead capacity.
}

void FtlCore::retire_erase_failed(flash::BlockId b) {
  ++stats_.erase_failures;
  ++stats_.grown_bad_blocks;
  set_block_state(b, BlockState::kBad);  // never released: dead capacity
}

// ---------------------------------------------------------------------------
// Power loss and mount
// ---------------------------------------------------------------------------

FtlCore::PowerCut FtlCore::cut_power() {
  if (!crash_tracking_)
    throw std::logic_error("power_fail_and_recover needs crash tracking");
  PowerCut cut;
  cut.torn = flash_.power_loss(eq_.now());
  for (const auto& [p, oob] : flash_.committed_oob())
    cut.pages.emplace_back(oob.epoch, p);
  std::sort(cut.pages.begin(), cut.pages.end());
  std::fill(buffered_pages_.begin(), buffered_pages_.end(), 0);
  std::fill(buffered_count_.begin(), buffered_count_.end(), 0);
  std::fill(valid_units_.begin(), valid_units_.end(), 0);
  outstanding_programs_ = 0;
  drain_waiters_.clear();
  gc_running_ = false;
  gc_stuck_ = false;
  gc_futile_streak_ = 0;
  buffer_.reset();
  return cut;
}

u64 FtlCore::mount(const PowerCut& cut, u32 scan_bytes, TimeNs cpu_done,
                   sim::Task done) {
  // Block states: grown-bad and index blocks persist (the bad-block table
  // is durable). A block holding committed or torn pages seals — write
  // points never resume across a power cycle, and a torn page poisons the
  // rest of its block until GC erases it. The rest is free; erase counts
  // are physical wear and survive.
  std::vector<u8> has_data(geom_.total_blocks(), 0);
  for (const auto& [epoch, p] : cut.pages) has_data[geom_.block_of_page(p)] = 1;
  for (flash::PageId p : cut.torn) has_data[geom_.block_of_page(p)] = 1;
  std::vector<flash::BlockId> free_list;
  for (flash::BlockId b = 0; b < geom_.total_blocks(); ++b) {
    if (block_state_[b] == BlockState::kBad ||
        block_state_[b] == BlockState::kIndexBlock)
      continue;
    set_block_state(b, has_data[b] ? BlockState::kSealed : BlockState::kFree,
                    /*mount=*/true);
    if (!has_data[b]) free_list.push_back(b);
  }
  alloc_.reset_free(free_list);

  // One small read per page that holds (or tore) data, batched per die
  // like the normal read path, joined with the firmware's rebuild time.
  std::vector<flash::PageRead> scan;
  scan.reserve(cut.pages.size() + cut.torn.size());
  for (const auto& [epoch, p] : cut.pages)
    scan.push_back(flash::PageRead{p, scan_bytes});
  for (flash::PageId p : cut.torn)
    scan.push_back(flash::PageRead{p, scan_bytes});
  std::sort(scan.begin(), scan.end(),
            [](const flash::PageRead& a, const flash::PageRead& b) {
              return a.page < b.page;
            });
  auto join = sim::make_join(
      (scan.empty() ? 0 : 1) + 1,
      [done = std::move(done)](Status) mutable { done(); });
  eq_.schedule_at(cpu_done, [join] { join->arrive(); });
  if (!scan.empty())
    flash_.read_multi(scan.data(), (u32)scan.size(),
                      [join] { join->arrive(); });
  return scan.size();
}

}  // namespace kvsim::ssd
