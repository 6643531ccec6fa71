#include "hashkv/hash_store.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/hash.h"
#include "sim/join.h"

namespace kvsim::hashkv {

void HashKvConfig::validate() const {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("HashKvConfig: ") + what);
  };
  if (record_align == 0 || (record_align & (record_align - 1)) != 0)
    fail("record_align must be a power of two");
  if (read_sector_bytes == 0 || write_block_bytes == 0 ||
      write_block_bytes % read_sector_bytes != 0)
    fail("write_block_bytes must be a positive multiple of read_sector_bytes");
  if (!(defrag_threshold >= 0.0 && defrag_threshold <= 1.0))
    fail("defrag_threshold must lie in [0, 1]");
}

HashKvStore::HashKvStore(sim::EventQueue& eq, blockapi::BlockDevice& dev,
                         const HashKvConfig& cfg)
    : eq_(eq),
      dev_(dev),
      cfg_(cfg),
      crash_tracking_(dev.ftl().crash_tracking()) {
  cfg_.validate();
  const u64 nblocks = dev_.capacity_bytes() / cfg_.write_block_bytes;
  blocks_.resize(nblocks);
  free_blocks_.reserve(nblocks);
  for (u32 b = (u32)nblocks; b-- > 0;) free_blocks_.push_back(b);
}

u64 HashKvStore::record_device_bytes(u32 key_bytes, u32 value_bytes) const {
  const u64 raw = cfg_.record_header_bytes + key_bytes + value_bytes;
  return (raw + cfg_.record_align - 1) / cfg_.record_align * cfg_.record_align;
}

u64 HashKvStore::device_bytes_used() const {
  u64 used = 0;
  for (const auto& wb : blocks_)
    if (!wb.free) used += cfg_.write_block_bytes;
  return used + buf_used_;
}

// ---------------------------------------------------------------------------
// Records and key lists
// ---------------------------------------------------------------------------
//
// Every closure on the op, flush and defrag paths captures only
// {this, slot} or {this, block}, so it fits sim::Fn's inline buffer: once
// the pools and lists have grown to their peak, an op allocates nothing.
// A callback may issue ops and grow the pools, so records are re-indexed
// after every call out of the store.

u32 HashKvStore::id_for(std::string_view key, u64 h) {
  u32 id = find(key, h);
  if (id != KeyIndex::kNone) return id;
  if (free_ids_.empty()) {
    id = (u32)recs_.size();
    recs_.emplace_back();
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  recs_[id].key.assign(key);  // deleted and unreferenced, new or recycled
  index_.insert(h, id);
  return id;
}

void HashKvStore::unref(u32 id) {
  Rec& r = recs_[id];
  if (--r.refs == 0 && r.wb == kDeleted) forget(id, hash64(r.key));
}

void HashKvStore::forget(u32 id, u64 h) {
  index_.erase(h, id);
  free_ids_.push_back(id);
}

void HashKvStore::clear_ids(std::vector<u32>& ids) {
  for (u32 id : ids) unref(id);
  ids.clear();
}

void HashKvStore::finish(u32 slot, Status s) {
  Op& op = ops_[slot];
  const ValueDesc v = op.value;
  PutDone done = std::move(op.done);
  GetDone got = std::move(op.got);
  ops_.release(slot);  // before the callback, which may issue more ops
  if (got) {
    got(s, v);
  } else {
    done(s);
  }
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void HashKvStore::put(std::string_view key, ValueDesc value, PutDone done) {
  const u64 rec_size = record_device_bytes((u32)key.size(), value.size);
  if (rec_size > cfg_.write_block_bytes) {
    done(Status::kInvalidArgument);
    return;
  }
  // Bound the number of write blocks in flight: past that, arrivals wait
  // (device backpressure).
  if (outstanding_flushes_ >= 4) {
    waiting_puts_.emplace_back(std::string(key),
                               std::make_pair(value, std::move(done)));
    return;
  }
  const TimeNs cost =
      cfg_.api_ns + cfg_.index_cpu_ns + cfg_.buffer_copy_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  // Admit the put only if the active buffer keeps a free write block to
  // flush into afterwards. Then a drain can always flush, and so can a
  // defrag: its re-appends (less than a block) flush at most once, and it
  // frees its own block right after.
  const bool flushes = buf_used_ + rec_size > cfg_.write_block_bytes;
  if (free_blocks_.size() < (flushes ? 2u : 1u)) {
    done(Status::kDeviceFull);
    return;
  }

  const u32 id = id_for(key, hash64(key));
  const Rec& old = recs_[id];
  const u32 old_wb = old.wb;
  const u32 old_size = old.size;
  const u32 old_vsize = old.vsize;
  const auto [first, span] = sector_span(old.offset, old.size);
  if (old_wb != kDeleted) {
    invalidate(old_wb, old_size);
    app_bytes_live_ -= std::min<u64>(app_bytes_live_, key.size() + old_vsize);
  } else {
    ++live_records_;
  }
  app_bytes_live_ += key.size() + value.size;
  append_record(id, value, false);

  const u32 slot = ops_.acquire();
  ops_[slot].done = std::move(done);
  if (old_wb != kDeleted && old_wb != kBufferBlock) {
    // Aerospike's update path: fetch the old record (bin merge /
    // generation check) before acknowledging the write. This is why
    // KV-SSD beats Aerospike for updates (paper Fig. 2b).
    ops_[slot].t_cpu = t_cpu;
    dev_.read(wb_lba(old_wb, first), span, [this, slot](Status, u64) {
      // Ack once both the CPU slot and the read are complete; the read
      // may finish after t_cpu, so never target the past.
      eq_.schedule_at(std::max(ops_[slot].t_cpu, eq_.now()),
                      [this, slot] { finish(slot, Status::kOk); });
    });
    return;
  }
  eq_.schedule_at(t_cpu, [this, slot] { finish(slot, Status::kOk); });
}

void HashKvStore::append_record(u32 id, ValueDesc value, bool is_defrag) {
  const u32 rec_size =
      (u32)record_device_bytes((u32)recs_[id].key.size(), value.size);
  if (buf_used_ + rec_size > cfg_.write_block_bytes && !flush_buffer())
    throw std::logic_error(
        "HashKvStore: no free write block for a full buffer");
  Rec& r = recs_[id];
  r.wb = kBufferBlock;
  r.buf_gen = buf_gen_;
  r.offset = buf_used_;
  r.size = rec_size;
  r.vsize = value.size;
  r.vfp = value.fingerprint;
  ++r.refs;
  if (crash_tracking_)
    buf_recs_.push_back(DurableLogRec{r.key, buf_used_, rec_size, value.size,
                                      value.fingerprint});
  buf_ids_.push_back(id);
  buf_used_ += rec_size;
  if (is_defrag) cpu_ns_ += cfg_.buffer_copy_ns;
}

bool HashKvStore::flush_buffer() {
  if (free_blocks_.empty()) return false;
  const u32 b = free_blocks_.back();
  free_blocks_.pop_back();
  blocks_[b].free = false;
  const u32 gen = buf_gen_;
  const u32 slot = flushes_.acquire();
  Flush& f = flushes_[slot];
  f.block = b;
  f.gen = gen;
  f.used = buf_used_;
  f.ids.swap(buf_ids_);  // the buffer takes the record's emptied list
  if (crash_tracking_) {
    // Ledger the block at write issue: from here on its fate belongs to
    // the device, and a cold restart decides durability by probing it.
    durable_log_[b] =
        DurableLogBlock{flush_seq_++, gen, buf_used_, std::move(buf_recs_)};
    buf_recs_.clear();
  }
  // Fresh buffer for subsequent appends.
  ++buf_gen_;
  buf_used_ = 0;

  ++outstanding_flushes_;
  dev_.write(wb_lba(b, 0), (u32)cfg_.write_block_bytes, ((u64)b << 32) | gen,
             [this, slot](Status) { on_flushed(slot); });
  return true;
}

void HashKvStore::on_flushed(u32 slot) {
  Flush& f = flushes_[slot];
  const u32 b = f.block;
  WriteBlock& wb = blocks_[b];
  wb.used = f.used;
  wb.live = 0;
  clear_ids(wb.ids);
  for (u32 id : f.ids) {
    Rec& r = recs_[id];
    if (r.wb != kBufferBlock || r.buf_gen != f.gen) {
      unref(id);  // deleted or re-written meanwhile
      continue;
    }
    r.wb = b;
    wb.live += r.size;
    wb.ids.push_back(id);  // the entry's reference moves with it
  }
  f.ids.clear();
  flushes_.release(slot);
  maybe_queue_defrag(b);
  --outstanding_flushes_;
  // Admit puts that waited on backpressure.
  while (!waiting_puts_.empty() && outstanding_flushes_ < 4) {
    auto w = std::move(waiting_puts_.front());
    waiting_puts_.pop_front();
    put(w.first, w.second.first, std::move(w.second.second));
  }
  maybe_drain_done();
}

void HashKvStore::invalidate(u32 b, u32 size) {
  if (b == kBufferBlock) return;  // still staged in RAM
  WriteBlock& wb = blocks_[b];
  wb.live -= std::min(wb.live, size);
  maybe_queue_defrag(b);
}

void HashKvStore::maybe_queue_defrag(u32 b) {
  WriteBlock& wb = blocks_[b];
  if (wb.free || wb.in_defrag_queue || wb.used == 0) return;
  if ((double)wb.live / (double)wb.used >= cfg_.defrag_threshold) return;
  wb.in_defrag_queue = true;
  defrag_queue_.push_back(b);
  if (!defrag_running_) run_defrag();
}

void HashKvStore::run_defrag() {
  if (defrag_queue_.empty()) {
    defrag_running_ = false;
    maybe_drain_done();
    return;
  }
  defrag_running_ = true;
  const u32 b = defrag_queue_.front();
  defrag_queue_.pop_front();
  blocks_[b].in_defrag_queue = false;
  if (blocks_[b].free) {
    run_defrag();
    return;
  }
  ++defrags_;
  dev_.read(wb_lba(b, 0), (u32)cfg_.write_block_bytes,
            [this, b](Status, u64) { defrag_read_done(b); });
}

void HashKvStore::defrag_read_done(u32 b) {
  for (u32 id : blocks_[b].ids) {
    if (recs_[id].wb != b) continue;
    ++recs_[id].refs;
    defrag_live_.push_back(id);
  }
  const TimeNs cpu =
      (TimeNs)defrag_live_.size() * cfg_.defrag_cpu_per_record_ns;
  cpu_ns_ += cpu;
  const TimeNs t = defrag_cpu_.reserve(eq_.now(), cpu);
  eq_.schedule_at(t, [this, b] { defrag_rewrite(b); });
}

void HashKvStore::defrag_rewrite(u32 b) {
  for (u32 id : defrag_live_) {
    const Rec& r = recs_[id];
    if (r.wb == b) append_record(id, ValueDesc{r.vsize, r.vfp}, true);
  }
  clear_ids(defrag_live_);
  WriteBlock& wb = blocks_[b];
  wb.free = true;
  wb.used = 0;
  wb.live = 0;
  clear_ids(wb.ids);
  free_blocks_.push_back(b);
  // The erase takes the block's records with it; live ones were just
  // re-appended and will be ledgered again by the next flush.
  if (crash_tracking_) durable_log_.erase(b);
  dev_.trim(wb_lba(b, 0), cfg_.write_block_bytes,
            [this](Status) { run_defrag(); });
}

// ---------------------------------------------------------------------------
// Read / delete
// ---------------------------------------------------------------------------

void HashKvStore::get(std::string_view key, GetDone done) {
  const TimeNs cost = cfg_.api_ns + cfg_.index_cpu_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  const u32 slot = ops_.acquire();
  Op& op = ops_[slot];
  op.got = std::move(done);
  const u32 id = find(key, hash64(key));
  if (id == KeyIndex::kNone || recs_[id].wb == kDeleted) {
    op.value = ValueDesc{};
    eq_.schedule_at(t_cpu, [this, slot] { finish(slot, Status::kNotFound); });
    return;
  }
  const Rec& r = recs_[id];
  op.value = ValueDesc{r.vsize, r.vfp};
  if (r.wb == kBufferBlock) {  // record still staged in host RAM
    eq_.schedule_at(t_cpu + cfg_.buffer_copy_ns,
                    [this, slot] { finish(slot, Status::kOk); });
    return;
  }
  // Direct I/O: read the sectors covering the record.
  const auto [first, span] = sector_span(r.offset, r.size);
  dev_.read(wb_lba(r.wb, first), span,
            [this, slot](Status s, u64) { finish(slot, s); });
}

void HashKvStore::del(std::string_view key, PutDone done) {
  const TimeNs cost = cfg_.api_ns + cfg_.index_cpu_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);
  const u32 slot = ops_.acquire();
  ops_[slot].done = std::move(done);
  const u64 h = hash64(key);
  const u32 id = find(key, h);
  if (id == KeyIndex::kNone || recs_[id].wb == kDeleted) {
    eq_.schedule_at(t_cpu, [this, slot] { finish(slot, Status::kNotFound); });
    return;
  }
  invalidate(recs_[id].wb, recs_[id].size);
  Rec& r = recs_[id];
  app_bytes_live_ -= std::min<u64>(app_bytes_live_, key.size() + r.vsize);
  r.wb = kDeleted;
  --live_records_;
  if (r.refs == 0) forget(id, h);
  eq_.schedule_at(t_cpu, [this, slot] { finish(slot, Status::kOk); });
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void HashKvStore::power_fail_and_recover(ssd::CrashOutcome& out,
                                         sim::Task done) {
  const TimeNs now = eq_.now();

  // Acked state before the cut, for the lost-write count: the records
  // not deleted.
  const std::vector<Rec> pre = std::move(recs_);

  // ---- power loss: the RAM index and write buffer are gone ---------------
  index_.clear();
  recs_.clear();
  free_ids_.clear();
  live_records_ = 0;
  ops_.clear();  // the callbacks die unrun with their ops
  flushes_.clear();
  buf_used_ = 0;
  buf_ids_.clear();
  buf_recs_.clear();
  waiting_puts_.clear();  // held by backpressure, never acked
  defrag_queue_.clear();
  defrag_running_ = false;
  defrag_live_.clear();
  outstanding_flushes_ = 0;
  drain_waiters_.clear();
  app_bytes_live_ = 0;
  fg_cpu_.power_cycle(now);
  defrag_cpu_.power_cycle(now);
  for (auto& wb : blocks_) wb = WriteBlock{};
  free_blocks_.clear();

  // ---- cold restart: scan flushed write blocks in flush order ------------
  // Later flushes carry newer record versions, so applying headers in
  // flush order leaves the index pointing at the newest durable copy.
  std::vector<std::pair<u32, const DurableLogBlock*>> scan;
  scan.reserve(durable_log_.size());
  for (const auto& [b, led] : durable_log_) scan.emplace_back(b, &led);
  std::sort(scan.begin(), scan.end(), [](const auto& a, const auto& b) {
    return a.second->flush_seq < b.second->flush_seq;
  });

  // One arrival per block read, one for the index-rebuild CPU.
  auto join = sim::make_join(
      (int)scan.size() + 1,
      [done = std::move(done)](Status) mutable { done(); });
  out.log_blocks_scanned = scan.size();
  u64 applied = 0;
  std::vector<u32> torn;
  for (const auto& [b, led] : scan) {
    dev_.read(wb_lba(b, 0), (u32)cfg_.write_block_bytes,
              [join](Status, u64) { join->arrive(); });
    const Lba lba = wb_lba(b, 0);
    const u64 fp = ((u64)b << 32) | led->gen;
    const bool durable =
        dev_.ftl().probe_durable_slots(lba, (u32)cfg_.write_block_bytes,
                                       fp) ==
        dev_.ftl().probe_total_slots(lba, (u32)cfg_.write_block_bytes);
    if (!durable) {
      // The 128 KiB block write was still (partly) in the device's
      // volatile write path: every record in it is gone.
      torn.push_back(b);
      continue;
    }
    blocks_[b].free = false;
    blocks_[b].used = led->used;
    for (const DurableLogRec& lr : led->recs) {
      Rec& r = recs_[id_for(lr.key, hash64(lr.key))];
      if (r.wb == kDeleted) ++live_records_;
      r.wb = b;
      r.buf_gen = 0;
      r.offset = lr.offset;
      r.size = lr.size;
      r.vsize = lr.vsize;
      r.vfp = lr.vfp;
      ++applied;
    }
  }
  for (u32 b : torn) durable_log_.erase(b);

  // Rebuild per-block live bytes and key lists from the final index, in
  // sorted key order so recovery (and any defrag it kicks off) is
  // deterministic. Every record is live.
  std::vector<u32> by_key(recs_.size());
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(),
            [this](u32 a, u32 b) { return recs_[a].key < recs_[b].key; });
  for (u32 id : by_key) {
    Rec& r = recs_[id];
    blocks_[r.wb].live += r.size;
    blocks_[r.wb].ids.push_back(id);
    ++r.refs;
    app_bytes_live_ += r.key.size() + r.vsize;
  }
  out.recovered_units = live_records_;

  // Free list in the same descending order the constructor uses.
  for (u32 b = (u32)blocks_.size(); b-- > 0;)
    if (blocks_[b].free) free_blocks_.push_back(b);

  out.lost_units = 0;  // records, in place of the FTL's slots
  for (const Rec& p : pre) {
    if (p.wb == kDeleted) continue;
    const u32 id = find(p.key, hash64(p.key));
    if (id == KeyIndex::kNone || recs_[id].vfp != p.vfp) ++out.lost_units;
  }

  // Index-rebuild CPU: one primary-index insert per applied header.
  const TimeNs cpu = (TimeNs)applied * cfg_.index_cpu_ns;
  cpu_ns_ += cpu;
  eq_.schedule_at(fg_cpu_.reserve(now, cpu), [join] { join->arrive(); });

  // Low-occupancy survivors go back on the defrag queue (background;
  // not part of the mount itself).
  for (u32 b = 0; b < (u32)blocks_.size(); ++b)
    if (!blocks_[b].free) maybe_queue_defrag(b);
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

void HashKvStore::drain(sim::Task done) {
  drain_waiters_.push_back(std::move(done));
  if (buf_used_ > 0) flush_buffer();
  maybe_drain_done();
}

void HashKvStore::maybe_drain_done() {
  if (drain_waiters_.empty()) return;
  if (outstanding_flushes_ > 0 || defrag_running_ ||
      !defrag_queue_.empty() || !waiting_puts_.empty())
    return;
  // Otherwise idle. Defrag may have re-staged records after the drain's
  // flush: write them out too. (put's admission rule keeps a write block
  // free for them; were none free, none could be freed any more, and the
  // records would stay in RAM.)
  if (buf_used_ > 0 && flush_buffer()) return;
  auto waiters = std::move(drain_waiters_);
  drain_waiters_.clear();
  for (auto& w : waiters) w();
}

}  // namespace kvsim::hashkv
