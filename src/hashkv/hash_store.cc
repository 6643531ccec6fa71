#include "hashkv/hash_store.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

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
    : eq_(eq), dev_(dev), cfg_(cfg) {
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

  // A full buffer needs a free write block to flush into.
  if (buf_used_ + rec_size > cfg_.write_block_bytes &&
      free_blocks_.empty()) {
    done(Status::kDeviceFull);
    return;
  }

  const std::string k(key);
  auto it = index_.find(k);
  bool old_on_device = false;
  Rec old{};
  if (it != index_.end()) {
    old = it->second;
    old_on_device = old.wb != kBufferBlock;
    invalidate(k, it->second);
    app_bytes_live_ -=
        std::min<u64>(app_bytes_live_, k.size() + it->second.vsize);
  }
  app_bytes_live_ += k.size() + value.size;
  append_record(k, value, nullptr, false);

  if (cfg_.read_before_update && old_on_device) {
    // Update path: fetch the old record (bin merge / generation check)
    // before acknowledging the write.
    const u32 sector = cfg_.read_sector_bytes;
    const u32 first = old.offset / sector * sector;
    const u32 span =
        (old.offset + old.size - first + sector - 1) / sector * sector;
    dev_.read(wb_lba(old.wb, first), span,
              [t_cpu, this, done = std::move(done)](Status, u64) mutable {
                // Ack once both the CPU slot and the read are complete; the
                // read may finish after t_cpu, so never target the past.
                eq_.schedule_at(std::max(t_cpu, eq_.now()),
                                [done = std::move(done)]() mutable {
                                  done(Status::kOk);
                                });
              });
    return;
  }
  eq_.schedule_at(t_cpu,
                  [done = std::move(done)]() mutable { done(Status::kOk); });
}

void HashKvStore::append_record(const std::string& key, ValueDesc value,
                                const std::function<void(Status)>&,
                                bool is_defrag) {
  const u32 rec_size = (u32)record_device_bytes((u32)key.size(), value.size);
  if (buf_used_ + rec_size > cfg_.write_block_bytes)
    flush_buffer([](Status) {});
  index_[key] = Rec{kBufferBlock, buf_gen_, buf_used_, rec_size, value.size,
                    value.fingerprint};
  if (cfg_.crash_tracking)
    buf_recs_.push_back(
        DurableLogRec{key, buf_used_, rec_size, value.size,
                      value.fingerprint});
  buf_keys_.push_back(key);
  buf_used_ += rec_size;
  if (is_defrag) cpu_ns_ += cfg_.buffer_copy_ns;
}

void HashKvStore::flush_buffer(std::function<void(Status)> done) {
  if (buf_used_ == 0 || free_blocks_.empty()) {
    done(buf_used_ == 0 ? Status::kOk : Status::kDeviceFull);
    return;
  }
  const u32 b = free_blocks_.back();
  free_blocks_.pop_back();
  blocks_[b].free = false;
  const u32 gen = buf_gen_;
  const u32 used = buf_used_;
  auto keys = std::make_shared<std::vector<std::string>>(
      std::move(buf_keys_));
  // Fresh buffer for subsequent appends.
  if (cfg_.crash_tracking) {
    // Ledger the block at write issue: from here on its fate belongs to
    // the device, and a cold restart decides durability by probing it.
    durable_log_[b] =
        DurableLogBlock{flush_seq_++, gen, used, std::move(buf_recs_)};
    buf_recs_.clear();
  }
  ++buf_gen_;
  buf_used_ = 0;
  buf_keys_.clear();

  ++outstanding_flushes_;
  dev_.write(wb_lba(b, 0), (u32)cfg_.write_block_bytes, ((u64)b << 32) | gen,
             [this, b, gen, used, keys, done = std::move(done)](Status s) {
               WriteBlock& wb = blocks_[b];
               wb.used = used;
               wb.live = 0;
               wb.keys.clear();
               for (const std::string& k : *keys) {
                 auto it = index_.find(k);
                 if (it == index_.end() || it->second.wb != kBufferBlock ||
                     it->second.buf_gen != gen)
                   continue;  // deleted or re-written meanwhile
                 it->second.wb = b;
                 wb.live += it->second.size;
                 wb.keys.push_back(k);
               }
               maybe_queue_defrag(b);
               --outstanding_flushes_;
               // Admit puts that waited on backpressure.
               while (!waiting_puts_.empty() && outstanding_flushes_ < 4) {
                 auto w = std::move(waiting_puts_.front());
                 waiting_puts_.pop_front();
                 put(w.first, w.second.first, std::move(w.second.second));
               }
               maybe_drain_done();
               done(s);
             });
}

void HashKvStore::invalidate(const std::string& key, const Rec& old) {
  (void)key;
  if (old.wb == kBufferBlock) return;  // still staged in RAM
  WriteBlock& wb = blocks_[old.wb];
  wb.live -= std::min(wb.live, old.size);
  maybe_queue_defrag(old.wb);
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
  dev_.read(wb_lba(b, 0), (u32)cfg_.write_block_bytes, [this, b](Status,
                                                                 u64) {
    WriteBlock& wb = blocks_[b];
    std::vector<std::string> live_keys;
    for (const std::string& k : wb.keys) {
      auto it = index_.find(k);
      if (it != index_.end() && it->second.wb == b) live_keys.push_back(k);
    }
    const TimeNs cpu =
        (TimeNs)live_keys.size() * cfg_.defrag_cpu_per_record_ns;
    cpu_ns_ += cpu;
    const TimeNs t = defrag_cpu_.reserve(eq_.now(), cpu);
    eq_.schedule_at(t, [this, b, live_keys = std::move(live_keys)] {
      for (const std::string& k : live_keys) {
        auto it = index_.find(k);
        if (it == index_.end() || it->second.wb != b) continue;
        append_record(k, ValueDesc{it->second.vsize, it->second.vfp}, nullptr,
                      true);
      }
      WriteBlock& wb = blocks_[b];
      wb.free = true;
      wb.used = 0;
      wb.live = 0;
      wb.keys.clear();
      free_blocks_.push_back(b);
      // The erase takes the block's records with it; live ones were just
      // re-appended and will be ledgered again by the next flush.
      if (cfg_.crash_tracking) durable_log_.erase(b);
      dev_.trim(wb_lba(b, 0), cfg_.write_block_bytes,
                [this](Status) { run_defrag(); });
    });
  });
}

// ---------------------------------------------------------------------------
// Read / delete
// ---------------------------------------------------------------------------

void HashKvStore::get(std::string_view key, GetDone done) {
  const TimeNs cost = cfg_.api_ns + cfg_.index_cpu_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  auto it = index_.find(key);
  if (it == index_.end()) {
    eq_.schedule_at(t_cpu, [done = std::move(done)]() mutable {
      done(Status::kNotFound, ValueDesc{});
    });
    return;
  }
  const Rec rec = it->second;
  const ValueDesc out{rec.vsize, rec.vfp};
  if (rec.wb == kBufferBlock) {  // record still staged in host RAM
    eq_.schedule_at(t_cpu + cfg_.buffer_copy_ns,
                    [out, done = std::move(done)]() mutable {
                      done(Status::kOk, out);
                    });
    return;
  }
  // Direct I/O: read the sectors covering the record.
  const u32 sector = cfg_.read_sector_bytes;
  const u32 first = rec.offset / sector * sector;
  const u32 span =
      (rec.offset + rec.size - first + sector - 1) / sector * sector;
  dev_.read(wb_lba(rec.wb, first), span,
            [out, done = std::move(done)](Status s, u64) mutable {
              done(s == Status::kOk ? Status::kOk : s, out);
            });
}

void HashKvStore::del(std::string_view key, PutDone done) {
  const TimeNs cost = cfg_.api_ns + cfg_.index_cpu_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);
  auto it = index_.find(key);
  if (it == index_.end()) {
    eq_.schedule_at(t_cpu, [done = std::move(done)]() mutable {
      done(Status::kNotFound);
    });
    return;
  }
  invalidate(it->first, it->second);
  app_bytes_live_ -=
      std::min<u64>(app_bytes_live_, it->first.size() + it->second.vsize);
  index_.erase(it);
  eq_.schedule_at(t_cpu,
                  [done = std::move(done)]() mutable { done(Status::kOk); });
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void HashKvStore::power_fail_and_recover(HostRecovery& out, sim::Task done) {
  const TimeNs now = eq_.now();

  // Acked state before the cut, for the lost-write count.
  std::vector<std::pair<std::string, u64>> pre;
  pre.reserve(index_.size());
  for (const auto& [k, r] : index_) pre.emplace_back(k, r.vfp);

  // ---- power loss: the RAM index and write buffer are gone ---------------
  index_.clear();
  buf_used_ = 0;
  buf_keys_.clear();
  buf_recs_.clear();
  waiting_puts_.clear();  // held by backpressure, never acked
  defrag_queue_.clear();
  defrag_running_ = false;
  outstanding_flushes_ = 0;
  drain_waiters_.clear();
  app_bytes_live_ = 0;
  fg_cpu_.power_cycle(now);
  defrag_cpu_.power_cycle(now);
  for (auto& wb : blocks_) wb = WriteBlock{};
  free_blocks_.clear();

  struct Gate {
    int pending = 1;
    sim::Task done;
    void open() {
      if (--pending == 0) done();
    }
  };
  auto gate = std::make_shared<Gate>();
  gate->done = std::move(done);

  // ---- cold restart: scan flushed write blocks in flush order ------------
  // Later flushes carry newer record versions, so applying headers in
  // flush order leaves the index pointing at the newest durable copy.
  std::vector<std::pair<u32, const DurableLogBlock*>> scan;
  scan.reserve(durable_log_.size());
  for (const auto& [b, led] : durable_log_) scan.emplace_back(b, &led);
  std::sort(scan.begin(), scan.end(), [](const auto& a, const auto& b) {
    return a.second->flush_seq < b.second->flush_seq;
  });

  u64 applied = 0;
  std::vector<u32> torn;
  for (const auto& [b, led] : scan) {
    ++out.log_blocks_scanned;
    ++gate->pending;
    dev_.read(wb_lba(b, 0), (u32)cfg_.write_block_bytes,
              [gate](Status, u64) { gate->open(); });
    const Lba lba = wb_lba(b, 0);
    const u64 fp = ((u64)b << 32) | led->gen;
    const bool durable =
        dev_.ftl().probe_durable_slots(lba, (u32)cfg_.write_block_bytes,
                                       fp) ==
        dev_.ftl().probe_total_slots(lba, (u32)cfg_.write_block_bytes);
    if (!durable) {
      // The 128 KiB block write was still (partly) in the device's
      // volatile write path: every record in it is gone.
      ++out.torn_blocks;
      torn.push_back(b);
      continue;
    }
    blocks_[b].free = false;
    blocks_[b].used = led->used;
    for (const DurableLogRec& r : led->recs) {
      index_[r.key] = Rec{b, 0, r.offset, r.size, r.vsize, r.vfp};
      ++applied;
    }
  }
  for (u32 b : torn) durable_log_.erase(b);

  // Rebuild per-block live bytes and key lists from the final index, in
  // sorted key order so recovery (and any defrag it kicks off) is
  // deterministic.
  std::vector<std::pair<std::string, Rec>> final_recs(index_.begin(),
                                                      index_.end());
  std::sort(final_recs.begin(), final_recs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [k, r] : final_recs) {
    blocks_[r.wb].live += r.size;
    blocks_[r.wb].keys.push_back(k);
    app_bytes_live_ += k.size() + r.vsize;
  }
  out.recovered_records = index_.size();

  // Free list in the same descending order the constructor uses.
  for (u32 b = (u32)blocks_.size(); b-- > 0;)
    if (blocks_[b].free) free_blocks_.push_back(b);

  for (const auto& [k, vfp] : pre) {
    auto it = index_.find(k);
    if (it == index_.end() || it->second.vfp != vfp) ++out.lost_records;
  }

  // Index-rebuild CPU: one primary-index insert per applied header.
  const TimeNs cpu = (TimeNs)applied * cfg_.index_cpu_ns;
  cpu_ns_ += cpu;
  ++gate->pending;
  eq_.schedule_at(fg_cpu_.reserve(now, cpu), [gate] { gate->open(); });

  // Low-occupancy survivors go back on the defrag queue (background;
  // not part of the mount itself).
  for (u32 b = 0; b < (u32)blocks_.size(); ++b)
    if (!blocks_[b].free) maybe_queue_defrag(b);

  gate->open();  // release the initial hold
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

void HashKvStore::drain(sim::Task done) {
  drain_waiters_.push_back(std::move(done));
  if (buf_used_ > 0) flush_buffer([](Status) {});
  maybe_drain_done();
}

void HashKvStore::maybe_drain_done() {
  if (drain_waiters_.empty()) return;
  if (buf_used_ > 0 || outstanding_flushes_ > 0 || defrag_running_ ||
      !defrag_queue_.empty() || !waiting_puts_.empty())
    return;
  auto waiters = std::move(drain_waiters_);
  drain_waiters_.clear();
  for (auto& w : waiters) w();
}

}  // namespace kvsim::hashkv
