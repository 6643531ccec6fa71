#include "lsm/lsm_store.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/join.h"
#include "ssd/audit.h"

namespace kvsim::lsm {

namespace {
u64 mem_entry_bytes(std::string_view key, const ValueDesc& v) {
  return key.size() + v.size + 48;
}

const LsmConfig& validated(const LsmConfig& cfg) {
  cfg.validate();
  return cfg;
}

/// KVSIM_AUDIT: once a flush or a compaction has installed `fresh`, check
/// that each new table's keys ascend and that every level >= 1 is sorted
/// and free of overlaps.
using Levels = std::vector<std::vector<std::shared_ptr<Sst>>>;
void audit_install(std::span<const std::shared_ptr<Sst>> fresh,
                   const Levels& levels) {
#if KVSIM_AUDIT
  for (const auto& s : fresh) audit_sst_keys(*s);
  for (u32 l = 1; l < (u32)levels.size(); ++l) audit_level(l, levels[l]);
#else
  (void)fresh;
  (void)levels;
#endif
}
}  // namespace

void LsmConfig::validate() const {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("LsmConfig: ") + what);
  };
  if (data_block_bytes == 0) fail("data_block_bytes must be nonzero");
  if (sst_target_bytes == 0) fail("sst_target_bytes must be nonzero");
  if (io_chunk_bytes == 0) fail("io_chunk_bytes must be nonzero");
  if (num_levels < 2) fail("num_levels must be at least 2");
  if (level_size_ratio < 2) fail("level_size_ratio must be at least 2");
  if (l0_stall_limit < l0_compaction_trigger)
    fail("l0_stall_limit must not be below l0_compaction_trigger");
  if (sst_target_bytes > kMaxSstBytes || memtable_bytes > kMaxSstBytes)
    fail("SST size past what the 32-bit entry offset can address");
}

LsmStore::LsmStore(sim::EventQueue& eq, fs::FileSystem& fs,
                   const LsmConfig& cfg)
    : eq_(eq),
      fs_(fs),
      cfg_(validated(cfg)),
      crash_tracking_(fs.crash_tracking()),
      levels_(cfg.num_levels),
      compact_rr_(cfg.num_levels, 0),
      block_cache_(cfg.block_cache_bytes / cfg.data_block_bytes) {
  wal_file_ = fs_.create("wal-0");
  if (crash_tracking_) wal_ledger_.file = wal_file_;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void LsmStore::put(std::string_view key, ValueDesc value, PutDone done) {
  do_write(key, value, false, std::move(done));
}

void LsmStore::del(std::string_view key, PutDone done) {
  do_write(key, ValueDesc{}, true, std::move(done));
}

bool LsmStore::stalled() const {
  return (immutable_ && mt_bytes_ >= cfg_.memtable_bytes) ||
         levels_[0].size() >= cfg_.l0_stall_limit;
}

void LsmStore::do_write(std::string_view key, ValueDesc value, bool tombstone,
                        PutDone done) {
  if (stalled()) {
    ++stall_events_;
    stalled_writes_.push_back(
        PendingWrite{std::string(key), value, tombstone, std::move(done)});
    return;
  }
  const TimeNs cost =
      cfg_.api_ns + cfg_.memtable_insert_ns + cfg_.wal_append_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    mt_bytes_ -= std::min(mt_bytes_,
                          mem_entry_bytes(it->first, it->second.value));
    it->second = MemEntry{value, ++seq_, tombstone};
  } else {
    memtable_.emplace(std::string(key), MemEntry{value, ++seq_, tombstone});
  }
  mt_bytes_ += mem_entry_bytes(key, value);

  bool wal_io = false;
  u64 wal_chunk = 0;
  if (crash_tracking_)
    wal_ledger_.buffered.push_back(
        WalRecord{std::string(key), value, tombstone, seq_});
  wal_buffer_bytes_ += key.size() + value.size + 12;
  if (wal_buffer_bytes_ >= 4 * KiB) {
    wal_chunk = wal_buffer_bytes_;
    wal_buffer_bytes_ = 0;
    wal_total_bytes_ += wal_chunk;
    wal_seg_bytes_ += wal_chunk;
    wal_io = true;
    if (crash_tracking_) {
      const u64 bb = fs_.block_bytes();
      const u64 blocks = (wal_chunk + bb - 1) / bb;
      wal_ledger_.chunks.push_back(WalChunk{
          wal_ledger_.next_block, blocks, std::move(wal_ledger_.buffered)});
      wal_ledger_.buffered.clear();
      wal_ledger_.next_block += blocks;
    }
  }

  if (wal_io) {
    auto join = sim::make_join(
        2, [done = std::move(done)](Status s) mutable { done(s); });
    eq_.schedule_at(t_cpu, [join] { join->arrive(); });
    fs_.append(wal_file_, wal_chunk, seq_,
               [join](Status s) { join->arrive(s); });
  } else {
    eq_.schedule_at(t_cpu,
                    [done = std::move(done)]() mutable { done(Status::kOk); });
  }

  if (mt_bytes_ >= cfg_.memtable_bytes && !immutable_) rotate_memtable();
}

void LsmStore::unstall() {
  while (!stalled_writes_.empty() && !stalled()) {
    PendingWrite w = std::move(stalled_writes_.front());
    stalled_writes_.pop_front();
    do_write(w.key, w.value, w.tombstone, std::move(w.done));
  }
}

void LsmStore::rotate_memtable() {
  immutable_ = std::make_shared<Memtable>(std::move(memtable_));
  memtable_.clear();
  mt_bytes_ = 0;
  // Start a fresh WAL segment; the old one dies when the flush lands.
  rotated_wal_ = wal_file_;
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%llu",
                (unsigned long long)++wal_gen_);
  wal_file_ = fs_.create(name);
  wal_buffer_bytes_ = 0;
  if (crash_tracking_) {
    // Records still in the group-commit buffer stay with the archived
    // segment as its unflushed tail: acked, never WAL'd, durable only if
    // the flush's SST makes it to flash.
    archived_wals_.push_back(std::move(wal_ledger_));
    wal_ledger_ = WalLedger{};
    wal_ledger_.file = wal_file_;
  }
  schedule_flush();
}

// ---------------------------------------------------------------------------
// Background jobs: flushes, merges and trivial moves
// ---------------------------------------------------------------------------

void LsmStore::schedule_flush() {
  if (flush_running_ || !immutable_) return;
  flush_running_ = true;
  ++flushes_;
  const u32 slot = jobs_.acquire();
  jobs_[slot].kind = Job::Kind::kFlush;
  read_inputs(slot);
}

u64 LsmStore::level_bytes(u32 level) const {
  u64 sum = 0;
  for (const auto& s : levels_[level]) sum += s->file_bytes;
  return sum;
}

u64 LsmStore::level_target(u32 level) const {
  u64 target = cfg_.l1_target_bytes;
  for (u32 i = 1; i < level; ++i) target *= cfg_.level_size_ratio;
  return target;
}

u32 LsmStore::level_file_count(u32 level) const {
  return level < levels_.size() ? (u32)levels_[level].size() : 0;
}

void LsmStore::maybe_schedule_compaction() {
  while (compactions_inflight_ < cfg_.max_background_compactions &&
         try_start_compaction()) {
  }
}

bool LsmStore::try_start_compaction() {
  auto any_compacting = [](const std::vector<std::shared_ptr<Sst>>& v) {
    for (const auto& s : v)
      if (s->compacting) return true;
    return false;
  };
  if (levels_[0].size() >= cfg_.l0_compaction_trigger &&
      !any_compacting(levels_[0])) {
    // L0 files overlap each other, so an L0 job must take them all; it
    // also claims the overlapping L1 range.
    start_compaction(0, levels_[0]);
    return true;
  }
  for (u32 i = 1; i + 1 < (u32)levels_.size(); ++i) {
    if (!levels_[i].empty() && level_bytes(i) > level_target(i)) {
      // A victim (and its L+1 overlap) must be unclaimed.
      for (u32 probe = 0; probe < (u32)levels_[i].size(); ++probe) {
        const u32 idx =
            (compact_rr_[i] + probe) % (u32)levels_[i].size();
        const auto& victim = levels_[i][idx];
        if (victim->compacting) continue;
        bool clash = false;
        for (const auto& s : levels_[i + 1])
          if (s->overlaps(victim->smallest(), victim->largest()) &&
              s->compacting)
            clash = true;
        if (clash) continue;
        compact_rr_[i] = idx + 1;
        start_compaction(i, {&victim, 1});
        return true;
      }
    }
  }
  return false;
}

void LsmStore::start_compaction(u32 level,
                                std::span<const std::shared_ptr<Sst>> files) {
  ++compactions_inflight_;
  peak_compactions_ = std::max(peak_compactions_, compactions_inflight_);
  ++compactions_;

  const u32 slot = jobs_.acquire();
  Job& j = jobs_[slot];
  j.level = level;
  j.inputs.assign(files.begin(), files.end());
  std::string_view lo = files.front()->smallest();
  std::string_view hi = files.front()->largest();
  for (const auto& s : files) {
    lo = std::min(lo, s->smallest());
    hi = std::max(hi, s->largest());
  }
  for (const auto& s : levels_[level + 1])
    if (s->overlaps(lo, hi)) j.inputs.push_back(s);
  for (const auto& s : j.inputs) s->compacting = true;

  // Trivial move: nothing to merge with downstairs, and (for L0) the
  // inputs do not overlap each other — just move metadata. This is what
  // makes sequential fills cheap on the LSM/block stack.
  bool movable = j.inputs.size() == files.size();
  for (size_t a = 0; movable && a < files.size(); ++a)
    for (size_t b = a + 1; movable && b < files.size(); ++b)
      movable = !files[a]->overlaps(files[b]->smallest(), files[b]->largest());
  j.kind = movable ? Job::Kind::kMove : Job::Kind::kMerge;
  if (movable) {
    ++trivial_moves_;
    install(slot);
    return;
  }
  read_inputs(slot);
}

std::optional<LsmStore::Job::Piece> LsmStore::Job::next_piece(
    const std::vector<std::shared_ptr<Sst>>& files, u64 chunk_bytes) {
  while (file < files.size() && done_bytes >= files[file]->file_bytes) {
    ++file;
    done_bytes = 0;
  }
  if (file == files.size()) {
    file = 0;
    return std::nullopt;
  }
  const Sst& sst = *files[file];
  const Piece piece{&sst, done_bytes,
                    std::min<u64>(sst.file_bytes - done_bytes, chunk_bytes)};
  done_bytes += piece.bytes;
  return piece;
}

void LsmStore::read_inputs(u32 slot) {
  const auto piece = jobs_[slot].next_piece(jobs_[slot].inputs,
                                            cfg_.io_chunk_bytes);
  if (!piece) {
    compute_outputs(slot);
    return;
  }
  fs_.set_queue(0);  // background reads stay off the tenant queues
  fs_.read(piece->sst->file, piece->offset, piece->bytes,
           [this, slot](Status, u64) { read_inputs(slot); });
}

void LsmStore::compute_outputs(u32 slot) {
  Job& j = jobs_[slot];
  TimeNs cpu = 0;
  if (j.kind == Job::Kind::kFlush) {
    SstBuilder builder;
    u64 key_bytes = 0;
    for (const auto& [k, e] : *immutable_) key_bytes += k.size();
    builder.reserve(immutable_->size(), key_bytes);
    for (const auto& [k, e] : *immutable_)
      builder.add(k, e.value, e.seq, e.tombstone);
    j.outputs.push_back(builder.finish(next_sst_id_++));
    // A flush is cheaper than a merge.
    cpu = j.outputs[0]->entries.size() * cfg_.compaction_cpu_per_kvp_ns / 2;
  } else {
    // Tombstones die at the bottom: no level below the output holds data.
    u64 kvps = 0;
    for (const auto& s : j.inputs) kvps += s->entries.size();
    bool bottom = true;
    for (u32 l = j.level + 2; l < (u32)levels_.size(); ++l)
      if (!levels_[l].empty()) bottom = false;
    cpu = kvps * cfg_.compaction_cpu_per_kvp_ns;
    j.outputs =
        merge_ssts(j.inputs, bottom, cfg_.sst_target_bytes, next_sst_id_);
  }
  for (const auto& o : j.outputs) {
    char name[32];
    std::snprintf(name, sizeof(name), "sst-%llu", (unsigned long long)o->id);
    o->file = fs_.create(name);
  }
  cpu_ns_ += cpu;
  eq_.schedule_at(bg_cpu_.reserve(eq_.now(), cpu),
                  [this, slot] { write_outputs(slot); });
}

void LsmStore::write_outputs(u32 slot) {
  const auto piece = jobs_[slot].next_piece(jobs_[slot].outputs,
                                            cfg_.io_chunk_bytes);
  if (!piece) {
    install(slot);
    return;
  }
  const Sst& sst = *piece->sst;
  fs_.set_queue(0);  // background writes stay off the tenant queues
  fs_.append(sst.file, piece->bytes,
             sst.id * 1000 + piece->offset / cfg_.io_chunk_bytes,
             [this, slot](Status) { write_outputs(slot); });
}

void LsmStore::install(u32 slot) {
  Job& j = jobs_[slot];
  const Job::Kind kind = j.kind;
  if (kind == Job::Kind::kFlush) {
    levels_[0].push_back(j.outputs[0]);
    audit_install(j.outputs, levels_);
    immutable_.reset();
    flush_running_ = false;
    // Crash mode archives rotated WAL segments instead of deleting them:
    // the flush's appends are acked but possibly still in the device
    // write buffer, so dropping the WAL here is exactly the no-fsync
    // data-loss window the crash model exists to expose.
    if (!crash_tracking_ &&
        rotated_wal_ != fs::FileSystem::kInvalidHandle) {
      const auto dead = rotated_wal_;
      rotated_wal_ = fs::FileSystem::kInvalidHandle;
      wal_seg_bytes_ -= std::min(wal_seg_bytes_, fs_.file_bytes(dead));
      fs_.remove(dead, [](Status) {});
    }
  } else {
    // The claimed files leave their levels; a move's come back one level
    // down as its outputs, and a merge deletes them.
    auto claimed = [&j](const std::shared_ptr<Sst>& s) {
      return std::find(j.inputs.begin(), j.inputs.end(), s) !=
             j.inputs.end();
    };
    std::erase_if(levels_[j.level], claimed);
    auto& below = levels_[j.level + 1];
    std::erase_if(below, claimed);
    if (kind == Job::Kind::kMove) j.outputs.swap(j.inputs);
    below.insert(below.end(), j.outputs.begin(), j.outputs.end());
    std::sort(below.begin(), below.end(), [](const auto& a, const auto& b) {
      return a->smallest() < b->smallest();
    });
    audit_install(j.outputs, levels_);
    for (auto& o : j.outputs) o->compacting = false;
    --compactions_inflight_;
    // A remove's callback does nothing, so no job starts under `j`.
    for (const auto& s : j.inputs)
      if (s->file != fs::FileSystem::kInvalidHandle)
        fs_.remove(s->file, [](Status) {});
  }
  if (kind == Job::Kind::kFlush && draining_ && !memtable_.empty() &&
      !immutable_)
    rotate_memtable();
  unstall();
  maybe_schedule_compaction();
  maybe_quiesce();
  // The tail may have started jobs and grown the pool: re-index. The
  // job's tables die only now, after the tail.
  Job& done = jobs_[slot];
  done.inputs.clear();
  done.outputs.clear();
  jobs_.release(slot);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void LsmStore::get(std::string_view key, GetDone done, u32 queue) {
  const TimeNs cost = cfg_.api_ns + cfg_.memtable_get_ns;
  cpu_ns_ += cost;
  const TimeNs t_cpu = fg_cpu_.reserve(eq_.now(), cost);

  const u32 slot = gets_.acquire();
  PendingGet& g = gets_[slot];
  g.done = std::move(done);
  auto answer = [&](const MemEntry& e) {
    g.st = e.tombstone ? Status::kNotFound : Status::kOk;
    g.value = e.tombstone ? ValueDesc{} : e.value;
    eq_.schedule_at(t_cpu, [this, slot] { finish_get(slot); });
  };
  if (auto it = memtable_.find(key); it != memtable_.end()) {
    answer(it->second);
    return;
  }
  if (immutable_) {
    if (auto it = immutable_->find(key); it != immutable_->end()) {
      answer(it->second);
      return;
    }
  }

  g.candidates.clear();
  for (auto it = levels_[0].rbegin(); it != levels_[0].rend(); ++it)
    if ((*it)->overlaps(key, key)) g.candidates.push_back(*it);
  for (u32 l = 1; l < (u32)levels_.size(); ++l)
    for (const auto& s : levels_[l])
      if (s->overlaps(key, key)) {
        g.candidates.push_back(s);
        break;  // levels >0 are non-overlapping: at most one file
      }
  g.key.assign(key);
  g.khash = hash64(key);
  g.next = 0;
  g.queue = queue;
  eq_.schedule_at(t_cpu, [this, slot] { get_from_ssts(slot); });
}

void LsmStore::get_from_ssts(u32 slot) {
  PendingGet& g = gets_[slot];
  if (g.next >= g.candidates.size()) {
    g.st = Status::kNotFound;
    g.value = ValueDesc{};
    finish_get(slot);
    return;
  }
  const Sst& sst = *g.candidates[g.next];
  cpu_ns_ += cfg_.bloom_check_ns;
  if (!sst.bloom.may_contain(g.khash)) {
    ++g.next;
    eq_.schedule_after(cfg_.bloom_check_ns,
                       [this, slot] { get_from_ssts(slot); });
    return;
  }
  const i64 i = sst.find(g.key, g.khash);
  if (i < 0) {  // Bloom false positive: paid an index-block lookup
    ++g.next;
    eq_.schedule_after(cfg_.block_parse_ns,
                       [this, slot] { get_from_ssts(slot); });
    return;
  }
  const SstEntry& e = sst.entries[(size_t)i];
  g.st = e.tombstone ? Status::kNotFound : Status::kOk;
  g.value = e.tombstone ? ValueDesc{} : e.value;

  const u64 block_no = e.offset / cfg_.data_block_bytes;
  const u64 block_key = (sst.id << 24) | (block_no & 0xffffff);
  cpu_ns_ += cfg_.block_parse_ns;
  ++cache_lookups_;
  if (block_cache_.touch(block_key)) {
    ++cache_hits_;
    g.candidates.clear();
    eq_.schedule_after(cfg_.block_parse_ns, [this, slot] { finish_get(slot); });
    return;
  }
  const u64 nblocks =
      (e.value.size + cfg_.data_block_bytes - 1) / cfg_.data_block_bytes;
  const u64 read_bytes = std::max<u64>(1, nblocks) * cfg_.data_block_bytes;
  const fs::FileSystem::Handle file = sst.file;
  g.block_key = block_key;
  g.candidates.clear();  // `sst` and `e` die here if compaction dropped them
  fs_.set_queue(g.queue);  // this read runs events after the tenant's issue
  fs_.read(file, block_no * cfg_.data_block_bytes, read_bytes,
           [this, slot](Status rs, u64) {
             PendingGet& g = gets_[slot];
             block_cache_.insert(g.block_key);
             if (rs != Status::kOk) {  // media/timeout error trumps hit
               g.st = rs;
               g.value = ValueDesc{};
             }
             finish_get(slot);
           });
}

void LsmStore::finish_get(u32 slot) {
  PendingGet& g = gets_[slot];
  GetDone done = std::move(g.done);
  const Status st = g.st;
  const ValueDesc v = g.value;
  g.candidates.clear();
  gets_.release(slot);  // before `done`, which may start another lookup
  done(st, v);
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void LsmStore::power_fail_and_recover(ssd::CrashOutcome& out,
                                      sim::Task done) {
  const TimeNs now = eq_.now();

  // ---- power loss: host DRAM is gone -------------------------------------
  memtable_.clear();
  mt_bytes_ = 0;
  immutable_.reset();
  stalled_writes_.clear();  // never acked; their callbacks died with the cut
  flush_running_ = false;
  compactions_inflight_ = 0;
  draining_ = false;
  quiesce_waiters_.clear();
  wal_buffer_bytes_ = 0;
  block_cache_.clear();
  gets_.clear();  // lookups in flight died with their events
  jobs_.clear();  // and so did flushes and compactions
  rotated_wal_ = fs::FileSystem::kInvalidHandle;
  fg_cpu_.power_cycle(now);
  bg_cpu_.power_cycle(now);
  for (auto& level : levels_)
    for (auto& s : level) s->compacting = false;

  // The mount's CPU holds the join's first count; each mount I/O adds one.
  auto join = sim::make_join(
      1, [done = std::move(done)](Status) mutable { done(); });

  // ---- mount 1/3: keep only SSTs whose every block reached flash ---------
  // The manifest (levels structure) and fs metadata are modeled as
  // journal-durable; a torn SST is caught by its footer/block checksums
  // during the mount-time footer read charged here. Torn files are
  // deleted and their records re-surface through WAL replay, since crash
  // mode archives WAL segments instead of deleting them at flush install.
  u64 footer_reads = 0;
  std::vector<fs::FileSystem::Handle> survivors;
  for (auto& level : levels_) {
    std::vector<std::shared_ptr<Sst>> kept;
    kept.reserve(level.size());
    for (auto& s : level) {
      ++footer_reads;
      ++join->remaining;
      fs_.read(s->file, 0, std::min<u64>(s->file_bytes, 4 * KiB),
               [join](Status, u64) { join->arrive(); });
      if (fs_.probe_durable(s->file, 0, s->file_bytes)) {
        survivors.push_back(s->file);
        kept.push_back(s);
      }
    }
    level = std::move(kept);
  }
  // Delete every non-surviving SST file: torn installed files plus
  // orphans from flushes/compactions that never installed.
  for (u64 id = 1; id < next_sst_id_; ++id) {
    char name[32];
    std::snprintf(name, sizeof(name), "sst-%llu", (unsigned long long)id);
    const auto h = fs_.lookup(name);
    if (h == fs::FileSystem::kInvalidHandle) continue;
    if (std::find(survivors.begin(), survivors.end(), h) != survivors.end())
      continue;
    ++join->remaining;
    fs_.remove(h, [join](Status) { join->arrive(); });
  }

  // ---- mount 2/3: replay the durable prefix of every WAL segment ---------
  // Crash mode archives WAL segments from genesis, so replay sees records
  // whose newer versions already live in a surviving SST (the usual case:
  // the version was flushed, possibly after arriving as a sub-group-commit
  // WAL tail that never hit the log). Replaying such a record into the
  // memtable would shadow the newer SST version on reads, so a record is
  // applied only when nothing durable holds a seq at least as new.
  auto sst_covers = [&](const std::string& key, u64 seq) {
    for (const auto& level : levels_)
      for (const auto& s : level) {
        const i64 i = s->find(key);
        if (i >= 0 && s->entries[(size_t)i].seq >= seq) return true;
      }
    return false;
  };
  std::vector<WalRecord> lost_candidates;
  auto replay_ledger = [&](WalLedger& led) {
    bool torn = false;
    const u64 bb = fs_.block_bytes();
    std::vector<WalChunk> durable_chunks;
    durable_chunks.reserve(led.chunks.size());
    for (WalChunk& c : led.chunks) {
      if (!torn &&
          fs_.probe_durable(led.file, c.file_block * bb, c.blocks * bb)) {
        ++join->remaining;
        fs_.read_blocks(led.file, c.file_block, c.blocks,
                        [join](Status, u64) { join->arrive(); });
        for (const WalRecord& r : c.records) {
          ++out.wal_records_replayed;
          if (sst_covers(r.key, r.seq)) continue;
          auto it = memtable_.find(r.key);
          if (it != memtable_.end()) {
            if (it->second.seq >= r.seq) continue;
            mt_bytes_ -= std::min(
                mt_bytes_, mem_entry_bytes(it->first, it->second.value));
            it->second = MemEntry{r.value, r.seq, r.tombstone};
          } else {
            memtable_.emplace(r.key, MemEntry{r.value, r.seq, r.tombstone});
          }
          mt_bytes_ += mem_entry_bytes(r.key, r.value);
        }
        durable_chunks.push_back(std::move(c));
      } else {
        // A torn chunk ends the segment's valid prefix: later chunks are
        // untrusted even if their blocks happened to land.
        torn = true;
        for (WalRecord& r : c.records) lost_candidates.push_back(std::move(r));
      }
    }
    // The ledger keeps only what recovery accepted: a future crash must
    // not replay (or re-count) records that no longer exist anywhere.
    led.chunks = std::move(durable_chunks);
    for (WalRecord& r : led.buffered) lost_candidates.push_back(std::move(r));
    led.buffered.clear();
  };
  for (WalLedger& led : archived_wals_) replay_ledger(led);
  replay_ledger(wal_ledger_);

  // ---- mount 3/3: recompute the write sequence from durable state --------
  u64 max_seq = 0;
  for (const auto& [k, e] : memtable_) max_seq = std::max(max_seq, e.seq);
  for (const auto& level : levels_)
    for (const auto& s : level)
      for (const auto& e : s->entries) max_seq = std::max(max_seq, e.seq);
  seq_ = max_seq;

  // An acked record is lost only if no durable copy — WAL replay or a
  // surviving SST — holds a version at least as new.
  auto covered = [&](const WalRecord& r) {
    if (auto it = memtable_.find(r.key);
        it != memtable_.end() && it->second.seq >= r.seq)
      return true;
    for (const auto& level : levels_)
      for (const auto& s : level) {
        const i64 i = s->find(r.key);
        if (i >= 0 && s->entries[(size_t)i].seq >= r.seq) return true;
      }
    return false;
  };
  for (const WalRecord& r : lost_candidates)
    if (!covered(r)) ++out.wal_records_lost;

  // Recovery CPU: a footer parse per SST plus a memtable insert per
  // replayed record, serialized on the foreground (mount) thread.
  const TimeNs cpu = footer_reads * cfg_.block_parse_ns +
                     out.wal_records_replayed * cfg_.memtable_insert_ns;
  cpu_ns_ += cpu;
  eq_.schedule_at(fg_cpu_.reserve(now, cpu), [join] { join->arrive(); });
}

// ---------------------------------------------------------------------------
// Drain / telemetry
// ---------------------------------------------------------------------------

void LsmStore::drain(sim::Task done) {
  draining_ = true;
  quiesce_waiters_.push_back(std::move(done));
  if (!memtable_.empty() && !immutable_) rotate_memtable();
  maybe_quiesce();
}

void LsmStore::maybe_quiesce() {
  if (quiesce_waiters_.empty()) return;
  maybe_schedule_compaction();
  if (flush_running_ || compactions_inflight_ > 0 || immutable_) return;
  if (draining_ && !memtable_.empty()) {
    rotate_memtable();
    return;
  }
  if (levels_[0].size() >= cfg_.l0_compaction_trigger) return;
  draining_ = false;
  auto waiters = std::move(quiesce_waiters_);
  quiesce_waiters_.clear();
  for (auto& w : waiters) w();
}

std::vector<std::string> LsmStore::debug_locate(std::string_view key) const {
  std::vector<std::string> hits;
  char buf[96];
  auto add = [&](const char* where, u64 seq, u64 fp, bool tomb) {
    std::snprintf(buf, sizeof(buf), "%s seq=%llu fp=%llu%s", where,
                  (unsigned long long)seq, (unsigned long long)fp,
                  tomb ? " tombstone" : "");
    hits.emplace_back(buf);
  };
  if (auto it = memtable_.find(key); it != memtable_.end())
    add("memtable", it->second.seq, it->second.value.fingerprint,
        it->second.tombstone);
  if (immutable_) {
    if (auto it = immutable_->find(key); it != immutable_->end())
      add("immutable", it->second.seq, it->second.value.fingerprint,
          it->second.tombstone);
  }
  for (u32 l = 0; l < (u32)levels_.size(); ++l) {
    for (const auto& s : levels_[l]) {
      const i64 i = s->find(key);
      if (i < 0) continue;
      char where[64];
      std::snprintf(where, sizeof(where), "L%u:sst-%llu ovl=%d bloom=%d", l,
                    (unsigned long long)s->id, (int)s->overlaps(key, key),
                    (int)s->bloom.may_contain(hash64(key)));
      add(where, s->entries[(size_t)i].seq,
          s->entries[(size_t)i].value.fingerprint,
          s->entries[(size_t)i].tombstone);
    }
  }
  return hits;
}

u64 LsmStore::sst_bytes_live() const {
  u64 sum = wal_seg_bytes_;
  for (const auto& level : levels_)
    for (const auto& s : level) sum += s->file_bytes;
  return sum;
}

}  // namespace kvsim::lsm
