#include "kvftl/kv_ftl.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

namespace kvsim::kvftl {

namespace {
constexpr u32 kPendingBlock = 0xffffffffu;  // chunk awaiting placement

void validate_kv_cfg(const ssd::SsdConfig& dev, const KvFtlConfig& cfg) {
  if (cfg.slot_bytes == 0 || cfg.page_data_slots == 0)
    throw std::invalid_argument("KvFtlConfig: zero slot/page_data_slots");
  if ((u64)cfg.slot_bytes * cfg.page_data_slots > dev.geometry.page_bytes)
    throw std::invalid_argument(
        "KvFtlConfig: data area exceeds the flash page");
  if (cfg.min_key_bytes == 0 || cfg.min_key_bytes > cfg.max_key_bytes)
    throw std::invalid_argument("KvFtlConfig: bad key size bounds");
  if (cfg.index_managers == 0)
    throw std::invalid_argument("KvFtlConfig: need at least one manager");
  if (cfg.write_streams == 0)
    throw std::invalid_argument("KvFtlConfig: need at least one stream");
}
}  // namespace

KvFtl::KvFtl(sim::EventQueue& eq, flash::FlashController& flash,
             const ssd::SsdConfig& dev, const KvFtlConfig& cfg)
    : FtlCore(eq, flash, dev),
      cfg_(cfg),
      managers_(std::max<u32>(1, cfg.index_managers)),
      index_(cfg.index),
      bloom_(cfg.expected_keys_hint),
      iters_(cfg.track_iterator_keys),
      recs_(dev.geometry.total_blocks()) {
  validate_kv_cfg(dev, cfg_);
  const u32 nlanes = cfg_.lanes ? cfg_.lanes : (u32)geom_.total_dies();
  lanes_.resize(std::max(nlanes, cfg_.write_streams));
  stream_rr_.assign(std::max<u32>(1, cfg_.write_streams), 0);
  gc_lanes_.resize(std::max<u32>(1, cfg_.gc_lanes));
  for (auto& lane : lanes_) add_write_point(lane);
  for (auto& lane : gc_lanes_) add_write_point(lane);
#if KVSIM_AUDIT
  log_audit_ = std::make_unique<ssd::KvLogAudit>(geom_.total_blocks());
#endif
}

void KvFtl::audit_verify() const {
  if (!log_audit_) return;
  ssd::audit_check_clamps(eq_.clamped_schedules());
  if (live_slots_ != log_audit_->live_slots())
    ssd::audit_fail("kvftl",
                    "live_slots counter " + std::to_string(live_slots_) +
                        " != shadow " +
                        std::to_string(log_audit_->live_slots()));
  // Every index entry (blob chunk ref) must resolve to exactly one live
  // log record, and that record must agree with the shadow placement.
  u64 refs = 0;
  blob_table_.for_each([&](u64 khash, const BlobRec& blob) {
    const auto chunks = blob.chunks();
    for (u32 ci = 0; ci < chunks.size(); ++ci) {
      const ChunkRef& ref = chunks[ci];
      if (ref.block == kPendingBlock) continue;
      ++refs;
      const auto& recs = recs_[ref.block];
      if (ref.rec >= recs.size())
        ssd::audit_fail("kvftl", "khash " + std::to_string(khash) +
                                     " chunk " + std::to_string(ci) +
                                     " points past block " +
                                     std::to_string(ref.block) +
                                     " record list");
      const ChunkRec& rec = recs[ref.rec];
      if (!rec.valid || rec.khash != khash || rec.chunk_idx != ci)
        ssd::audit_fail("kvftl",
                        "khash " + std::to_string(khash) + " chunk " +
                            std::to_string(ci) + " resolves to " +
                            (rec.valid ? "a different chunk's" : "a dead") +
                            " record (block " + std::to_string(ref.block) +
                            " rec " + std::to_string(ref.rec) + ")");
      if (!log_audit_->is_placed_at(khash, (u8)ci, ref.block, ref.rec))
        ssd::audit_fail("kvftl", "khash " + std::to_string(khash) +
                                     " chunk " + std::to_string(ci) +
                                     " not placed at block " +
                                     std::to_string(ref.block) + " rec " +
                                     std::to_string(ref.rec) +
                                     " in the shadow log");
    }
  });
  if (refs != log_audit_->placed_chunks())
    ssd::audit_fail("kvftl",
                    std::to_string(refs) + " reachable chunk refs != " +
                        std::to_string(log_audit_->placed_chunks()) +
                        " placed chunks (reclaimed blob still reachable, "
                        "or live chunk unreachable)");
  // Per-block: valid records must sum to the block's valid-slot counter
  // and match the shadow; globally every valid record is reachable.
  u64 valid_recs = 0;
  for (u32 b = 0; b < (u32)recs_.size(); ++b) {
    u64 sum = 0;
    for (const ChunkRec& rec : recs_[b])
      if (rec.valid) {
        sum += rec.slot_count;
        ++valid_recs;
      }
    if (sum != valid_units_[b])
      ssd::audit_fail("kvftl", "block " + std::to_string(b) +
                                   " valid_slots counter " +
                                   std::to_string(valid_units_[b]) +
                                   " != record sum " + std::to_string(sum));
    if (sum != log_audit_->block_valid_slots(b))
      ssd::audit_fail("kvftl", "block " + std::to_string(b) +
                                   " record sum " + std::to_string(sum) +
                                   " != shadow " +
                                   std::to_string(
                                       log_audit_->block_valid_slots(b)));
  }
  if (valid_recs != log_audit_->placed_chunks())
    ssd::audit_fail("kvftl",
                    std::to_string(valid_recs) + " valid records != " +
                        std::to_string(log_audit_->placed_chunks()) +
                        " placed chunks (orphaned live record)");
}

u64 KvFtl::data_slot_capacity() const {
  const u64 reserved = gc_reserved_blocks_ + index_blocks_.size();
  const u64 blocks = geom_.total_blocks() > reserved
                         ? geom_.total_blocks() - reserved
                         : 0;
  return blocks * geom_.pages_per_block * cfg_.page_data_slots;
}

u64 KvFtl::max_kvp_capacity() const { return data_slot_capacity(); }

u64 KvFtl::device_bytes_used() const {
  return live_slots_ * cfg_.slot_bytes + index_.flash_bytes() +
         iters_.flash_bytes();
}

// ---------------------------------------------------------------------------
// Command records
// ---------------------------------------------------------------------------
//
// A host command keeps its state in one SlotPool record from arrival to
// completion, and every closure on its path captures only {this, slot},
// so once the pool is warm a command allocates nothing. Early exits (Bloom
// negative, Bloom false positive, read-cache hit) finish through the same
// record; a busy rejection answers through the core before opening one.
// Any callback may start a command and grow the pool, so no Cmd& is held
// across a call out of the FTL.

u32 KvFtl::open_cmd() {
  const u32 slot = cmds_.acquire();
  Cmd& c = cmds_[slot];
  c.st = Status::kOk;
  c.value = ValueDesc{};
  c.remaining = 1;
  c.commit = false;
  c.found = false;
  c.fill_cache = false;
  return slot;
}

void KvFtl::arrive_at(u32 slot, TimeNs t) {
  eq_.schedule_at(t, [this, slot] { arrive(slot); });
}

void KvFtl::answer_at(u32 slot, TimeNs t, Status st) {
  cmds_[slot].st = st;
  arrive_at(slot, t);
}

void KvFtl::fail(u32 slot, Status st) {
  Status& cur = cmds_[slot].st;
  if (cur == Status::kOk) cur = st;
}

void KvFtl::arrive(u32 slot) {
  if (--cmds_[slot].remaining == 0) finish(slot);
}

void KvFtl::finish(u32 slot) {
  Cmd& c = cmds_[slot];
  if (c.commit) commit_store(c);
  const Status st = c.st;
  const ValueDesc v = c.value;
  if (c.fill_cache && st == Status::kOk) read_cache_insert(c.khash, v.size);
  const bool found = c.found;
  StoreDone done = std::move(c.done);
  RetrieveDone got = std::move(c.got);
  ExistDone answered = std::move(c.answered);
  cmds_.release(slot);  // before the callback, which may issue commands
  if (got) {
    got(st, v);
  } else if (answered) {
    answered(st, found);
  } else {
    done(st);
  }
}

void KvFtl::commit_store(const Cmd& c) {
  const u64 khash = c.khash;
  BlobRec& blob = blob_table_.find_or_insert(khash);
  // Re-decide new-vs-overwrite here: a concurrent store of the same fresh
  // key may have landed while this one was in flight.
  const bool was_new = blob.gen == 0;
  if (!was_new) {
    invalidate_blob(blob);
    read_cache_evict(khash);
  } else {
    bloom_.insert(khash);
    iters_.add(c.key.view(), c.nsid);
    ++ns_kvp_counts_[c.nsid];
  }
  app_bytes_live_ += c.key.size() + c.value.size;
  blob.value_bytes = c.value.size;
  blob.key_bytes = (u16)c.key.size();
  blob.vfp = c.value.fingerprint;
  ++blob.gen;
  if (crash_tracking_)
    key_dir_[khash] = KeyDirEntry{std::string(c.key.view()), c.nsid};
  blob.assign_chunks(chunks_for_blob(c.slots, cfg_.page_data_slots),
                     ChunkRef{kPendingBlock, 0});
  place_blob(khash, blob.gen, c.slots, c.stream);
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

void KvFtl::store(std::string_view key, ValueDesc value, StoreDone done,
                  u8 stream, u8 nsid) {
  if (busy_rejected(done)) return;
  const u32 slot = open_cmd();
  cmds_[slot].done = std::move(done);
  if (stream >= cfg_.write_streams) stream = (u8)(cfg_.write_streams - 1);
  if (key.size() < cfg_.min_key_bytes || key.size() > cfg_.max_key_bytes ||
      value.size > cfg_.max_value_bytes) {
    cmds_[slot].st = Status::kInvalidArgument;
    finish(slot);
    return;
  }
  const u64 khash = hash64(key, nsid);
  const u32 slots = slots_for_value(value.size, cfg_.slot_bytes);
  const u32 nchunks = chunks_for_blob(slots, cfg_.page_data_slots);

  const BlobRec* existing = blob_table_.find(khash);
  const bool is_new = existing == nullptr;
  const u64 freed =
      is_new ? 0 : (u64)slots_for_value(existing->value_bytes, cfg_.slot_bytes);
  if (live_slots_ + slots - std::min<u64>(freed, live_slots_) >
      (u64)((double)data_slot_capacity() * cfg_.capacity_guard)) {
    cmds_[slot].st = is_new ? Status::kCapacityLimit : Status::kDeviceFull;
    finish(slot);
    return;
  }
  // Physical exhaustion: garbage collection proved futile (everything
  // valid or structural waste regenerates) and the free pool is gone.
  if (gc_stuck_ && alloc_.free_blocks() <= gc_reserved_blocks_ + 1) {
    cmds_[slot].st = Status::kDeviceFull;
    finish(slot);
    return;
  }

  ++stats_.host_write_ops;
  stats_.host_bytes_written += key.size() + value.size;

  // Firmware critical path: dispatch -> index manager -> (split handling).
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), dispatch_ns_);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);
  TimeNs t_cpu = t_mgr;
  if (nchunks > 1)
    t_cpu = packer_.reserve(t_mgr, (TimeNs)(nchunks - 1) * cfg_.split_chunk_ns);

  const IndexCost ic = is_new ? index_.on_insert(khash)
                              : index_.on_update(khash);

  // The commit waits for the firmware critical path, the write-buffer
  // grant and every index-level read.
  Cmd& c = cmds_[slot];
  c.key.assign(key);
  c.value = value;
  c.khash = khash;
  c.slots = slots;
  c.stream = stream;
  c.nsid = nsid;
  c.commit = true;
  c.remaining = 2 + ic.segment_reads;
  // May grant (and arrive) at once; the critical-path arrival is still due.
  buffer_.acquire((u64)slots * cfg_.slot_bytes, [this, slot] { arrive(slot); });
  arrive_at(slot, t_cpu);
  charge_index_cost(ic, slot);
}

void KvFtl::place_blob(u64 khash, u32 gen, u32 total_slots, u8 stream) {
  const u32 nchunks = chunks_for_blob(total_slots, cfg_.page_data_slots);
  for (u32 c = 0; c < nchunks; ++c) {
    const u32 cs = chunk_slots(total_slots, cfg_.page_data_slots, c);
    if (cs == 0) continue;
    if (!place_chunk(khash, (u8)c, (u16)cs, /*is_gc=*/false, stream)) {
      pending_chunks_.push_back(
          PendingChunk{khash, gen, (u8)c, stream, (u16)cs});
      start_foreground_gc();
    }
  }
}

bool KvFtl::place_chunk(u64 khash, u8 chunk_idx, u16 slot_count, bool is_gc,
                        u8 stream) {
  // Streams own disjoint lane groups: lane index = stream + k * streams.
  auto& lanes = is_gc ? gc_lanes_ : lanes_;
  ssd::WritePoint* lane_ptr;
  if (is_gc) {
    lane_ptr = &lanes[gc_lane_rr_];
    gc_lane_rr_ = (gc_lane_rr_ + 1) % lanes.size();
  } else {
    const u32 streams = std::max<u32>(1, cfg_.write_streams);
    const u32 group = (u32)(lanes_.size() / streams);
    u32& rr = stream_rr_[stream % streams];
    lane_ptr = &lanes_[(stream % streams) + (rr % group) * streams];
    rr = (rr + 1) % group;
    if (!lane_ptr->block && alloc_.free_blocks() <= gc_reserved_blocks_) {
      // Out of fresh blocks: fall back to any lane of this stream that
      // still has an open one.
      for (u32 k = 0; k < group; ++k) {
        ssd::WritePoint& cand = lanes_[(stream % streams) + k * streams];
        if (cand.block) {
          lane_ptr = &cand;
          break;
        }
      }
    }
  }
  if (place_on(*lane_ptr, khash, chunk_idx, slot_count, is_gc)) return true;
  if (!is_gc) return false;
  // GC has more lanes than the reserve has blocks: once the free pool is
  // gone, a lane without a block borrows any GC lane that still has one.
  for (ssd::WritePoint& cand : gc_lanes_)
    if (cand.block && place_on(cand, khash, chunk_idx, slot_count, true))
      return true;
  return false;
}

bool KvFtl::place_on(ssd::WritePoint& lane, u64 khash, u8 chunk_idx,
                     u16 slot_count, bool is_gc) {
  if (!ensure_block(lane, is_gc)) return false;
  // If the chunk does not fit in the open page's data area, seal it
  // (wasting the remaining slots) and start a fresh page.
  if (lane.used + slot_count > cfg_.page_data_slots) {
    if (is_gc) gc_waste_slots_ += cfg_.page_data_slots - lane.used;
    seal_page(lane);
    if (!ensure_block(lane, is_gc)) return false;
  }

  const flash::BlockId b = *lane.block;
  const u32 rec_idx = (u32)recs_[b].size();
  recs_[b].push_back(ChunkRec{khash, (u16)lane.next_page, (u16)lane.used,
                              slot_count, chunk_idx, true});
  valid_units_[b] += slot_count;
  live_slots_ += slot_count;
  if (log_audit_) log_audit_->on_place(khash, chunk_idx, (u32)b, rec_idx,
                                       slot_count);
  fill_open_page(lane, slot_count,
                 is_gc ? 0 : (u64)slot_count * cfg_.slot_bytes);

  BlobRec* blob = blob_table_.find(khash);
  if (blob && chunk_idx < blob->chunks().size())
    blob->chunks()[chunk_idx] = ChunkRef{(u32)b, rec_idx};
  if (crash_tracking_ && blob) {
    // OOB blob descriptor, mirroring what the firmware writes into the
    // page meta area: a=gen|chunk|slot_start, b=value|slots|key bytes.
    const BlobRec& br = *blob;
    const ChunkRec& rec = recs_[b][rec_idx];
    lane.staged.push_back(flash::OobEntry{
        khash, br.vfp,
        ((u64)br.gen << 32) | ((u64)rec.chunk_idx << 16) | rec.slot_start,
        ((u64)br.value_bytes << 32) | ((u64)rec.slot_count << 16) |
            br.key_bytes});
  }

  if (lane.used == cfg_.page_data_slots) seal_page(lane);
  return true;
}

void KvFtl::seal_page(ssd::WritePoint& lane) {
  waste_slots_ += cfg_.page_data_slots - lane.used;
  // The packer engine assembles the page (log append, offsets, metadata
  // area) before the program is dispatched.
  seal_open_page(lane, packer_.reserve(eq_.now(), cfg_.pack_page_ns));
}

void KvFtl::invalidate_blob(BlobRec& blob) {
  fresh_garbage();
  for (const ChunkRef& ref : blob.chunks()) {
    if (ref.block == kPendingBlock) continue;  // never placed (superseded)
    if (recs_[ref.block][ref.rec].valid) drop_record(ref.block, ref.rec);
  }
  app_bytes_live_ -=
      std::min<u64>(app_bytes_live_, (u64)blob.value_bytes + blob.key_bytes);
  blob.clear_chunks();
}

void KvFtl::drop_record(flash::BlockId b, u32 ri) {
  ChunkRec& rec = recs_[b][ri];
  rec.valid = false;
  valid_units_[b] -= rec.slot_count;
  live_slots_ -= std::min<u64>(live_slots_, rec.slot_count);
  if (log_audit_)
    log_audit_->on_invalidate(rec.khash, rec.chunk_idx, (u32)b, ri);
}

// ---------------------------------------------------------------------------
// Optional blob read cache
// ---------------------------------------------------------------------------

bool KvFtl::read_cache_lookup(u64 khash, u32) {
  if (cfg_.read_cache_bytes == 0) return false;
  auto it = rcache_map_.find(khash);
  if (it == rcache_map_.end()) return false;
  rcache_lru_.splice(rcache_lru_.begin(), rcache_lru_, it->second);
  ++read_cache_hits_;
  return true;
}

void KvFtl::read_cache_insert(u64 khash, u32 value_bytes) {
  if (cfg_.read_cache_bytes == 0 || rcache_map_.count(khash)) return;
  rcache_lru_.emplace_front(khash, value_bytes);
  rcache_map_[khash] = rcache_lru_.begin();
  rcache_bytes_ += value_bytes;
  while (rcache_bytes_ > cfg_.read_cache_bytes && !rcache_lru_.empty()) {
    rcache_bytes_ -= rcache_lru_.back().second;
    rcache_map_.erase(rcache_lru_.back().first);
    rcache_lru_.pop_back();
  }
}

void KvFtl::read_cache_evict(u64 khash) {
  auto it = rcache_map_.find(khash);
  if (it == rcache_map_.end()) return;
  rcache_bytes_ -= it->second->second;
  rcache_lru_.erase(it->second);
  rcache_map_.erase(it);
}

// ---------------------------------------------------------------------------
// Retrieve / remove / exist
// ---------------------------------------------------------------------------

void KvFtl::retrieve(std::string_view key, RetrieveDone done, u8 nsid) {
  if (busy_rejected(done, ValueDesc{})) return;
  const u32 slot = open_cmd();
  cmds_[slot].got = std::move(done);
  const u64 khash = hash64(key, nsid);
  ++stats_.host_read_ops;
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), dispatch_ns_);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);

  if (!bloom_.may_contain(khash)) {
    ++bloom_fast_negatives_;
    answer_at(slot, t_mgr, Status::kNotFound);
    return;
  }

  const IndexCost ic = index_.on_lookup(khash);
  const BlobRec* found = blob_table_.find(khash);
  if (!found) {  // Bloom false positive: an empty answer after the walk
    cmds_[slot].remaining = 1 + ic.segment_reads;
    answer_at(slot, t_mgr, Status::kNotFound);
    charge_index_cost(ic, slot);
    return;
  }

  const BlobRec& blob = *found;
  cmds_[slot].value = ValueDesc{blob.value_bytes, blob.vfp};
  stats_.host_bytes_read += blob.value_bytes;

  if (read_cache_lookup(khash, blob.value_bytes)) {
    answer_at(slot, t_mgr + cfg_.cache_hit_ns, Status::kOk);
    return;
  }

  // Blobs of up to two chunks (values up to two page data areas) collect
  // their reads inline; only larger blobs spill to the heap.
  const auto chunks = blob.chunks();
  flash::PageRead inline_reads[2];
  std::vector<flash::PageRead> spilled;
  flash::PageRead* reads = inline_reads;
  if (chunks.size() > std::size(inline_reads)) {
    spilled.resize(chunks.size());
    reads = spilled.data();
  }
  u32 nreads = 0;
  int buffered_chunks = 0;
  for (const ChunkRef& ref : chunks) {
    if (ref.block == kPendingBlock) {
      ++buffered_chunks;
      continue;
    }
    const ChunkRec& rec = recs_[ref.block][ref.rec];
    const flash::PageId page = geom_.page_id(ref.block, rec.page);
    if (buffered_pages_[page]) {
      ++buffered_chunks;
    } else {
      reads[nreads++] =
          flash::PageRead{page, (u32)rec.slot_count * cfg_.slot_bytes};
    }
  }

  // All flash chunks of the blob batch into one die-op completion: the
  // host sees the value when its slowest chunk arrives either way. A
  // successful read fills the read cache before its callback runs.
  Cmd& c = cmds_[slot];
  c.khash = khash;
  c.fill_cache = true;
  c.remaining =
      1 + ic.segment_reads + (nreads == 0 ? 0 : 1) + (u32)buffered_chunks;
  arrive_at(slot, t_mgr);
  charge_index_cost(ic, slot);
  if (nreads != 0)
    flash_.read_multi(
        reads, nreads,
        [this, slot](flash::OpStatus st, flash::PageId bad) {
          fail(slot, read_status(st, bad));
          arrive(slot);
        });
  for (int i = 0; i < buffered_chunks; ++i)
    eq_.schedule_after(cfg_.cache_hit_ns, [this, slot] { arrive(slot); });
}

void KvFtl::remove(std::string_view key, StoreDone done, u8 nsid) {
  if (busy_rejected(done)) return;
  const u32 slot = open_cmd();
  cmds_[slot].done = std::move(done);
  const u64 khash = hash64(key, nsid);
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), dispatch_ns_);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);

  if (!bloom_.may_contain(khash)) {
    ++bloom_fast_negatives_;
    answer_at(slot, t_mgr, Status::kNotFound);
    return;
  }
  BlobRec* blob = blob_table_.find(khash);
  if (!blob) {
    answer_at(slot, t_mgr, Status::kNotFound);
    return;
  }

  const IndexCost ic = index_.on_remove(khash);
  invalidate_blob(*blob);
  read_cache_evict(khash);
  blob_table_.erase(khash);
  bloom_.remove(khash);
  iters_.remove(key, nsid);
  if (ns_kvp_counts_[nsid] > 0) --ns_kvp_counts_[nsid];

  cmds_[slot].remaining = 1 + ic.segment_reads;
  arrive_at(slot, t_mgr);
  charge_index_cost(ic, slot);
}

void KvFtl::exist(std::string_view key, ExistDone done, u8 nsid) {
  if (busy_rejected(done, false)) return;
  const u32 slot = open_cmd();
  cmds_[slot].answered = std::move(done);
  const u64 khash = hash64(key, nsid);
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), dispatch_ns_);
  const TimeNs t_mgr = managers_[khash % managers_.size()].reserve(
      t_disp, cfg_.key_handling_ns);
  if (!bloom_.may_contain(khash)) {
    ++bloom_fast_negatives_;
    answer_at(slot, t_mgr, Status::kOk);
    return;
  }
  const IndexCost ic = index_.on_lookup(khash);
  Cmd& c = cmds_[slot];
  c.found = blob_table_.contains(khash);
  c.remaining = 1 + ic.segment_reads;
  arrive_at(slot, t_mgr);
  charge_index_cost(ic, slot);
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

std::vector<u32> KvFtl::iterator_bucket_ids() const {
  return iters_.bucket_ids();
}

void KvFtl::iterate_bucket(
    u32 bucket, std::function<void(std::vector<std::string>)> done) {
  std::vector<std::string> keys = iters_.bucket_keys(bucket);
  u64 bytes = 0;
  for (const auto& k : keys) bytes += k.size() + 4;
  read_bucket_pages(
      (u32)((bytes + 4 * KiB - 1) / (4 * KiB)),
      [keys = std::move(keys), done = std::move(done)](Status) mutable {
        done(std::move(keys));
      });
}

void KvFtl::charge_iterator_read(sim::Task done) {
  read_bucket_pages(1, [done = std::move(done)](Status) mutable { done(); });
}

void KvFtl::read_bucket_pages(u32 pages, sim::Fn<void(Status)> done) {
  const TimeNs t_disp = kv_core_.reserve(eq_.now(), dispatch_ns_);
  auto join = sim::make_join(1 + (int)pages, std::move(done));
  eq_.schedule_at(t_disp, [join] { join->arrive(); });
  for (u32 i = 0; i < pages; ++i)
    flash_.read_page(next_index_page(), 4 * KiB, [join] { join->arrive(); });
}

// ---------------------------------------------------------------------------
// Index flash traffic
// ---------------------------------------------------------------------------

flash::PageId KvFtl::next_index_page() {
  const u64 needed_blocks =
      index_.flash_bytes() / geom_.block_bytes() + 1;
  while (index_blocks_.size() < needed_blocks) {
    // Spread index blocks over distinct dies so index traffic enjoys the
    // same parallelism as data.
    const u64 plane = (index_blocks_.size() * (geom_.planes_per_die + 1)) %
                      geom_.total_planes();
    auto b = alloc_.allocate_on_plane(plane);
    if (!b) b = alloc_.allocate();
    if (!b) break;  // device full: reuse existing index blocks
    set_block_state(*b, ssd::BlockState::kIndexBlock);
    // The index log is an abstract time-charge model: it reuses pages
    // round-robin without erasing, so flash legality does not apply.
    if (flash_audit_) flash_audit_->set_exempt(*b);
    index_blocks_.push_back(*b);
  }
  if (index_blocks_.empty()) return 0;  // pathological: charge page 0
  // Round-robin blocks first (die diversity), then pages within a block.
  const u64 i = index_page_rr_++;
  const u64 nblocks = index_blocks_.size();
  return geom_.page_id(index_blocks_[i % nblocks],
                       (u32)((i / nblocks) % geom_.pages_per_block));
}

void KvFtl::charge_index_cost(const IndexCost& cost, u32 slot) {
  // A multi-level walk is serial: each level's read must finish before
  // the next level's location is known. The command's join still receives
  // one arrival per read.
  if (cost.segment_reads > 0) walk_index_levels(slot, cost.segment_reads);
  charge_index_writes(cost.segment_writes);
}

void KvFtl::walk_index_levels(u32 slot, u32 levels) {
  flash_.read_page(next_index_page(), cfg_.index.segment_bytes,
                   [this, slot, levels] {
                     // Not the last arrival while a level is left to read.
                     arrive(slot);
                     if (levels > 1) walk_index_levels(slot, levels - 1);
                   });
}

void KvFtl::charge_index_writes(u32 segment_writes) {
  // Write-backs append entry deltas into full-page index-log programs
  // (async, batched by the local-index merge machinery).
  index_write_accum_ += segment_writes * cfg_.index.dirty_delta_bytes;
  while (index_write_accum_ >= geom_.page_bytes) {
    index_write_accum_ -= geom_.page_bytes;
    count_program();
    flash_.program_page(next_index_page(), geom_.page_bytes,
                        [this] { program_done(); });
  }
}

// ---------------------------------------------------------------------------
// Flush / drain
// ---------------------------------------------------------------------------

void KvFtl::flush(sim::Task done) {
  audit_verify();
  for (auto& lane : lanes_)
    if (lane.used != 0) seal_page(lane);
  for (auto& lane : gc_lanes_)
    if (lane.used != 0) seal_page(lane);
  drain(std::move(done));
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

bool KvFtl::gc_victim_chosen(u32) {
  gc_cycle_migrated0_ = stats_.gc_migrated_bytes;
  gc_cycle_waste0_ = gc_waste_slots_;
  return false;
}

void KvFtl::gc_victim_pages(flash::BlockId victim,
                            std::vector<flash::PageRead>& reads) {
  // recs are appended in page order, so valid pages appear in order.
  u16 last_page = 0xffff;
  for (const ChunkRec& rec : recs_[victim]) {
    if (!rec.valid || rec.page == last_page) continue;
    last_page = rec.page;
    reads.push_back(
        flash::PageRead{geom_.page_id(victim, rec.page), geom_.page_bytes});
  }
}

void KvFtl::gc_migrate(flash::BlockId victim) {
  // place_chunk appends to other blocks' record lists, never to the
  // victim's (it is sealed).
  for (u32 ri = 0; ri < (u32)recs_[victim].size(); ++ri) {
    const ChunkRec rec = recs_[victim][ri];
    if (!rec.valid || !blob_table_.contains(rec.khash)) continue;
    // Invalidate the old location, then re-place the chunk via a GC lane.
    drop_record(victim, ri);
    ++stats_.gc_migrated_units;
    stats_.gc_migrated_bytes += (u64)rec.slot_count * cfg_.slot_bytes;
    if (!place_chunk(rec.khash, rec.chunk_idx, rec.slot_count, /*is_gc=*/true,
                     0))
      throw std::logic_error("KvFtl: GC found no block for a migrated chunk");
    // Each relocated KVP chunk forces an index update (the paper's reason
    // KV-SSD GC is expensive). The FTL appends relocation deltas to the
    // index log — write-only, batched — rather than reading segments.
    charge_index_writes(index_.on_relocate(rec.khash).segment_writes);
  }
}

bool KvFtl::gc_cycle_futile(bool wave) {
  if (wave) {
    gc_futile_streak_ = 0;
    return false;
  }
  // Slots consumed (migrated data + regenerated page waste) nearly equal
  // to the slots the erased block returned mean GC cannot create net free
  // space. An erase failure frees nothing, so the cycle moves on.
  const u64 freed = (u64)geom_.pages_per_block * cfg_.page_data_slots;
  const u64 consumed =
      (stats_.gc_migrated_bytes - gc_cycle_migrated0_) / cfg_.slot_bytes +
      (gc_waste_slots_ - gc_cycle_waste0_);
  if (consumed + freed / 16 >= freed) {
    ++gc_futile_streak_;
  } else {
    gc_futile_streak_ = 0;
  }
  return gc_futile_streak_ >= 16;
}

void KvFtl::on_block_freed() {
  // Recovery re-placements drain first: they restore chunks the host
  // already considers durable, so they outrank new host writes.
  while (!recovery_pending_.empty()) {
    const PendingChunk pc = recovery_pending_.front();
    const BlobRec* blob = blob_table_.find(pc.khash);
    if (!blob || blob->gen != pc.gen || pc.chunk_idx >= blob->chunks().size() ||
        blob->chunks()[pc.chunk_idx].block != kPendingBlock) {
      // Deleted or overwritten while queued; recovery chunks hold no
      // buffer bytes, so dropping them releases nothing.
      recovery_pending_.pop_front();
      continue;
    }
    if (!place_chunk(pc.khash, pc.chunk_idx, pc.slot_count, /*is_gc=*/true,
                     pc.stream))
      break;
    recovery_pending_.pop_front();
  }
  while (!pending_chunks_.empty()) {
    const PendingChunk pc = pending_chunks_.front();
    const BlobRec* blob = blob_table_.find(pc.khash);
    if (!blob || blob->gen != pc.gen) {
      // The blob was deleted or overwritten while its chunk waited; drop
      // it and release the buffer space it held.
      buffer_.release((u64)pc.slot_count * cfg_.slot_bytes);
      pending_chunks_.pop_front();
      continue;
    }
    if (!place_chunk(pc.khash, pc.chunk_idx, pc.slot_count, false,
                     pc.stream))
      break;
    pending_chunks_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Power loss & mount-time recovery
// ---------------------------------------------------------------------------

void KvFtl::power_fail_and_recover(ssd::CrashOutcome& out, sim::Task done) {
  // Snapshot the pre-cut blob table for the lost-write window.
  std::vector<std::pair<u64, u64>> pre;  // (khash, vfp)
  pre.reserve(blob_table_.size());
  blob_table_.for_each([&pre](u64 khash, const BlobRec& blob) {
    pre.emplace_back(khash, blob.vfp);
  });

  // Cut power at the media and the firmware engines.
  const PowerCut cut = cut_power();
  out.torn_pages = cut.torn.size();
  kv_core_.power_cycle(eq_.now());
  for (auto& m : managers_) m.power_cycle(eq_.now());
  packer_.power_cycle(eq_.now());

  // Everything DRAM-resident is gone: open lanes, pending placements,
  // blob table, Bloom filter, iterator buckets, read cache, the index
  // DRAM cache (the whole IndexModel is rebuilt below), and the per-block
  // record lists (rebuilt from OOB).
  for (auto& lane : lanes_) lane = ssd::WritePoint{};
  for (auto& lane : gc_lanes_) lane = ssd::WritePoint{};
  std::fill(stream_rr_.begin(), stream_rr_.end(), 0u);
  gc_lane_rr_ = 0;
  pending_chunks_.clear();
  recovery_pending_.clear();
  cmds_.clear();  // host commands die unanswered with the event queue
  index_write_accum_ = 0;
  index_page_rr_ = 0;
  rcache_lru_.clear();
  rcache_map_.clear();
  rcache_bytes_ = 0;
  blob_table_.clear();
  for (auto& recs : recs_) recs.clear();
  live_slots_ = 0;
  app_bytes_live_ = 0;
  waste_slots_ = 0;
  ns_kvp_counts_.fill(0);
  bloom_ = CountingBloom(cfg_.expected_keys_hint);
  iters_ = IteratorBuckets(cfg_.track_iterator_keys);
  index_ = IndexModel(cfg_.index);
#if KVSIM_AUDIT
  log_audit_ = std::make_unique<ssd::KvLogAudit>(geom_.total_blocks());
#endif

  // Walk committed OOB in epoch order and collect every surviving copy of
  // every (khash, generation): GC can leave two identical copies of a
  // chunk (migrated copy programmed, victim not yet erased), where the
  // later epoch wins; distinct generations are the overwrite history.
  struct ChunkLoc {
    flash::BlockId block = 0;
    u16 page = 0;
    u16 slot_start = 0;
    u16 slot_count = 0;
    bool present = false;
  };
  struct GenCand {
    u32 value_bytes = 0;
    u16 key_bytes = 0;
    u64 vfp = 0;
    std::vector<ChunkLoc> chunks;
  };
  std::unordered_map<u64, std::map<u32, GenCand>> cands;
  for (const auto& [epoch, p] : cut.pages) {
    const auto& oob = flash_.committed_oob().at(p);
    u64 page_slots = 0;
    for (const auto& e : oob.entries) {
      const u32 gen = (u32)(e.a >> 32);
      const u32 chunk_idx = (u32)((e.a >> 16) & 0xffff);
      const u16 slot_start = (u16)(e.a & 0xffff);
      const u32 value_bytes = (u32)(e.b >> 32);
      const u16 slot_count = (u16)((e.b >> 16) & 0xffff);
      const u16 key_bytes = (u16)(e.b & 0xffff);
      page_slots += slot_count;
      GenCand& gc = cands[e.tag][gen];
      if (gc.chunks.empty()) {
        gc.value_bytes = value_bytes;
        gc.key_bytes = key_bytes;
        gc.vfp = e.fp;
        const u32 slots = slots_for_value(value_bytes, cfg_.slot_bytes);
        gc.chunks.resize(chunks_for_blob(slots, cfg_.page_data_slots));
      }
      if (chunk_idx >= gc.chunks.size()) continue;  // corrupt descriptor
      gc.chunks[chunk_idx] =
          ChunkLoc{geom_.block_of_page(p), (u16)geom_.page_in_block(p),
                   slot_start, slot_count, true};
    }
    // Slots the seal left unfilled are the page's structural padding.
    if (page_slots < cfg_.page_data_slots)
      waste_slots_ += cfg_.page_data_slots - page_slots;
  }

  // Per key: mount the highest generation whose chunks are all durable (a
  // torn newest write falls back to the previous complete overwrite still
  // on unerased flash — its ack predates the lost one).
  struct Placement {
    flash::BlockId block;
    u16 page;
    u16 slot_start;
    u16 slot_count;
    u64 khash;
    u32 gen;
    u8 chunk_idx;
  };
  std::vector<Placement> placements;
  std::vector<u64> winners;
  for (const auto& [khash, gens] : cands) {
    for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
      const GenCand& gc = it->second;
      const bool complete =
          std::all_of(gc.chunks.begin(), gc.chunks.end(),
                      [](const ChunkLoc& c) { return c.present; });
      if (!complete) continue;
      BlobRec& blob = blob_table_.find_or_insert(khash);
      blob.value_bytes = gc.value_bytes;
      blob.key_bytes = gc.key_bytes;
      blob.gen = it->first;
      blob.vfp = gc.vfp;
      blob.assign_chunks((u32)gc.chunks.size(), ChunkRef{kPendingBlock, 0});
      for (u32 ci = 0; ci < gc.chunks.size(); ++ci)
        placements.push_back(Placement{gc.chunks[ci].block, gc.chunks[ci].page,
                                       gc.chunks[ci].slot_start,
                                       gc.chunks[ci].slot_count, khash,
                                       it->first, (u8)ci});
      winners.push_back(khash);
      break;
    }
  }
  // Physical order (block, page, slot) makes the rebuilt record lists —
  // and everything downstream of them — independent of hash-map iteration
  // order.
  std::sort(placements.begin(), placements.end(),
            [](const Placement& a, const Placement& b) {
              return std::tie(a.block, a.page, a.slot_start, a.khash) <
                     std::tie(b.block, b.page, b.slot_start, b.khash);
            });
  for (const Placement& pl : placements) {
    const u32 rec_idx = (u32)recs_[pl.block].size();
    recs_[pl.block].push_back(ChunkRec{pl.khash, pl.page, pl.slot_start,
                                       pl.slot_count, pl.chunk_idx, true});
    valid_units_[pl.block] += pl.slot_count;
    live_slots_ += pl.slot_count;
    blob_table_.find(pl.khash)->chunks()[pl.chunk_idx] =
        ChunkRef{(u32)pl.block, rec_idx};
    if (log_audit_)
      log_audit_->on_place(pl.khash, pl.chunk_idx, (u32)pl.block, rec_idx,
                           pl.slot_count);
  }
  // RAM structures keyed by the recovered set: Bloom filter, iterator
  // buckets, namespace counters, and the global index (rebuilt in DRAM
  // from the scan — charged as mount CPU below, not as index flash I/O).
  std::sort(winners.begin(), winners.end());
  for (u64 khash : winners) {
    bloom_.insert(khash);
    index_.on_insert(khash);
    auto kd = key_dir_.find(khash);
    if (kd != key_dir_.end()) {
      iters_.add(kd->second.key, kd->second.nsid);
      ++ns_kvp_counts_[kd->second.nsid];
    }
    const BlobRec* blob = blob_table_.find(khash);
    app_bytes_live_ += (u64)blob->value_bytes + blob->key_bytes;
  }
  out.recovered_units = blob_table_.size();
  for (const auto& [khash, vfp] : pre) {
    const BlobRec* blob = blob_table_.find(khash);
    if (!blob || blob->vfp != vfp) ++out.lost_units;
  }

  // Mount: one meta-area read per data page, plus key-handling time per
  // recovered KVP to rehash keys and rebuild the index in DRAM.
  const TimeNs cpu_done = kv_core_.reserve(
      eq_.now(), dispatch_ns_ + (TimeNs)winners.size() * cfg_.key_handling_ns);
  out.rebuild_pages_read =
      mount(cut, cfg_.mount_read_bytes, cpu_done, std::move(done));
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void KvFtl::relocate_page(flash::PageId p) {
  const flash::BlockId b = geom_.block_of_page(p);
  const u32 page = geom_.page_in_block(p);
  // Index-based loop: place_chunk may append to this very record list if
  // a GC lane re-opens on block `b` (media-error scrub of a live block).
  for (u32 ri = 0; ri < (u32)recs_[b].size(); ++ri) {
    const ChunkRec rec = recs_[b][ri];
    if (!rec.valid || rec.page != page) continue;
    drop_record(b, ri);
    BlobRec* blob = blob_table_.find(rec.khash);
    if (!blob) continue;  // blob already reclaimed
    ++stats_.remapped_units;
    // Each recovered chunk re-enters the log and pays the same index
    // relocation delta a GC migration would.
    charge_index_writes(index_.on_relocate(rec.khash).segment_writes);
    if (!place_chunk(rec.khash, rec.chunk_idx, rec.slot_count, true, 0)) {
      blob->chunks()[rec.chunk_idx] = ChunkRef{kPendingBlock, 0};
      recovery_pending_.push_back(PendingChunk{
          rec.khash, blob->gen, rec.chunk_idx, 0, rec.slot_count});
    }
  }
}

}  // namespace kvsim::kvftl
