#include "kvftl/index_model.h"

namespace kvsim::kvftl {

IndexModel::IndexModel(const IndexModelConfig& cfg)
    : cfg_(cfg),
      cache_capacity_(cfg.dram_bytes / cfg.segment_bytes),
      segments_(cfg.initial_segments),
      level_base_(cfg.initial_segments),
      nodes_(cfg.initial_segments) {
  if (cache_capacity_ == 0) cache_capacity_ = 1;
}

u64 IndexModel::segment_of(u64 khash) const {
  const u64 h = mix64(khash);
  u64 seg = h % level_base_;
  if (seg < split_ptr_) seg = h % (level_base_ * 2);
  return seg;
}

void IndexModel::link_front(u32 seg) {
  SegNode& n = nodes_[seg];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = seg;
  } else {
    tail_ = seg;
  }
  head_ = seg;
}

void IndexModel::unlink(u32 seg) {
  SegNode& n = nodes_[seg];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void IndexModel::move_to_front(u32 seg) {
  if (head_ == seg) return;
  unlink(seg);
  link_front(seg);
}

void IndexModel::cache_in(u32 seg, bool dirty, IndexCost& cost) {
  nodes_[seg].cached = true;
  nodes_[seg].dirty = dirty;
  link_front(seg);
  ++cached_;
  while (cached_ > cache_capacity_) {
    const u32 victim = tail_;
    if (nodes_[victim].dirty) ++cost.segment_writes;
    unlink(victim);
    nodes_[victim] = SegNode{};
    --cached_;
  }
}

IndexCost IndexModel::touch(u64 seg, bool dirty) {
  IndexCost cost;
  ++touches_;
  SegNode& n = nodes_[seg];
  if (n.cached) {
    ++hits_;
    cost.dram_hit = true;
    n.dirty |= dirty;
    move_to_front((u32)seg);
    return cost;
  }
  // Fault the segment in from flash. Past the first spill factor the
  // directory level above the segments no longer fits either, so the walk
  // deepens (serial reads).
  cost.segment_reads = 1;
  const u64 f = cfg_.level_spill_factor;
  if (f && segments_ > cache_capacity_ * f) ++cost.segment_reads;
  if (f && segments_ > cache_capacity_ * f * f * 8) ++cost.segment_reads;
  cache_in((u32)seg, dirty, cost);
  return cost;
}

void IndexModel::maybe_split(IndexCost& cost) {
  if (entries_ <= segments_ * cfg_.segment_split_threshold) return;
  // Linear hashing: split the segment at split_ptr_ into itself and a new
  // segment. Costs one read of the split segment (if uncached) plus two
  // write-backs (both halves), all off the critical path of the insert
  // that triggered it, but still flash traffic. Both halves end up
  // cached (they were just materialized in DRAM).
  const u64 seg = split_ptr_;
  const IndexCost fault = touch(seg, /*dirty=*/true);
  cost.segment_reads += fault.segment_reads;
  cost.segment_writes += fault.segment_writes + 2;
  const u64 new_seg = segments_;
  ++segments_;
  ++split_ptr_;
  ++splits_;
  if (split_ptr_ == level_base_) {
    level_base_ *= 2;
    split_ptr_ = 0;
  }
  // The new half has no flash copy yet: it enters the cache dirty without
  // a read (evictions still cost write-backs).
  nodes_.emplace_back();
  cache_in((u32)new_seg, /*dirty=*/true, cost);
}

IndexCost IndexModel::on_insert(u64 khash) {
  IndexCost cost = touch(segment_of(khash), /*dirty=*/true);
  ++entries_;
  maybe_split(cost);
  return cost;
}

IndexCost IndexModel::on_update(u64 khash) {
  return touch(segment_of(khash), /*dirty=*/true);
}

IndexCost IndexModel::on_relocate(u64 khash) {
  IndexCost cost;
  SegNode& n = nodes_[segment_of(khash)];
  if (n.cached) {
    n.dirty = true;  // resident: fold into its write-back
  } else {
    cost.segment_writes = 1;  // uncached: append a relocation delta
  }
  return cost;
}

IndexCost IndexModel::on_lookup(u64 khash) {
  return touch(segment_of(khash), /*dirty=*/false);
}

IndexCost IndexModel::on_remove(u64 khash) {
  IndexCost cost = touch(segment_of(khash), /*dirty=*/true);
  if (entries_ > 0) --entries_;
  return cost;
}

}  // namespace kvsim::kvftl
