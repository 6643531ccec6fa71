#include "sim/event_queue.h"

#include <algorithm>

namespace kvsim::sim {

// The pool slabs are raw storage and destroy nothing: destroy the
// callbacks of events still pending.
EventQueue::~EventQueue() { discard_pending(); }

void EventQueue::grow_pool() {
  const u32 base = (u32)slabs_.size() * kSlabTasks;
  slabs_.push_back(
      std::make_unique<std::byte[]>(sizeof(Task) * kSlabTasks));
  links_.resize(base + kSlabTasks);
  // Chain in reverse so slots hand out in ascending order (cosmetic, but
  // keeps early events in the first cache lines of the slab).
  for (u32 i = kSlabTasks; i > 0; --i) {
    links_[base + i - 1].next = free_;
    free_ = base + i - 1;
  }
}

// Bucket 0 is empty, so the lowest non-empty bucket holds the earliest
// events. Its minimum becomes the reference, and its events move, in
// order, into the lower buckets, which are all empty: each bucket stays
// in schedule order. Events in higher buckets keep their bucket, since
// the new reference differs from the old one only below their bit.
bool EventQueue::rebase(TimeNs limit) {
  const int b = std::countr_zero(occupied_) + 1;
  TimeNs min = links_[heads_[b]].time;
  for (u32 s = links_[heads_[b]].next; s != kNil; s = links_[s].next)
    min = std::min(min, links_[s].time);
  if (min > limit) return false;
  ref_ = min;
  occupied_ &= occupied_ - 1;
  for (u32 s = std::exchange(heads_[b], kNil); s != kNil;) {
    const u32 next = links_[s].next;
    append(bucket_of(links_[s].time), s);
    s = next;
  }
  return true;
}

u64 EventQueue::discard_pending() {
  u64 discarded = 0;
  for (u32& head : heads_)
    for (u32 s = std::exchange(head, kNil); s != kNil; ++discarded) {
      const u32 next = links_[s].next;
      release(s);
      s = next;
    }
  occupied_ = 0;
  ref_ = now_;
  return discarded;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(TimeNs t) {
  while (ready(t)) run_front();
  if (now_ < t) now_ = t;
}

}  // namespace kvsim::sim
