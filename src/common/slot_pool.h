// Index-addressed pool of per-command records.
//
// A command whose completion spans several events (a block read crossing
// the NVMe link and the FTL, an LSM lookup probing SST after SST) keeps
// its state in one record of a SlotPool, and each of its event closures
// captures only {owner, slot}: a pointer and an integer, which always fit
// sim::Fn's inline buffer. Records are recycled through a free list (the
// fixed-chunk, offset-addressed allocation idiom), so once the pool has
// grown to the peak number of commands in flight, starting a command
// allocates nothing. A recycled record keeps its members' capacity (a key
// string, a page list); the owner resets the fields it uses.
//
// acquire() may grow the vector and move every record, and a completion
// callback can start a new command. So a record is addressed by slot, and
// a reference into the pool is never held across a call out of its owner.
#pragma once

#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim {

/// Occupancy of a SlotPool (tests and crash-recovery checks).
struct PoolUsage {
  u32 live = 0;  ///< records acquired and not yet released
  u32 size = 0;  ///< records allocated (free + live)
  u32 peak = 0;  ///< most records ever live at once
};

template <typename T>
class SlotPool {
 public:
  KVSIM_THREAD_CONFINED;

  /// A free record's slot: a recycled one when any is free.
  u32 acquire() {
    u32 slot;
    if (free_.empty()) {
      slot = (u32)recs_.size();
      recs_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    if (++live_ > peak_) peak_ = live_;
    return slot;
  }

  /// Return `slot` to the free list. The record keeps its contents until
  /// it is acquired again.
  void release(u32 slot) {
    free_.push_back(slot);
    --live_;
  }

  T& operator[](u32 slot) { return recs_[slot]; }
  const T& operator[](u32 slot) const { return recs_[slot]; }

  /// Power loss: every record dies with the commands it served (their
  /// completion events were discarded), callbacks included.
  void clear() {
    recs_.clear();
    free_.clear();
    live_ = 0;
  }

  [[nodiscard]] PoolUsage usage() const {
    return PoolUsage{live_, (u32)recs_.size(), peak_};
  }

 private:
  std::vector<T> recs_;
  std::vector<u32> free_;
  u32 live_ = 0;
  u32 peak_ = 0;
};

}  // namespace kvsim
