// Discrete-event simulation core.
//
// Every component in the system (flash dies, FTLs, host drivers, workload
// runners) advances by scheduling callbacks on one shared EventQueue. Time
// is integer nanoseconds; ties are broken by insertion order so runs are
// fully deterministic.
//
// Hot-path design (see docs/API.md "Simulation core"):
//  * callbacks are sim::Task — a move-only wrapper whose 48 B inline
//    buffer holds the common capture without heap allocation;
//  * each callback is constructed in a slot of a slab-backed pool and
//    runs there, so a steady-state schedule→run cycle allocates nothing
//    and never moves a callback;
//  * the pending set is a monotone radix queue over those slots. No
//    pending event is earlier than the last popped time, the reference:
//    bucket 0 holds the events at the reference, and bucket b >= 1 those
//    whose time first differs from it at bit b - 1. Each bucket is a FIFO
//    chained through the slots, so equal times pop in schedule order.
#pragma once

#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "sim/task.h"

namespace kvsim::sim {

class EventQueue {
 public:
  KVSIM_THREAD_CONFINED;

  EventQueue() { heads_.fill(kNil); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Current simulated time.
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedule `cb` (anything a Task holds) at absolute time `t`; the Task
  /// is built in its pool slot. A `t` in the past is clamped to now *and
  /// counted*: a past-time schedule means some component computed a
  /// completion time before the current time, which silently reorders
  /// causality. The KVSIM_AUDIT build treats a nonzero clamp count as an
  /// invariant violation (see ssd/audit.h).
  template <typename F>
  void schedule_at(TimeNs t, F&& cb) {
    if (t < now_) {
      t = now_;
      ++clamped_;
    }
    if (free_ == kNil) grow_pool();
    const u32 slot = free_;
    // Build before taking the slot, so a throwing constructor leaks none.
    ::new (static_cast<void*>(slot_ptr(slot))) Task(std::forward<F>(cb));
    free_ = links_[slot].next;
    links_[slot].time = t;
    append(bucket_of(t), slot);
  }

  /// Schedule `cb` `delay` ns from now.
  template <typename F>
  void schedule_after(TimeNs delay, F&& cb) {
    schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Pop and run the earliest event. Returns false if the queue is empty.
  bool step() {
    if (!ready(kNever)) return false;
    run_front();
    return true;
  }

  /// Run until the queue drains.
  void run();

  /// Run until simulated time reaches `t` or the queue drains. An event
  /// scheduled exactly at `t` still runs; now() ends at `t` even when the
  /// queue drained earlier.
  void run_until(TimeNs t);

  /// Power-loss cut: destroy every pending event without running it and
  /// recycle its pool slot. now() is unchanged and the queue remains
  /// usable (mount-time recovery schedules fresh events afterwards).
  /// Returns the number of events discarded.
  u64 discard_pending();

  [[nodiscard]] bool empty() const {
    return heads_[0] == kNil && occupied_ == 0;
  }
  [[nodiscard]] u64 events_processed() const { return processed_; }
  /// Schedules whose target time was in the past (clamped to now).
  [[nodiscard]] u64 clamped_schedules() const { return clamped_; }

 private:
  static constexpr u32 kNil = std::numeric_limits<u32>::max();
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();
  /// Bucket 0 plus one per bit of a time.
  static constexpr int kBuckets = std::numeric_limits<TimeNs>::digits + 1;

  /// Per-slot queue state: the event's time and the next slot in its
  /// bucket (or, for a free slot, in the free list).
  struct Link {
    TimeNs time = 0;
    u32 next = kNil;
  };

  /// Tasks per pool slab. One slab is ~28 KiB — large enough that slab
  /// grabs are rare, small enough that an idle queue stays cheap.
  static constexpr u32 kSlabTasks = 512;

  [[nodiscard]] Task* slot_ptr(u32 slot) {
    return reinterpret_cast<Task*>(slabs_[slot / kSlabTasks].get()) +
           slot % kSlabTasks;
  }
  [[nodiscard]] int bucket_of(TimeNs t) const {
    return std::bit_width(t ^ ref_);
  }
  void append(int b, u32 slot) {
    links_[slot].next = kNil;
    if (heads_[b] == kNil) {
      heads_[b] = slot;
      if (b != 0) occupied_ |= u64{1} << (b - 1);
    } else {
      links_[tails_[b]].next = slot;
    }
    tails_[b] = slot;
  }
  /// Whether an event at or before `limit` is pending. If one is, bucket
  /// 0 holds the earliest events; if none is, the reference stays put,
  /// so it never passes now().
  bool ready(TimeNs limit) {
    if (heads_[0] != kNil) return ref_ <= limit;
    return occupied_ != 0 && rebase(limit);
  }
  bool rebase(TimeNs limit);
  /// Run bucket 0's head in its slot, then destroy and free the slot
  /// (also when the callback throws).
  void run_front() {
    const u32 slot = heads_[0];
    heads_[0] = links_[slot].next;
    now_ = ref_;
    ++processed_;
    struct Release {
      EventQueue& q;
      u32 slot;
      ~Release() { q.release(slot); }
    } release{*this, slot};
    (*slot_ptr(slot))();
  }
  void release(u32 slot) {
    slot_ptr(slot)->~Task();
    links_[slot].next = free_;
    free_ = slot;
  }
  void grow_pool();

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<Link> links_;  // one per pool slot
  u32 free_ = kNil;          // head of the free-slot list
  std::array<u32, kBuckets> heads_;  // kNil while a bucket is empty
  std::array<u32, kBuckets> tails_{};
  u64 occupied_ = 0;  // bit b - 1 set while bucket b >= 1 is non-empty
  TimeNs ref_ = 0;    // the reference: never after now_
  TimeNs now_ = 0;
  u64 processed_ = 0;
  u64 clamped_ = 0;
};

/// A serially-reusable resource (a flash die, a channel, a CPU) modeled by
/// its next-free time. Callers reserve an interval and learn when their
/// use completes; contention appears as queueing delay.
class Resource {
 public:
  KVSIM_THREAD_CONFINED;
  /// The outcome of one reservation, split into the queueing delay spent
  /// waiting for the resource and the service time actually holding it.
  /// Converts implicitly to the completion time, so callers that only
  /// care about "when is my use done" treat reserve() as returning TimeNs.
  struct Grant {
    TimeNs start = 0;    ///< when the resource became ours
    TimeNs done = 0;     ///< completion time (start + service)
    TimeNs wait = 0;     ///< queueing delay (start - earliest)
    TimeNs service = 0;  ///< duration the resource was held
    operator TimeNs() const { return done; }
  };

  /// Reserve the resource for `duration`, starting no earlier than
  /// `earliest`. Returns the wait/service breakdown (implicitly the
  /// completion time). Also accumulates busy time and reservation counts
  /// for utilization accounting.
  Grant reserve(TimeNs earliest, TimeNs duration) {
    const TimeNs start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + duration;
    busy_ += duration;
    ++reservations_;
    return Grant{start, free_at_, start - earliest, duration};
  }

  [[nodiscard]] TimeNs free_at() const { return free_at_; }
  [[nodiscard]] TimeNs busy_time() const { return busy_; }
  [[nodiscard]] u64 reservations() const { return reservations_; }

  /// Power-loss cut at time `now`: outstanding reservations die with the
  /// power, so the resource is free again immediately. Accumulated busy
  /// time and reservation counts are kept (telemetry, not device state).
  void power_cycle(TimeNs now) {
    if (free_at_ > now) free_at_ = now;
  }

 private:
  TimeNs free_at_ = 0;
  TimeNs busy_ = 0;
  u64 reservations_ = 0;
};

}  // namespace kvsim::sim
