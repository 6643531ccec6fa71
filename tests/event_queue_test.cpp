// Tests of the event queue's ordering and semantics: the radix buckets
// must pop in (time, schedule order), as a stable sort and a simple
// (time, seq) reference queue do, across run_until windows, power-cut
// discards and deltas up to 2^50 ns; plus run_until boundary behavior,
// clamp counting, and re-entrant scheduling from a callback that runs in
// its own pool slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace kvsim::sim {
namespace {

struct Key {
  TimeNs time;
  u64 seq;
};
struct KeyEarlier {
  bool operator()(const Key& a, const Key& b) const {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
};

/// The ordering contract spelled out: pending events in a flat list,
/// each pop a scan for the least (time, seq).
class ReferenceQueue {
 public:
  [[nodiscard]] TimeNs now() const { return now_; }
  void schedule_at(TimeNs t, std::function<void()> cb) {
    pending_.push_back(Pending{Key{std::max(t, now_), seq_++}, std::move(cb)});
  }
  void schedule_after(TimeNs delay, std::function<void()> cb) {
    schedule_at(now_ + delay, std::move(cb));
  }
  bool step() {
    if (pending_.empty()) return false;
    const auto it = std::min_element(
        pending_.begin(), pending_.end(),
        [](const Pending& a, const Pending& b) {
          return KeyEarlier{}(a.key, b.key);
        });
    now_ = it->key.time;
    auto cb = std::move(it->cb);
    pending_.erase(it);
    cb();
    return true;
  }
  void run() {
    while (step()) {
    }
  }
  void run_until(TimeNs t) {
    while (!pending_.empty() && earliest() <= t) step();
    now_ = std::max(now_, t);
  }
  u64 discard_pending() {
    const u64 n = pending_.size();
    pending_.clear();
    return n;
  }

 private:
  struct Pending {
    Key key;
    std::function<void()> cb;
  };
  [[nodiscard]] TimeNs earliest() const {
    TimeNs t = pending_.front().key.time;
    for (const Pending& p : pending_) t = std::min(t, p.key.time);
    return t;
  }
  std::vector<Pending> pending_;
  TimeNs now_ = 0;
  u64 seq_ = 0;
};

/// A delay from the simulator's mix, stretched to the queue's edges:
/// ties, nearby times, far times, and jumps up to 2^50 ns that change
/// the high bits of the reference.
TimeNs fuzz_delta(Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      return 0;
    case 1:
      return rng.below(4);
    case 2:
      return rng.range(1, 100'000);
    case 3:
      return rng.range(1, u64{1} << 24);
    case 4:
      return 10 * kMs;
    default:
      return rng.range(1, u64{1} << rng.range(30, 50));
  }
}

/// One seeded run over queue Q: top-level batches of schedules, steps,
/// run_until windows followed by schedules inside the window (before
/// the earliest pending event), and power-cut discards followed by
/// schedules earlier than the discarded events. Callbacks schedule
/// children, at now() or after a delta. Returns (event id, now() when it
/// ran) in run order and the discard counts.
template <typename Q>
std::vector<std::pair<u64, TimeNs>> fuzz_run(u64 seed) {
  Q q;
  Rng rng(seed);
  std::vector<std::pair<u64, TimeNs>> log;
  u64 next_id = 0;
  std::function<void(TimeNs)> add = [&](TimeNs delay) {
    const u64 id = next_id++;
    q.schedule_after(delay, [&, id] {
      log.emplace_back(id, q.now());
      const u64 children = rng.below(3);
      for (u64 c = 0; c < children && next_id < 4000; ++c)
        add(rng.below(3) == 0 ? 0 : fuzz_delta(rng));
    });
  };
  for (int round = 0; round < 60; ++round) {
    for (u64 i = rng.below(24); i > 0; --i) add(fuzz_delta(rng));
    switch (rng.below(4)) {
      case 0:
        for (u64 i = rng.below(40); i > 0 && q.step(); --i) {
        }
        break;
      case 1:
      case 2: {
        q.run_until(q.now() + fuzz_delta(rng));
        for (u64 i = rng.below(8); i > 0; --i) add(rng.below(1000));
        break;
      }
      default:
        log.emplace_back(~u64{0}, q.discard_pending());
        for (u64 i = rng.below(8); i > 0; --i) add(rng.below(1000));
    }
  }
  q.run();
  log.emplace_back(~u64{0}, q.now());
  return log;
}

TEST(EventQueueOrder, MatchesReferenceQueueAcrossWindowsAndDiscards) {
  for (u64 seed = 1; seed <= 60; ++seed) {
    const auto got = fuzz_run<EventQueue>(seed);
    const auto want = fuzz_run<ReferenceQueue>(seed);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", entry " << i;
  }
}

TEST(EventQueueOrder, RandomScheduleMatchesStableSort) {
  EventQueue eq;
  Rng rng(11);
  std::vector<Key> keys;
  std::vector<u64> fired;
  for (u64 seq = 0; seq < 3000; ++seq) {
    const TimeNs t = (TimeNs)rng.below(100);
    keys.push_back(Key{t, seq});
    eq.schedule_at(t, [seq, &fired] { fired.push_back(seq); });
  }
  eq.run();
  std::stable_sort(keys.begin(), keys.end(), KeyEarlier{});
  ASSERT_EQ(fired.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(fired[i], keys[i].seq);
  EXPECT_EQ(eq.events_processed(), keys.size());
}

TEST(EventQueueSemantics, RunUntilRunsEventExactlyAtBoundary) {
  EventQueue eq;
  int fired = 0;
  eq.schedule_at(10, [&] { ++fired; });
  eq.schedule_at(15, [&] { ++fired; });  // exactly at the boundary
  eq.schedule_at(16, [&] { ++fired; });
  eq.run_until(15);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eq.now(), 15u);
  // Draining past the last event still advances now() to the target.
  eq.run_until(100);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueSemantics, ClampCountingUnchanged) {
  EventQueue eq;
  eq.schedule_at(50, [] {});
  eq.run();
  EXPECT_EQ(eq.clamped_schedules(), 0u);
  TimeNs fired_at = 0;
  eq.schedule_at(10, [&] { fired_at = eq.now(); });  // in the past
  eq.schedule_at(20, [] {});                         // also in the past
  eq.run();
  EXPECT_EQ(fired_at, 50u);
  EXPECT_EQ(eq.clamped_schedules(), 2u);
}

TEST(EventQueueSemantics, ReentrantScheduleFromInsideCallback) {
  // A callback runs in its own pool slot, which is freed only after it
  // returns, so the work it schedules takes other slots; the chain must
  // still run to completion in order.
  EventQueue eq;
  std::vector<int> order;
  int depth = 0;
  std::function<void()> recurse = [&] {
    order.push_back(depth);
    if (++depth < 100) eq.schedule_after(1, recurse);
  };
  eq.schedule_at(0, recurse);
  eq.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[(size_t)i], i);
  EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueueSemantics, ReentrantScheduleAtSameTimeRunsAfterPeers) {
  // An event scheduled from inside a callback at the current time gets a
  // later seq than everything already pending, so it runs after peers
  // already queued at that time.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(5, [&] {
    order.push_back(0);
    eq.schedule_at(5, [&] { order.push_back(2); });
  });
  eq.schedule_at(5, [&] { order.push_back(1); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueSemantics, MoveOnlyCallablesAreAccepted) {
  EventQueue eq;
  auto owned = std::make_unique<int>(42);
  int got = 0;
  eq.schedule_at(1, [owned = std::move(owned), &got] { got = *owned; });
  eq.run();
  EXPECT_EQ(got, 42);
}

TEST(EventQueueSemantics, PendingCallbacksDestroyedOnQueueDestruction) {
  auto marker = std::make_shared<int>(0);
  {
    EventQueue eq;
    eq.schedule_at(10, [marker] { ++*marker; });
    eq.schedule_at(20, [marker] { ++*marker; });
    // Never run: destructor must release both callbacks' captures.
  }
  EXPECT_EQ(marker.use_count(), 1);
  EXPECT_EQ(*marker, 0);
}

}  // namespace
}  // namespace kvsim::sim
