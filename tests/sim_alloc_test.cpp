// Allocation-regression tests for the simulation core fast path.
//
// A counting global allocator asserts the contract docs/API.md promises:
// after warm-up, a steady-state schedule->run cycle with common capture
// sizes performs zero heap allocations per event, and sim::Task's heap
// fallback for oversized captures keeps exact callable semantics (no
// slicing, destructor runs exactly once, moves transfer ownership).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>

#include "sim/event_queue.h"
#include "sim/task.h"

// --- counting global allocator ---------------------------------------------
namespace {
unsigned long long g_allocs = 0;  // tests are single-threaded
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace kvsim::sim {
namespace {

TEST(TaskStorage, CommonCapturesStoreInline) {
  u64 sink = 0;
  // The simulator's typical captures: a reference/pointer or two, a
  // shared_ptr latch, a timestamp.
  Task a = [&sink] { ++sink; };
  auto latch = std::make_shared<int>(0);
  Task b = [latch, &sink] { ++sink; };
  struct {  // three words + a time: the flash completion shape
    void* self;
    u64 page;
    u64 bytes;
    TimeNs t;
  } cap{nullptr, 1, 2, 3};
  Task c = [cap, &sink] { sink += cap.page; };
  EXPECT_TRUE(a.is_inline());
  EXPECT_TRUE(b.is_inline());
  EXPECT_TRUE(c.is_inline());
  a();
  b();
  c();
  EXPECT_EQ(sink, 3u);
}

TEST(TaskStorage, OversizedCapturesFallBackToHeap) {
  struct Big {
    char payload[Task::kInlineBytes + 1];
  } big{};
  big.payload[0] = 17;
  int got = 0;
  Task t = [big, &got] { got = big.payload[0]; };
  EXPECT_FALSE(t.is_inline());
  t();
  EXPECT_EQ(got, 17);  // payload arrived intact: no slicing
}

TEST(TaskStorage, HeapFallbackDestructorRunsExactlyOnce) {
  struct Counted {
    std::shared_ptr<int> token = std::make_shared<int>(0);
    char pad[Task::kInlineBytes] = {};
    void operator()() const { ++*token; }
  };
  Counted c;
  std::weak_ptr<int> alive = c.token;
  {
    Task t = std::move(c);
    EXPECT_FALSE(t.is_inline());
    // Moving the Task moves the pointer, not the callable: still one copy.
    Task u = std::move(t);
    u();
    EXPECT_EQ(*alive.lock(), 1);
    c.token.reset();
    EXPECT_FALSE(alive.expired());  // the Task still owns the callable
  }
  EXPECT_TRUE(alive.expired());  // destroyed exactly once, on Task death
}

TEST(TaskStorage, InlineMoveTransfersAndDestroysOnce) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> alive = token;
  {
    Task t = [token] { ++*token; };
    token.reset();
    ASSERT_TRUE(t.is_inline());
    Task u = std::move(t);
    EXPECT_FALSE((bool)t);  // moved-from is empty
    u();
    EXPECT_EQ(*alive.lock(), 1);
  }
  EXPECT_TRUE(alive.expired());
}

TEST(AllocationRegression, SteadyStateEventCycleIsAllocationFree) {
  EventQueue eq;
  u64 sink = 0;
  auto latch = std::make_shared<int>(0);
  auto cycle = [&] {
    const TimeNs base = eq.now();
    for (int i = 0; i < 1000; ++i) {
      // Alternate the capture shapes the stack actually schedules.
      if (i % 2 == 0)
        eq.schedule_at(base + (TimeNs)(1000 - i), [&sink] { ++sink; });
      else
        eq.schedule_at(base + (TimeNs)(1000 - i), [latch, &sink] { ++sink; });
    }
    eq.run();
  };
  // Warm up: grows the slab pool and its per-slot links to steady state.
  for (int r = 0; r < 8; ++r) cycle();
  const auto before = g_allocs;
  for (int r = 0; r < 8; ++r) cycle();
  EXPECT_EQ(g_allocs, before) << "steady-state schedule->run allocated";
  EXPECT_EQ(sink, 16u * 1000u);
}

TEST(AllocationRegression, ReentrantSchedulingStaysAllocationFree) {
  EventQueue eq;
  int hops = 0;
  struct Chain {
    EventQueue* eq;
    int* hops;
    void operator()() const {
      if (++*hops < 1000) eq->schedule_after(1, Chain{eq, hops});
    }
  };
  // Warm-up chain, then a measured chain over recycled slots.
  eq.schedule_at(0, Chain{&eq, &hops});
  eq.run();
  hops = 0;
  const auto before = g_allocs;
  eq.schedule_after(1, Chain{&eq, &hops});
  eq.run();
  EXPECT_EQ(g_allocs, before) << "re-entrant rescheduling allocated";
  EXPECT_EQ(hops, 1000);
}

TEST(AllocationRegression, OversizedCaptureAllocatesExactlyOnce) {
  EventQueue eq;
  eq.schedule_at(1, [] {});  // warm the pool/heap
  eq.run();
  struct Big {
    char payload[128];
  } big{};
  int fired = 0;
  const auto before = g_allocs;
  eq.schedule_after(1, [big, &fired] {
    (void)big;
    ++fired;
  });
  EXPECT_EQ(g_allocs, before + 1);  // one heap box for the big callable
  eq.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace kvsim::sim
