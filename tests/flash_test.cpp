// Unit tests for flash geometry math and controller timing/parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "flash/controller.h"

namespace kvsim::flash {
namespace {

FlashGeometry small_geom() {
  FlashGeometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  g.page_bytes = 32 * KiB;
  return g;
}

TEST(Geometry, Totals) {
  FlashGeometry g = small_geom();
  EXPECT_EQ(g.total_dies(), 4u);
  EXPECT_EQ(g.total_planes(), 8u);
  EXPECT_EQ(g.total_blocks(), 32u);
  EXPECT_EQ(g.total_pages(), 256u);
  EXPECT_EQ(g.raw_capacity_bytes(), 256u * 32 * KiB);
  EXPECT_EQ(g.block_bytes(), 8u * 32 * KiB);
}

TEST(Geometry, AddressRoundTrip) {
  FlashGeometry g = small_geom();
  for (BlockId b = 0; b < g.total_blocks(); ++b) {
    for (u32 p = 0; p < g.pages_per_block; ++p) {
      const PageId pid = g.page_id(b, p);
      EXPECT_EQ(g.block_of_page(pid), b);
      EXPECT_EQ(g.page_in_block(pid), p);
      EXPECT_EQ(g.die_of_page(pid), g.die_of_block(b));
      EXPECT_EQ(g.channel_of_page(pid), g.channel_of_block(b));
    }
  }
}

TEST(Geometry, PlaneBlockComposition) {
  FlashGeometry g = small_geom();
  for (u64 plane = 0; plane < g.total_planes(); ++plane)
    for (u32 b = 0; b < g.blocks_per_plane; ++b)
      EXPECT_EQ(g.plane_of_block(g.block_id(plane, b)), plane);
}

TEST(Geometry, ChannelMapping) {
  FlashGeometry g = small_geom();
  // Dies 0,1 on channel 0; dies 2,3 on channel 1.
  EXPECT_EQ(g.channel_of_block(g.block_id(0, 0)), 0u);
  EXPECT_EQ(g.channel_of_block(g.block_id(7, 0)), 1u);
}

TEST(Timing, TransferScalesWithBytes) {
  FlashTiming t;
  EXPECT_EQ(t.transfer_ns(0), 0u);
  EXPECT_GT(t.transfer_ns(32 * KiB), t.transfer_ns(4 * KiB));
}

TEST(Controller, ReadLatencyIsArrayPlusTransfer) {
  sim::EventQueue eq;
  FlashGeometry g = small_geom();
  FlashTiming t;
  FlashController ctl(eq, g, t);
  TimeNs done_at = 0;
  ctl.read_page(0, 4 * KiB, [&] { done_at = eq.now(); });
  eq.run();
  EXPECT_EQ(done_at, t.read_page_ns + t.transfer_ns(4 * KiB));
  EXPECT_EQ(ctl.stats().page_reads, 1u);
  EXPECT_EQ(ctl.stats().bytes_read, 4 * KiB);
}

TEST(Controller, ProgramLatencyIsTransferPlusProgram) {
  sim::EventQueue eq;
  FlashGeometry g = small_geom();
  FlashTiming t;
  FlashController ctl(eq, g, t);
  TimeNs done_at = 0;
  ctl.program_page(0, 32 * KiB, [&] { done_at = eq.now(); });
  eq.run();
  EXPECT_EQ(done_at, t.transfer_ns(32 * KiB) + t.program_page_ns);
}

TEST(Controller, SameDieSerializes) {
  sim::EventQueue eq;
  FlashGeometry g = small_geom();
  FlashTiming t;
  FlashController ctl(eq, g, t);
  TimeNs first = 0, second = 0;
  ctl.read_page(0, 1 * KiB, [&] { first = eq.now(); });
  ctl.read_page(1, 1 * KiB, [&] { second = eq.now(); });  // same block/die
  eq.run();
  EXPECT_GE(second, first + t.read_page_ns);
}

TEST(Controller, DifferentDiesOverlap) {
  sim::EventQueue eq;
  FlashGeometry g = small_geom();
  FlashTiming t;
  FlashController ctl(eq, g, t);
  // Block on plane 0 (die 0) and block on plane 7 (die 3, other channel).
  const PageId a = g.page_id(g.block_id(0, 0), 0);
  const PageId b = g.page_id(g.block_id(7, 0), 0);
  TimeNs ta = 0, tb = 0;
  ctl.read_page(a, 1 * KiB, [&] { ta = eq.now(); });
  ctl.read_page(b, 1 * KiB, [&] { tb = eq.now(); });
  eq.run();
  // Both finish at tR + transfer: full overlap.
  EXPECT_EQ(ta, tb);
}

TEST(Controller, SameChannelDifferentDiesShareBus) {
  sim::EventQueue eq;
  FlashGeometry g = small_geom();
  FlashTiming t;
  FlashController ctl(eq, g, t);
  // Dies 0 and 1 are both on channel 0.
  const PageId a = g.page_id(g.block_id(0, 0), 0);
  const PageId b = g.page_id(g.block_id(2, 0), 0);
  TimeNs ta = 0, tb = 0;
  ctl.read_page(a, 32 * KiB, [&] { ta = eq.now(); });
  ctl.read_page(b, 32 * KiB, [&] { tb = eq.now(); });
  eq.run();
  // Array reads overlap, but the channel transfer serializes.
  const TimeNs xfer = t.transfer_ns(32 * KiB);
  EXPECT_EQ(ta, t.read_page_ns + xfer);
  EXPECT_EQ(tb, t.read_page_ns + 2 * xfer);
}

TEST(Controller, EccRetriesDisabledByDefault) {
  sim::EventQueue eq;
  FlashController ctl(eq, small_geom(), FlashTiming{});
  for (int i = 0; i < 200; ++i) ctl.read_page((PageId)i % 64, 1024, [] {});
  eq.run();
  EXPECT_EQ(ctl.stats().read_retries, 0u);
}

TEST(Controller, EccRetriesStretchTheTail) {
  sim::EventQueue eq;
  FlashTiming t;
  t.read_retry_prob = 0.2;
  FlashController ctl(eq, small_geom(), t);
  TimeNs max_lat = 0;
  u64 done_reads = 0;
  for (int i = 0; i < 2000; ++i) {
    const TimeNs t0 = eq.now();
    ctl.read_page(0, 1024, [&, t0] {
      max_lat = std::max(max_lat, eq.now() - t0);
      ++done_reads;
    });
    eq.run();
  }
  EXPECT_EQ(done_reads, 2000u);
  const double rate =
      (double)ctl.stats().read_retries / (double)ctl.stats().page_reads;
  EXPECT_NEAR(rate, 0.25, 0.06);  // geometric mean retries p/(1-p)
  EXPECT_GE(max_lat, t.read_page_ns + 2 * t.read_retry_ns);
}

TEST(Controller, EccRetryRoundsAreCapped) {
  // A retry probability of 1 would livelock an unbounded retry loop; the
  // controller must terminate after kMaxReadRetryRounds instead.
  sim::EventQueue eq;
  FlashTiming t;
  t.read_retry_prob = 1.0;
  FlashController ctl(eq, small_geom(), t);
  TimeNs done_at = 0;
  ctl.read_page(0, 1 * KiB, [&] { done_at = eq.now(); });
  eq.run();
  EXPECT_EQ(ctl.stats().read_retries, FlashController::kMaxReadRetryRounds);
  EXPECT_EQ(done_at,
            t.read_page_ns +
                FlashController::kMaxReadRetryRounds * t.read_retry_ns +
                t.transfer_ns(1 * KiB));
  // And per-read, never more than the cap even across many reads.
  const u64 reads = 50;
  for (u64 i = 0; i < reads; ++i) ctl.read_page((PageId)i % 64, 1024, [] {});
  eq.run();
  EXPECT_EQ(ctl.stats().read_retries,
            (reads + 1) * FlashController::kMaxReadRetryRounds);
}

TEST(Controller, EraseBusiesDie) {
  sim::EventQueue eq;
  FlashGeometry g = small_geom();
  FlashTiming t;
  FlashController ctl(eq, g, t);
  TimeNs erase_done = 0, read_done = 0;
  ctl.erase_block(0, [&] { erase_done = eq.now(); });
  ctl.read_page(0, 1 * KiB, [&] { read_done = eq.now(); });
  eq.run();
  EXPECT_EQ(erase_done, t.erase_block_ns);
  EXPECT_GE(read_done, t.erase_block_ns + t.read_page_ns);
  EXPECT_EQ(ctl.stats().block_erases, 1u);
}

}  // namespace
}  // namespace kvsim::flash
