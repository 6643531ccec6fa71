// Tests for the NVMe KV command-set model (the Fig. 8 mechanism) and the
// multi-queue front-end: WRR arbiter selection logic in isolation, config
// validation, bus-transfer rounding, and end-to-end multi-queue behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nvme/nvme_link.h"
#include "nvme/wrr_arbiter.h"

namespace kvsim::nvme {
namespace {

TEST(NvmeCommands, InlineKeyNeedsOneCommand) {
  NvmeConfig cfg;
  EXPECT_EQ(kv_commands_for_key(cfg, 4), 1u);
  EXPECT_EQ(kv_commands_for_key(cfg, 16), 1u);
}

TEST(NvmeCommands, LargeKeyNeedsTwoCommands) {
  NvmeConfig cfg;
  EXPECT_EQ(kv_commands_for_key(cfg, 17), 2u);
  EXPECT_EQ(kv_commands_for_key(cfg, 255), 2u);
}

TEST(NvmeCommands, CompoundCommandsCollapseToOne) {
  NvmeConfig cfg;
  cfg.compound_commands = true;
  EXPECT_EQ(kv_commands_for_key(cfg, 255), 1u);
}

TEST(NvmeLink, SubmissionCostScalesWithCommands) {
  sim::EventQueue eq;
  NvmeConfig cfg;
  NvmeLink link(eq, cfg);
  TimeNs one_cmd = 0, two_cmd = 0;
  link.submit_on(0, 1, 0, [&] { one_cmd = eq.now(); });
  eq.run();
  const TimeNs base = eq.now();
  link.submit_on(0, 2, 0, [&] { two_cmd = eq.now() - base; });
  eq.run();
  EXPECT_GT(two_cmd, one_cmd);
  EXPECT_EQ(link.commands_issued(), 3u);
}

TEST(NvmeLink, PayloadTransfersOnSharedBus) {
  sim::EventQueue eq;
  NvmeConfig cfg;
  NvmeLink link(eq, cfg);
  TimeNs small = 0;
  link.submit_on(0, 1, 4 * KiB, [&] { small = eq.now(); });
  eq.run();
  sim::EventQueue eq2;
  NvmeLink link2(eq2, cfg);
  TimeNs large = 0;
  link2.submit_on(0, 1, 1 * MiB, [&] { large = eq2.now(); });
  eq2.run();
  EXPECT_GT(large, small + 100 * kUs);  // 1 MiB at 3.2 GB/s ~ 328 us
}

TEST(NvmeLink, ConcurrentSubmissionsSerializeOnCommandProcessor) {
  sim::EventQueue eq;
  NvmeConfig cfg;
  NvmeLink link(eq, cfg);
  std::vector<TimeNs> arrivals;
  for (int i = 0; i < 8; ++i)
    link.submit_on(0, 1, 0, [&] { arrivals.push_back(eq.now()); });
  eq.run();
  for (size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
}

TEST(NvmeLink, HostCpuAccounted) {
  sim::EventQueue eq;
  NvmeConfig cfg;
  NvmeLink link(eq, cfg);
  link.submit_on(0, 2, 0, [] {});
  link.complete_on(0, 0, [] {});
  eq.run();
  EXPECT_EQ(link.host_cpu_ns(),
            2 * cfg.host_submit_ns + cfg.completion_ns);
}

TEST(NvmeLink, CompletionCarriesReadPayload) {
  sim::EventQueue eq;
  NvmeConfig cfg;
  NvmeLink link(eq, cfg);
  TimeNs t = 0;
  link.complete_on(0, 1 * MiB, [&] { t = eq.now(); });
  eq.run();
  EXPECT_GT(t, 300 * kUs);
}

// --- WRR arbiter in isolation ----------------------------------------------

TEST(WrrArbiter, WeightsHonoredOverCreditWindow) {
  // Weights 3:1 with burst 2 -> a round is 6 fetches for q0, 2 for q1.
  WrrArbiter arb({3, 1}, 2);
  auto full = [](u32) -> u64 { return 100; };
  std::vector<int> picks;
  for (int i = 0; i < 8; ++i) picks.push_back(arb.pick(full));
  int q0 = 0, q1 = 0;
  for (int p : picks) (p == 0 ? q0 : q1)++;
  EXPECT_EQ(q0, 6);
  EXPECT_EQ(q1, 2);
  // A queue runs its whole burst before the cursor moves on.
  EXPECT_EQ(picks, (std::vector<int>{0, 0, 0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(arb.rounds(), 0u);
  EXPECT_EQ(arb.pick(full), 0);  // 9th fetch opens the next round
  EXPECT_EQ(arb.rounds(), 1u);
}

TEST(WrrArbiter, WorkConservingLoneQueue) {
  // A lone backlogged queue is never idled regardless of its weight:
  // the arbiter replenishes instead of returning -1.
  WrrArbiter arb({1, 16}, 1);
  auto only_q0 = [](u32 q) -> u64 { return q == 0 ? 5 : 0; };
  for (int i = 0; i < 10; ++i) EXPECT_EQ(arb.pick(only_q0), 0);
  EXPECT_EQ(arb.rounds(), 9u);      // budget of 1 -> replenish per fetch
  EXPECT_EQ(arb.stalls(0), 9u);     // passed over once per replenish
  EXPECT_EQ(arb.stalls(1), 0u);     // an empty queue never stalls
}

TEST(WrrArbiter, StarvationFreedomW16vsW1) {
  // The w=1 queue still gets its burst every round: over two full credit
  // windows of a 16:1 arbiter it is served exactly 2*burst times, and
  // never waits longer than one full window between services.
  WrrArbiter arb({16, 1}, 4);
  auto full = [](u32) -> u64 { return 1000; };
  std::vector<int> picks;
  for (int i = 0; i < 136; ++i) picks.push_back(arb.pick(full));  // 2 rounds
  int q1 = 0;
  int last_q1 = -1, max_gap = 0;
  for (int i = 0; i < (int)picks.size(); ++i) {
    if (picks[i] != 1) continue;
    ++q1;
    if (last_q1 >= 0) max_gap = std::max(max_gap, i - last_q1);
    last_q1 = i;
  }
  EXPECT_EQ(q1, 8);           // 2 rounds * burst 4
  EXPECT_LE(max_gap, 16 * 4 + 1);  // bounded by the heavy queue's budget
  EXPECT_GT(arb.stalls(1), 0u);    // and the wait is visible as stalls
}

TEST(WrrArbiter, DeterministicTieBreakAndReplay) {
  // Equal weights alternate from the lowest id, and two identically
  // configured arbiters fed the same backlog produce the same sequence.
  WrrArbiter a({1, 1}, 1), b({1, 1}, 1);
  auto full = [](u32) -> u64 { return 9; };
  std::vector<int> sa, sb;
  for (int i = 0; i < 10; ++i) {
    sa.push_back(a.pick(full));
    sb.push_back(b.pick(full));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa, (std::vector<int>{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}));
}

TEST(WrrArbiter, EmptyBacklogReturnsMinusOne) {
  WrrArbiter arb({2, 1}, 4);
  const u32 c0 = arb.credits(0), c1 = arb.credits(1);
  auto empty = [](u32) -> u64 { return 0; };
  EXPECT_EQ(arb.pick(empty), -1);
  // An idle decision consumes nothing: no credits, no rounds, no stalls.
  EXPECT_EQ(arb.credits(0), c0);
  EXPECT_EQ(arb.credits(1), c1);
  EXPECT_EQ(arb.rounds(), 0u);
  EXPECT_EQ(arb.stalls(0), 0u);
}

// --- NvmeConfig validation --------------------------------------------------

TEST(NvmeConfig, SeededViolationsThrow) {
  // Each seeded violation must be caught by validate() — and therefore by
  // NvmeLink's constructor, which calls it.
  auto expect_invalid = [](NvmeConfig cfg) {
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    sim::EventQueue eq;
    EXPECT_THROW(NvmeLink(eq, cfg), std::invalid_argument);
  };
  NvmeConfig c;
  c.command_bytes = 0;
  expect_invalid(c);
  c = NvmeConfig{};
  c.bus_bytes_per_ns = 0.0;
  expect_invalid(c);
  c = NvmeConfig{};
  c.bus_bytes_per_ns = -3.2;
  expect_invalid(c);
  c = NvmeConfig{};
  c.num_queues = 0;
  expect_invalid(c);
  c = NvmeConfig{};
  c.sq_depth = 0;
  expect_invalid(c);
  c = NvmeConfig{};
  c.arbitration_burst = 0;
  expect_invalid(c);
  c = NvmeConfig{};
  c.num_queues = 2;
  c.queue_weights = {1, 2, 3};  // shape mismatch
  expect_invalid(c);
  c = NvmeConfig{};
  c.num_queues = 2;
  c.queue_weights = {4, 0};  // zero weight
  expect_invalid(c);

  NvmeConfig ok;
  ok.num_queues = 4;
  ok.queue_weights = {1, 2, 4, 8};
  EXPECT_NO_THROW(ok.validate());
}

TEST(NvmeLink, BusTransferRoundsUp) {
  sim::EventQueue eq;
  NvmeConfig cfg;  // 3.2 B/ns
  NvmeLink link(eq, cfg);
  EXPECT_EQ(link.xfer_ns(0), 0);
  EXPECT_EQ(link.xfer_ns(1), 1);    // 0.3125 ns of bus time still costs 1
  EXPECT_EQ(link.xfer_ns(57), 18);  // 17.8125 -> 18, not 17
  EXPECT_EQ(link.xfer_ns(64), 20);  // exact multiples stay exact
  // And the rounding is what the completion path actually charges.
  TimeNs t = 0;
  link.complete_on(0, 57, [&] { t = eq.now(); });
  eq.run();
  EXPECT_EQ(t, 18);
}

// --- multi-queue end-to-end --------------------------------------------------

NvmeConfig two_queue_cfg() {
  NvmeConfig cfg;
  cfg.num_queues = 2;
  cfg.queue_weights = {2, 1};
  cfg.arbitration_burst = 1;
  return cfg;
}

TEST(NvmeLink, MultiQueueDrainsAndSplitsStats) {
  sim::EventQueue eq;
  NvmeLink link(eq, two_queue_cfg());
  int done = 0;
  for (int i = 0; i < 4; ++i) link.submit_on(0, 1, 4 * KiB, [&] { ++done; });
  for (int i = 0; i < 4; ++i) link.submit_on(1, 1, 0, [&] { ++done; });
  eq.run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(link.queue_backlog(0), 0u);
  EXPECT_EQ(link.queue_backlog(1), 0u);
  const NvmeQueueStats s0 = link.queue_stats(0), s1 = link.queue_stats(1);
  EXPECT_EQ(s0.submissions, 4u);
  EXPECT_EQ(s1.submissions, 4u);
  EXPECT_EQ(s0.commands, 4u);
  EXPECT_EQ(s0.payload_bytes, 4u * 4 * KiB);
  EXPECT_EQ(s1.payload_bytes, 0u);
  EXPECT_GT(s0.max_occupancy, 0u);
  // With half the weight, queue 1's commands spend at least as long
  // waiting for fetch as queue 0's.
  EXPECT_GE(s1.queue_wait_ns, s0.queue_wait_ns);
  EXPECT_GT(link.arbitration_rounds(), 0u);
}

TEST(NvmeLink, MultiQueueInterleaveIsDeterministic) {
  auto run_once = [] {
    sim::EventQueue eq;
    NvmeLink link(eq, two_queue_cfg());
    std::vector<std::pair<u32, TimeNs>> arrivals;
    for (int i = 0; i < 6; ++i) {
      link.submit_on(0, 1, 0, [&arrivals, &eq] {
        arrivals.push_back({0, eq.now()});
      });
      link.submit_on(1, 1, 0, [&arrivals, &eq] {
        arrivals.push_back({1, eq.now()});
      });
    }
    eq.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(NvmeLink, QueueIdClampsToConfiguredCount) {
  sim::EventQueue eq;
  NvmeLink link(eq, two_queue_cfg());
  link.submit_on(99, 1, 0, [] {});
  eq.run();
  EXPECT_EQ(link.queue_stats(1).submissions, 1u);
  EXPECT_EQ(link.queue_stats(0).submissions, 0u);
}

TEST(NvmeLink, SqFullStallsCounted) {
  sim::EventQueue eq;
  NvmeConfig cfg = two_queue_cfg();
  cfg.sq_depth = 1;
  cfg.device_fetch_ns = 1 * kMs;  // keep entries parked while we post
  NvmeLink link(eq, cfg);
  int done = 0;
  // First post on q1 is fetched immediately (work-conserving); the second
  // parks, and the third finds the SQ at depth: it counts a stall and
  // waits out a doorbell re-poll instead of parking synchronously.
  for (int i = 0; i < 3; ++i) link.submit_on(1, 1, 0, [&] { ++done; });
  EXPECT_EQ(link.queue_stats(1).sq_full_stalls, 1u);
  EXPECT_EQ(link.queue_stats(1).max_occupancy, 1u);  // overflow not yet parked
  eq.run();
  EXPECT_EQ(done, 3);  // overflow is re-polled in, never dropped
  EXPECT_EQ(link.queue_stats(1).max_occupancy, 2u);
}

TEST(NvmeLink, LoneQueueTakesTheArbiterPath) {
  // One queue is the one-queue case of the multi-queue model: its SQ is
  // bounded by sq_depth, and its fetches go through the WRR arbiter,
  // which opens a round (and counts a stall) every arbitration_burst
  // fetches.
  sim::EventQueue eq;
  NvmeConfig cfg;
  cfg.sq_depth = 1;
  cfg.device_fetch_ns = 1 * kMs;  // keep entries parked while we post
  NvmeLink link(eq, cfg);
  int done = 0;
  for (int i = 0; i < 3; ++i) link.submit_on(0, 1, 0, [&] { ++done; });
  EXPECT_EQ(link.queue_stats(0).sq_full_stalls, 1u);
  eq.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(link.arbitration_rounds(), 0u);
  // Fetches 4 to burst + 1: the last one opens the second round.
  for (u32 i = 3; i <= cfg.arbitration_burst; ++i) {
    link.submit_on(0, 1, 0, [&] { ++done; });
    eq.run();
  }
  EXPECT_EQ(done, (int)cfg.arbitration_burst + 1);
  EXPECT_EQ(link.arbitration_rounds(), 1u);
  EXPECT_EQ(link.queue_stats(0).arbitration_stalls, 1u);
}

TEST(NvmeLink, SqFullRepollDelayLandsInQueueWait) {
  // A post that finds the SQ at depth waits out sq_repoll_ns before it
  // can park, and that wait must be visible in queue_wait_ns: the entry
  // keeps its original post time, so the telemetry shows the stall
  // instead of silently hiding host-side backpressure.
  auto run_with_repoll = [](TimeNs repoll) {
    sim::EventQueue eq;
    NvmeConfig cfg = two_queue_cfg();
    cfg.sq_depth = 1;
    cfg.device_fetch_ns = 1 * kMs;
    cfg.sq_repoll_ns = repoll;
    NvmeLink link(eq, cfg);
    int done = 0;
    for (int i = 0; i < 3; ++i) link.submit_on(1, 1, 0, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 3);
    return link.queue_stats(1).queue_wait_ns;
  };
  const u64 fast = run_with_repoll(1000);
  const u64 slow = run_with_repoll(10 * kMs);
  // A re-poll shorter than the fetch cadence is absorbed by arbitration
  // (the entry lands before the fetcher frees up); one longer than it
  // holds the overflow entry at the host past the fetcher's idle point,
  // and that extra wait must surface in the queue-wait telemetry.
  EXPECT_GT(slow, fast + 5 * kMs);
  // Back-to-back overflow posts serialize behind the same doorbell: each
  // landing is spaced a full repoll past the previous one.
  sim::EventQueue eq;
  NvmeConfig cfg = two_queue_cfg();
  cfg.sq_depth = 1;
  cfg.device_fetch_ns = 10 * kMs;
  cfg.sq_repoll_ns = 100 * kUs;
  NvmeLink link(eq, cfg);
  int done = 0;
  for (int i = 0; i < 4; ++i) link.submit_on(1, 1, 0, [&] { ++done; });
  // Posts 3 and 4 both overflow (post 2 holds the SQ at depth).
  EXPECT_EQ(link.queue_stats(1).sq_full_stalls, 2u);
  eq.run();
  EXPECT_EQ(done, 4);
}

// --- urgent class ------------------------------------------------------------

TEST(WrrArbiter, UrgentQueueFetchedFirst) {
  // q1 is urgent: despite the 16:1 weight against it, its backlog is
  // fetched ahead of every WRR consideration while the class budget
  // lasts.
  WrrArbiter arb({16, 1}, 4, {0, 1}, 2);
  auto full = [](u32) -> u64 { return 100; };
  EXPECT_TRUE(arb.is_urgent(1));
  EXPECT_FALSE(arb.is_urgent(0));
  std::vector<int> picks;
  for (int i = 0; i < 4; ++i) picks.push_back(arb.pick(full));
  // Two priority fetches (the cap), then WRR resumes from queue 0.
  EXPECT_EQ(picks, (std::vector<int>{1, 1, 0, 0}));
  EXPECT_EQ(arb.urgent_fetches(), 2u);
  EXPECT_EQ(arb.urgent_credits(), 0u);
}

TEST(WrrArbiter, UrgentClassStarvationBounded) {
  // A flooding urgent queue cannot monopolize the link: per round it gets
  // cap priority fetches plus its own WRR burst, and the other queue
  // still receives its full budget every round.
  WrrArbiter arb({4, 1}, 1, {0, 1}, 2);
  auto full = [](u32) -> u64 { return 1000; };
  int q0 = 0, q1 = 0;
  for (int i = 0; i < 140; ++i) (arb.pick(full) == 0 ? q0 : q1)++;
  // Each round serves 4 (q0) + 1 (q1 WRR) + 2 (q1 urgent) = 7 fetches.
  EXPECT_EQ(q0, 80);
  EXPECT_EQ(q1, 60);
}

TEST(WrrArbiter, UrgentBudgetReplenishesPerRound) {
  WrrArbiter arb({1, 1}, 1, {1, 0}, 1);
  auto full = [](u32) -> u64 { return 100; };
  // Round: urgent q0, then WRR q0, q1 -> replenish.
  EXPECT_EQ(arb.pick(full), 0);  // urgent
  EXPECT_EQ(arb.pick(full), 0);  // WRR credit
  EXPECT_EQ(arb.pick(full), 1);
  EXPECT_EQ(arb.pick(full), 0);  // round boundary itself resolves via WRR
  EXPECT_EQ(arb.urgent_fetches(), 1u);
  EXPECT_EQ(arb.pick(full), 0);  // fresh class budget: priority pass again
  EXPECT_EQ(arb.urgent_fetches(), 2u);
}

TEST(WrrArbiter, NoUrgentFlagsMatchPlainWrr) {
  // All-false urgent flags reproduce the plain WRR pick sequence exactly.
  WrrArbiter plain({3, 1}, 2);
  WrrArbiter flagged({3, 1}, 2, {0, 0}, 8);
  auto full = [](u32) -> u64 { return 50; };
  for (int i = 0; i < 20; ++i) EXPECT_EQ(flagged.pick(full), plain.pick(full));
  EXPECT_EQ(flagged.urgent_fetches(), 0u);
}

TEST(WrrArbiter, UrgentSkipsEmptyQueueWithoutSpendingBudget) {
  WrrArbiter arb({1, 1}, 1, {0, 1}, 1);
  auto only_q0 = [](u32 q) -> u64 { return q == 0 ? 5 : 0; };
  // Urgent q1 is empty: the priority pass spends nothing and WRR serves
  // q0 as if no urgent class existed.
  EXPECT_EQ(arb.pick(only_q0), 0);
  EXPECT_EQ(arb.urgent_fetches(), 0u);
  EXPECT_EQ(arb.urgent_credits(), 1u);
}

TEST(NvmeConfig, UrgentValidation) {
  NvmeConfig c;
  c.num_queues = 2;
  c.queue_weights = {1, 1};
  c.urgent_queues = {1};
  c.urgent_credit_cap = 0;  // urgent class needs a starvation bound
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.urgent_credit_cap = 4;
  EXPECT_NO_THROW(c.validate());
  c.urgent_queues = {2};  // out of range
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(NvmeLink, UrgentQueueJumpsTheLine) {
  // Two saturated queues at equal weight; making q1 urgent drains its
  // backlog first and the fast-path fetch counter shows it.
  auto last_completion = [](bool urgent) {
    sim::EventQueue eq;
    NvmeConfig cfg;
    cfg.num_queues = 2;
    cfg.queue_weights = {1, 1};
    cfg.arbitration_burst = 1;
    if (urgent) {
      cfg.urgent_queues = {1};
      cfg.urgent_credit_cap = 8;
    }
    NvmeLink link(eq, cfg);
    TimeNs q1_done = 0;
    for (int i = 0; i < 8; ++i) {
      link.submit_on(0, 1, 0, [] {});
      link.submit_on(1, 1, 0, [&] { q1_done = eq.now(); });
    }
    eq.run();
    return std::pair<TimeNs, u64>{q1_done, link.urgent_fetches()};
  };
  const auto [plain_done, plain_fast] = last_completion(false);
  const auto [urgent_done, urgent_fast] = last_completion(true);
  EXPECT_EQ(plain_fast, 0u);
  EXPECT_GT(urgent_fast, 0u);
  EXPECT_LT(urgent_done, plain_done);
}

}  // namespace
}  // namespace kvsim::nvme
