// Power-loss crash cut + mount-time recovery tests.
//
// The core instrument is a differential sweep: a seeded workload with a
// per-key oracle of every fingerprint ever issued runs against each of the
// three beds, a cut fires after N simulation events, and the recovered
// stack is audited against the oracle. The model makes no pretense of
// fsync-grade durability (ack != durable is the point — the lost-write
// window is a reported metric), so the invariants are:
//
//   * no corruption: a recovered value's fingerprint is always one this
//     key was actually written with (possibly an older acked version, or
//     a deleted key resurrecting — both allowed by the recovery models);
//   * drained data survives exactly: after a drain, every layer's state
//     is on flash, so a cut at quiescence must lose nothing;
//   * determinism: same seed + same cut => identical recovery counters
//     and identical post-recovery readback;
//   * the stack stays usable after the mount: fresh writes land and read
//     back exactly.
//
// Run under a KVSIM_AUDIT build these double as shadow-model checks: the
// rebuilt mapping tables must agree with the audit mirrors.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "test_beds.h"

namespace kvsim::harness {
namespace {

constexpr u32 kKeyBytes = 16;
constexpr u32 kValueBytes = 2048;
constexpr u32 kQd = 8;

/// Deterministic per-(key, version) fingerprint, disjoint across keys.
u64 oracle_fp(u64 key_id, u32 version) {
  return key_id * 1'000'003ull + version;
}

/// Seeded mixed workload with a full per-key write history, driven through
/// the KvStack interface so a cut can fire mid-flight.
class OracleDriver {
 public:
  OracleDriver(KvStack& stack, u64 key_space, u64 seed)
      : stack_(stack), key_space_(key_space), rng_(seed) {}

  /// Issue `num_ops` mixed ops at fixed queue depth. When `crash_after`
  /// is nonzero, a power cut fires after that many event steps and the
  /// run stops at the cut (in-flight completions died with the queue).
  /// Returns true when the cut fired.
  bool run(u64 num_ops, u64 crash_after) {
    u64 issued = 0;
    u64 steps = 0;
    bool crashed = false;
    auto issue = [&] {
      while (inflight_ < kQd && issued < num_ops) {
        ++issued;
        dispatch();
      }
    };
    issue();
    while ((inflight_ > 0 || issued < num_ops) && stack_.eq().step()) {
      if (crash_after > 0 && !crashed && ++steps >= crash_after) {
        outcome_ = stack_.simulate_crash();
        crashed = true;
        inflight_ = 0;
        break;
      }
      issue();
    }
    if (!crashed) stack_.eq().run();
    return crashed;
  }

  /// One put per key in [first_key, first_key + count), run to completion.
  /// Unique keys per wave, so the final value is never ambiguous.
  void put_wave(u64 first_key, u64 count, u32 stride = 1) {
    for (u64 k = first_key; k < first_key + count; k += stride) {
      const u64 fp = oracle_fp(k, ++versions_[k]);
      issued_[k].insert(fp);
      ++inflight_;
      stack_.store(wl::make_key(k, kKeyBytes), ValueDesc{kValueBytes, fp},
                   [this, k, fp](Status s) {
                     --inflight_;
                     ASSERT_EQ(s, Status::kOk);
                     last_acked_[k] = fp;
                   });
    }
    stack_.eq().run();
    ASSERT_EQ(inflight_, 0u);
  }

  void delete_wave(u64 first_key, u64 count, u32 stride) {
    for (u64 k = first_key; k < first_key + count; k += stride) {
      ++inflight_;
      stack_.remove(wl::make_key(k, kKeyBytes), [this, k](Status) {
        --inflight_;
        deleted_.insert(k);
      });
    }
    stack_.eq().run();
    ASSERT_EQ(inflight_, 0u);
  }

  /// Read back every key ever written and count violations of the
  /// no-corruption invariant (fingerprint outside the key's history, or
  /// an error status).
  void verify_no_corruption() {
    u64 checked = 0;
    u64 bad = 0;
    for (const auto& kv : issued_) {
      const u64 k = kv.first;
      stack_.retrieve(wl::make_key(k, kKeyBytes),
                      [this, k, &checked, &bad](Status s, ValueDesc v) {
                        ++checked;
                        if (s == Status::kOk) {
                          if (issued_[k].count(v.fingerprint) == 0) ++bad;
                        } else if (s != Status::kNotFound) {
                          ++bad;
                        }
                      });
    }
    stack_.eq().run();
    EXPECT_EQ(checked, issued_.size());
    EXPECT_EQ(bad, 0u);
  }

  /// Strict post-drain check: every never-deleted key reads back exactly
  /// its last acked fingerprint; deleted keys may be gone or resurrect an
  /// older version (KV-FTL/hashkv deletes are not durable records).
  void verify_drained_survival() {
    u64 lost = 0;
    u64 wrong = 0;
    for (const auto& kv : last_acked_) {
      const u64 k = kv.first;
      const u64 want = kv.second;
      const bool was_deleted = deleted_.count(k) > 0;
      stack_.retrieve(wl::make_key(k, kKeyBytes),
                      [this, k, want, was_deleted, &lost, &wrong](
                          Status s, ValueDesc v) {
                        if (was_deleted) {
                          if (s == Status::kOk) {
                            EXPECT_TRUE(issued_[k].count(v.fingerprint))
                                << "key " << k << " resurrected foreign fp";
                          }
                          return;
                        }
                        if (s != Status::kOk) {
                          ++lost;
                        } else if (v.fingerprint != want) {
                          ++wrong;
                        }
                      });
    }
    stack_.eq().run();
    EXPECT_EQ(lost, 0u) << "drained data lost by the cut";
    EXPECT_EQ(wrong, 0u) << "drained data rolled back by the cut";
  }

  /// Deterministic digest of the recovered state for A/B comparison.
  std::map<u64, std::pair<int, u64>> state_digest() {
    std::map<u64, std::pair<int, u64>> out;
    for (const auto& kv : issued_) {
      const u64 k = kv.first;
      stack_.retrieve(wl::make_key(k, kKeyBytes),
                      [&out, k](Status s, ValueDesc v) {
                        out[k] = {(int)s, s == Status::kOk ? v.fingerprint : 0};
                      });
    }
    stack_.eq().run();
    return out;
  }

  [[nodiscard]] const ssd::CrashOutcome& outcome() const { return outcome_; }
  [[nodiscard]] u64 keys_touched() const { return issued_.size(); }

 private:
  void dispatch() {
    const u64 k = rng_.below(key_space_);
    const u64 roll = rng_.below(100);
    const std::string key = wl::make_key(k, kKeyBytes);
    ++inflight_;
    if (roll < 75) {
      const u64 fp = oracle_fp(k, ++versions_[k]);
      issued_[k].insert(fp);
      stack_.store(key, ValueDesc{kValueBytes, fp}, [this, k, fp](Status s) {
        --inflight_;
        if (s == Status::kOk) last_acked_[k] = fp;
      });
    } else if (roll < 88) {
      stack_.retrieve(key, [this](Status, ValueDesc) { --inflight_; });
    } else {
      stack_.remove(key, [this, k](Status s) {
        --inflight_;
        if (s == Status::kOk) deleted_.insert(k);
      });
    }
  }

  KvStack& stack_;
  u64 key_space_;
  Rng rng_;
  u64 inflight_ = 0;
  ssd::CrashOutcome outcome_;
  std::unordered_map<u64, u32> versions_;
  std::unordered_map<u64, std::unordered_set<u64>> issued_;
  std::unordered_map<u64, u64> last_acked_;
  std::unordered_set<u64> deleted_;
};

// --- crash primitives ------------------------------------------------------

TEST(EventQueueCrash, DiscardPendingDropsTasksAndKeepsQueueUsable) {
  sim::EventQueue eq;
  int ran = 0;
  eq.schedule_after(10, [&] { ++ran; });
  eq.schedule_after(20, [&] { ++ran; });
  eq.schedule_after(30, [&] { ++ran; });
  eq.step();  // run the first event only
  const TimeNs t = eq.now();
  EXPECT_EQ(eq.discard_pending(), 2u);
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.now(), t);  // a cut does not advance time
  EXPECT_EQ(ran, 1);
  // The queue (and its slot pool) stays usable for mount-time recovery.
  eq.schedule_after(5, [&] { ++ran; });
  eq.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(eq.discard_pending(), 0u);
}

TEST(EventQueueCrash, ResourcePowerCycleFreesButKeepsTelemetry) {
  sim::Resource r;
  const auto g1 = r.reserve(0, 100);
  EXPECT_EQ(g1.start, 0u);
  // Busy until t=100; a second reserve at t=10 would queue behind it...
  const TimeNs busy_before = r.busy_time();
  r.power_cycle(10);
  // ...but after a cut at t=10 the reservation is gone.
  const auto g2 = r.reserve(10, 50);
  EXPECT_EQ(g2.start, 10u);
  EXPECT_EQ(g2.wait, 0u);
  EXPECT_GE(r.busy_time(), busy_before);  // telemetry survives the cycle
  EXPECT_EQ(r.reservations(), 2u);
}

TEST(RetryPolicy, BackoffSaturatesAtCap) {
  RetryPolicy p;
  p.backoff_ns = 100 * kUs;
  p.backoff_mult = 10.0;
  p.max_backoff_ns = 50 * kMs;
  EXPECT_EQ(p.backoff_for(1), 100 * kUs);
  EXPECT_EQ(p.backoff_for(3), 10 * kMs);
  EXPECT_EQ(p.backoff_for(4), 50 * kMs);  // 100 ms clamped to the cap
  // Without the clamp this is 100 us * 10^99 — far outside TimeNs range,
  // and the double->integer cast would be UB. Saturate instead.
  EXPECT_EQ(p.backoff_for(100), 50 * kMs);
  EXPECT_EQ(p.backoff_for(0xFFFF'FFFFu), 50 * kMs);
  // A base already above the cap is clamped too.
  p.backoff_ns = 2 * kSec;
  p.max_backoff_ns = 1 * kSec;
  EXPECT_EQ(p.backoff_for(1), 1 * kSec);
}

// --- drain-vs-retry race ---------------------------------------------------

/// A transient-stall plan: every command opens a busy window, so host ops
/// bounce kDeviceBusy and park in retry backoff.
ssd::FaultPlan stall_plan() {
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.stall_prob = 1.0;
  plan.busy_window_ns = 100 * kUs;
  return plan;
}

RetryPolicy slow_retry() {
  RetryPolicy r;
  r.max_retries = 2;
  r.backoff_ns = 2 * kMs;
  return r;
}

/// Store `keys` keys and drain with faults off: later reads hit the device.
void fill_and_drain(KvStack& bed, u64 keys) {
  for (u64 k = 0; k < keys; ++k)
    bed.store(wl::make_key(k, kKeyBytes), ValueDesc{kValueBytes, k + 1},
              [](Status) {});
  bed.eq().run();
  bed.drain([] {});
  bed.eq().run();
}

// A drain issued while ops sit in retry backoff windows must not see an
// idle device and report quiescence with host ops still in flight; the
// bed's host-op gate holds it until the host side is actually empty.
//
// Reads reach the device on every bed. Stores reach it only on the KV-SSD
// (the block beds buffer puts in host RAM), where a re-drive also carries
// the attempt number as its stream hint, so that bed races both bursts.
TEST(CrashRecovery, DrainWaitsOutRetryBackoffWindows) {
  struct Burst {
    BedKind kind;
    bool reads;
  };
  for (const Burst b : {Burst{kKvssd, true}, Burst{kLsm, true},
                        Burst{kHashKv, true}, Burst{kKvssd, false}}) {
    SCOPED_TRACE(std::string(kBedNames[b.kind]) +
                 (b.reads ? " reads" : " stores"));
    auto bed = make_bed(b.kind, /*crash_tracking=*/false, slow_retry());
    if (b.reads) fill_and_drain(*bed, 20);
    bed->apply_fault_plan(stall_plan());

    u64 completed = 0;
    for (u64 k = 0; k < 20; ++k) {
      const std::string key = wl::make_key(k, kKeyBytes);
      if (b.reads)
        bed->retrieve(key, [&completed](Status, ValueDesc) { ++completed; });
      else
        bed->store(key, ValueDesc{kValueBytes, oracle_fp(k, 1)},
                   [&completed](Status) { ++completed; });
    }
    bool drained = false;
    u64 inflight_at_drain = ~0ull;
    u64 completed_at_drain = 0;
    // Drain races the 20 ops (all of which bounce busy and park in
    // backoff at least once).
    bed->drain([&] {
      drained = true;
      inflight_at_drain = bed->inflight_host_ops();
      completed_at_drain = completed;
    });
    bed->eq().run();

    EXPECT_TRUE(drained);
    EXPECT_EQ(completed, 20u);
    EXPECT_GT(bed->host_retries(), 0u) << "plan failed to force retries";
    // The escape: quiescence reported while ops sat in backoff windows.
    EXPECT_EQ(inflight_at_drain, 0u);
    EXPECT_EQ(completed_at_drain, 20u);
  }
}

// --- pooled per-command state across a cut ---------------------------------

/// Fill `keys` keys and drain, run a burst of reads (every other op an
/// overwrite when `with_stores`) at kQd cut by a power loss after `cut`
/// event steps, recover, run a second burst to the end, and drain.
/// Returns `live_records()` at the cut.
template <typename Bed>
bool reads_across_a_cut(Bed& bed, u64 keys, u64 cut,
                        const std::function<bool()>& live_records,
                        bool with_stores = false) {
  fill_and_drain(bed, keys);

  Rng rng(5);
  bool live_at_cut = false;
  for (const u64 cut_after : {cut, u64{0}}) {
    u64 issued = 0, inflight = 0, steps = 0;
    auto issue = [&] {
      for (; inflight < kQd && issued < 2000; ++issued, ++inflight) {
        const std::string key = wl::make_key(rng.below(keys), kKeyBytes);
        if (with_stores && issued % 2 == 1) {
          bed.store(key, ValueDesc{kValueBytes, issued},
                    [&inflight](Status) { --inflight; });
        } else {
          bed.retrieve(key, [&inflight](Status, ValueDesc) { --inflight; });
        }
      }
    };
    issue();
    while (bed.eq().step()) {
      if (cut_after > 0 && ++steps == cut_after) {
        live_at_cut = live_records();
        bed.simulate_crash();  // the burst's callbacks die unrun
        break;
      }
      issue();
    }
    if (cut_after == 0) {  // the burst after the mount runs to the end
      EXPECT_EQ(issued, 2000u);
      EXPECT_EQ(inflight, 0u);
    }
  }
  bool drained = false;
  bed.drain([&drained] { drained = true; });
  bed.eq().run();
  EXPECT_TRUE(drained);
  return live_at_cut;
}

/// Every record released; no pool grew past what was ever in flight at
/// once (the FTL serves at most one read per device read command).
void expect_pools_empty(const PoolUsage& dev, const PoolUsage& ftl) {
  EXPECT_EQ(dev.live, 0u);
  EXPECT_EQ(ftl.live, 0u);
  EXPECT_LE(dev.size, dev.peak);
  EXPECT_LE(ftl.size, ftl.peak);
  EXPECT_LE(ftl.size, dev.peak);
}

// A cut abandons the reads in flight. Their pooled state (LSM lookups,
// block-device commands, FTL reads) must die with them, or every cut
// would strand records for good.
TEST(CrashRecovery, PowerLossReleasesPooledReadStateOnLsmBed) {
  auto bed = std::unique_ptr<LsmBed>(
      static_cast<LsmBed*>(make_bed(kLsm).release()));
  const bool live = reads_across_a_cut(*bed, 600, 300, [&] {
    return bed->store().get_pool_usage().live > 0 &&
           bed->device().command_pool_usage().live > 0 &&
           bed->ftl().read_pool_usage().live > 0;
  });
  EXPECT_TRUE(live) << "a pool held no record at the cut";
  const PoolUsage gets = bed->store().get_pool_usage();
  EXPECT_EQ(gets.live, 0u);
  EXPECT_LE(gets.size, kQd);  // one lookup per host read in flight
  expect_pools_empty(bed->device().command_pool_usage(),
                     bed->ftl().read_pool_usage());
}

// A cut abandons the flushes and compactions in flight too. Their jobs
// must die with them, or every cut would strand a job and the tables it
// holds for good; after the mount the store flushes and compacts again.
TEST(CrashRecovery, PowerLossReleasesLsmJobs) {
  auto bed = std::unique_ptr<LsmBed>(
      static_cast<LsmBed*>(make_bed(kLsm).release()));
  const lsm::LsmStore& store = bed->store();
  Rng rng(5);
  auto put = [&] {
    const u64 k = rng.below(600);
    bed->store(wl::make_key(k, kKeyBytes), ValueDesc{kValueBytes, k + 1},
               [](Status) {});
  };
  // Cut in the step that starts the first merge (moves install at once).
  bool cut = false;
  for (u64 i = 0; i < 4000 && !cut; ++i) {
    put();
    while (!cut && bed->eq().step()) {
      if (store.compactions_run() == store.trivial_moves()) continue;
      EXPECT_GT(store.job_pool_usage().live, 0u);
      bed->simulate_crash();
      cut = true;
    }
  }
  ASSERT_TRUE(cut) << "no merge started";
  EXPECT_EQ(store.job_pool_usage().live, 0u);

  const u64 flushes = store.flushes_run();
  const u64 compactions = store.compactions_run();
  for (u64 i = 0; i < 1000; ++i) put();
  bed->eq().run();
  bool drained = false;
  bed->drain([&drained] { drained = true; });
  bed->eq().run();
  EXPECT_TRUE(drained);
  EXPECT_GT(store.flushes_run(), flushes);
  EXPECT_GT(store.compactions_run(), compactions);
  EXPECT_EQ(store.job_pool_usage().live, 0u);
}

// The KV API and the KV-FTL each keep a command's state in a pooled
// record; stores hold theirs from arrival to commit.
TEST(CrashRecovery, PowerLossReleasesPooledCommandStateOnKvssdBed) {
  auto bed = std::unique_ptr<KvssdBed>(
      static_cast<KvssdBed*>(make_bed(kKvssd).release()));
  const bool live = reads_across_a_cut(
      *bed, 600, 300,
      [&] {
        return bed->device().command_pool_usage().live > 0 &&
               bed->ftl().command_pool_usage().live > 0;
      },
      /*with_stores=*/true);
  EXPECT_TRUE(live) << "a pool held no record at the cut";
  expect_pools_empty(bed->device().command_pool_usage(),
                     bed->ftl().command_pool_usage());
}

TEST(CrashRecovery, PowerLossReleasesPooledReadStateOnHashKvBed) {
  auto bed = std::unique_ptr<HashKvBed>(
      static_cast<HashKvBed*>(make_bed(kHashKv).release()));
  const bool live = reads_across_a_cut(*bed, 600, 300, [&] {
    return bed->device().command_pool_usage().live > 0 &&
           bed->ftl().read_pool_usage().live > 0;
  });
  EXPECT_TRUE(live) << "a pool held no record at the cut";
  expect_pools_empty(bed->device().command_pool_usage(),
                     bed->ftl().read_pool_usage());
}

// --- the bed scaffold across a power cut ------------------------------------

class BedScaffold : public ::testing::TestWithParam<int> {};

// Cut the power while some ops sit in retry backoff and others are in
// flight on the device. Both kinds die unrun with the cut; the mounted
// bed counts no op in flight, serves a second burst in full, and drains.
TEST_P(BedScaffold, PowerCutDropsOpsInBackoffAndInFlight) {
  const auto kind = (BedKind)GetParam();
  auto bed = make_bed(kind, /*crash_tracking=*/true, slow_retry());
  fill_and_drain(*bed, 64);
  bed->apply_fault_plan(stall_plan());

  u64 first_burst_done = 0;
  auto read = [&](u64 k, u64& done) {
    bed->retrieve(wl::make_key(k, kKeyBytes),
                  [&done](Status, ValueDesc) { ++done; });
  };
  for (u64 k = 0; k < 8; ++k) read(k, first_burst_done);
  // Step until a re-drive is parked in its 2 ms backoff window, then put
  // four more reads on the device so ops are in flight too.
  while (bed->host_retries() == 0 && bed->eq().step()) {
  }
  ASSERT_GT(bed->host_retries(), 0u) << "plan failed to force retries";
  for (u64 k = 8; k < 12; ++k) read(k, first_burst_done);
  ASSERT_GE(bed->inflight_host_ops(), 5u);

  bed->simulate_crash();
  EXPECT_EQ(bed->inflight_host_ops(), 0u);
  const u64 done_at_cut = first_burst_done;

  bed->apply_fault_plan(ssd::FaultPlan{});  // healthy device from here on
  u64 second_burst_done = 0;
  for (u64 k = 0; k < 32; ++k) read(k, second_burst_done);
  bed->eq().run();
  EXPECT_EQ(second_burst_done, 32u);
  EXPECT_EQ(first_burst_done, done_at_cut) << "a cut op completed";
  EXPECT_EQ(bed->inflight_host_ops(), 0u);

  bool drained = false;
  bed->drain([&drained] { drained = true; });
  bed->eq().run();
  EXPECT_TRUE(drained);
}

INSTANTIATE_TEST_SUITE_P(AllBeds, BedScaffold,
                         ::testing::Values((int)kKvssd, (int)kLsm,
                                           (int)kHashKv),
                         bed_param_name);

// --- differential crash sweep ----------------------------------------------

class CrashSweep : public ::testing::TestWithParam<int> {};

// Cut the power mid-flight at several depths x seeds; recovery must never
// invent data, and the mounted stack must accept and serve fresh writes.
TEST_P(CrashSweep, RecoversWithoutCorruptionAtEveryCut) {
  const auto kind = (BedKind)GetParam();
  for (u64 seed : {1ull, 2ull, 3ull}) {
    for (u64 cut : {400ull, 1500ull, 6000ull}) {
      SCOPED_TRACE(std::string(kBedNames[kind]) + " seed=" +
                   std::to_string(seed) + " cut=" + std::to_string(cut));
      auto bed = make_bed(kind);
      ASSERT_TRUE(bed->crash_supported());
      OracleDriver d(*bed, /*key_space=*/300, seed);
      const bool crashed = d.run(/*num_ops=*/3000, cut);
      ASSERT_TRUE(crashed) << "workload drained before the cut fired";
      EXPECT_GT(d.outcome().recovery_ns, 0u);
      d.verify_no_corruption();
      // The mounted stack stays writable: a fresh disjoint key range
      // lands and reads back exactly.
      d.put_wave(/*first_key=*/100'000, /*count=*/64);
      d.verify_no_corruption();
      // Quiesce cleanly post-recovery (drain still works after a mount).
      bool drained = false;
      bed->drain([&drained] { drained = true; });
      bed->eq().run();
      EXPECT_TRUE(drained);
    }
  }
}

// After a drain every layer's state is on flash, so a cut at quiescence
// must preserve every never-deleted key bit-exactly.
TEST_P(CrashSweep, DrainedStateSurvivesCutExactly) {
  const auto kind = (BedKind)GetParam();
  auto bed = make_bed(kind);
  OracleDriver d(*bed, 400, /*seed=*/7);
  d.put_wave(0, 400);              // v1 for every key
  d.put_wave(0, 400, /*stride=*/3);  // v2 for every 3rd key
  d.delete_wave(0, 400, /*stride=*/7);
  bool drained = false;
  bed->drain([&drained] { drained = true; });
  bed->eq().run();
  ASSERT_TRUE(drained);

  const ssd::CrashOutcome out = bed->simulate_crash();
  EXPECT_GT(out.recovery_ns, 0u);
  EXPECT_GT(out.rebuild_pages_read + out.log_blocks_scanned, 0u)
      << "mount did no rebuild I/O";
  d.verify_drained_survival();
}

// Same seed + same cut => identical recovery counters and identical
// post-mount readback (crash handling preserves simulator determinism).
TEST_P(CrashSweep, RecoveryIsDeterministic) {
  const auto kind = (BedKind)GetParam();
  ssd::CrashOutcome out[2];
  std::map<u64, std::pair<int, u64>> digest[2];
  for (int i = 0; i < 2; ++i) {
    auto bed = make_bed(kind);
    OracleDriver d(*bed, 300, /*seed=*/11);
    ASSERT_TRUE(d.run(1000, /*crash_after=*/2000));
    out[i] = d.outcome();
    digest[i] = d.state_digest();
  }
  EXPECT_EQ(out[0].crash_time_ns, out[1].crash_time_ns);
  EXPECT_EQ(out[0].recovery_ns, out[1].recovery_ns);
  EXPECT_EQ(out[0].discarded_events, out[1].discarded_events);
  EXPECT_EQ(out[0].rebuild_pages_read, out[1].rebuild_pages_read);
  EXPECT_EQ(out[0].torn_pages, out[1].torn_pages);
  EXPECT_EQ(out[0].recovered_units, out[1].recovered_units);
  EXPECT_EQ(out[0].lost_units, out[1].lost_units);
  EXPECT_EQ(out[0].wal_records_replayed, out[1].wal_records_replayed);
  EXPECT_EQ(out[0].wal_records_lost, out[1].wal_records_lost);
  EXPECT_EQ(out[0].log_blocks_scanned, out[1].log_blocks_scanned);
  EXPECT_EQ(digest[0], digest[1]);
}

INSTANTIATE_TEST_SUITE_P(AllBeds, CrashSweep,
                         ::testing::Values((int)kKvssd, (int)kLsm,
                                           (int)kHashKv),
                         bed_param_name);

// --- runner + report integration -------------------------------------------

wl::WorkloadSpec churn_spec(u64 ops, u64 seed) {
  wl::WorkloadSpec spec;
  spec.num_ops = ops;
  spec.key_space = 400;
  spec.key_bytes = kKeyBytes;
  spec.value_bytes = kValueBytes;
  spec.mix = {0.2, 0.4, 0.35, 0};  // rest deletes
  spec.queue_depth = 16;
  spec.seed = seed;
  return spec;
}

TEST(CrashRecovery, RunnerInjectsCutAndReportsRecovery) {
  LsmBedConfig c;
  c.dev = tiny_dev();
  c.lsm.memtable_bytes = 256 * KiB;
  c.crash_tracking = true;
  LsmBed bed(c);
  RunOptions opts;
  opts.drain_after = true;
  opts.crash_at_ns = 10 * kMs;
  const RunResult r = run_workload(bed, churn_spec(3000, 21), opts);
  EXPECT_TRUE(r.crashed);
  // The cut lands on the first event at or after 10 ms into the run.
  EXPECT_GE(r.recovery.crash_time_ns, 10 * kMs);
  EXPECT_LT(r.recovery.crash_time_ns, 11 * kMs);
  EXPECT_GT(r.recovery.recovery_ns, 0u);
  EXPECT_GT(r.recovery.discarded_events, 0u);
  // The run issued the remainder against the mounted stack.
  EXPECT_GT(r.ops, 0u);
  BenchReport rep("crash_smoke");
  rep.add_run("churn", r);
  EXPECT_NE(rep.to_json().find("\"recovery\""), std::string::npos);
}

TEST(CrashRecovery, CutRequestIsIgnoredWithoutCrashTracking) {
  // Default beds carry no ledgers; the runner must not cut them, and the
  // report must not grow a recovery section.
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  EXPECT_FALSE(bed.crash_supported());
  RunOptions opts;
  opts.drain_after = true;
  opts.crash_at_ns = 2 * kMs;
  const RunResult r = run_workload(bed, churn_spec(1500, 5), opts);
  EXPECT_FALSE(r.crashed);
  EXPECT_FALSE(r.recovery.any());
  BenchReport rep("no_crash");
  rep.add_run("churn", r);
  EXPECT_EQ(rep.to_json().find("\"recovery\""), std::string::npos);
}

// The bed's one switch reaches every layer: a cut mid-run finds each
// layer's ledger full. The FTL rebuilds from OOB, the LSM replays its WAL
// (through the fs's durability probe) and hashkv scans its log blocks.
TEST(CrashRecovery, BedSwitchReachesEveryLayer) {
  for (BedKind kind : {kKvssd, kLsm, kHashKv}) {
    SCOPED_TRACE(kBedNames[kind]);
    auto bed = make_bed(kind);
    RunOptions opts;
    opts.drain_after = true;
    opts.crash_at_ns = 5 * kMs;
    const RunResult r = run_workload(*bed, churn_spec(3000, 21), opts);
    ASSERT_TRUE(r.crashed);
    EXPECT_GT(r.recovery.rebuild_pages_read, 0u);
    if (kind == kLsm) {
      EXPECT_GT(r.recovery.wal_records_replayed, 0u);
    }
    if (kind == kHashKv) {
      EXPECT_GT(r.recovery.log_blocks_scanned, 0u);
    }
  }
}

// recovery_ns ends when the device's and the host's mount continuations
// have fired. Defrag that the hashkv mount queues for low-occupancy
// survivors is background work: it is still pending when the cut returns
// and runs on after it.
TEST(CrashRecovery, MountEndsBeforeItsBackgroundWork) {
  auto bed = std::unique_ptr<HashKvBed>(
      static_cast<HashKvBed*>(make_bed(kHashKv).release()));
  // Puts and deletes at QD 64 outrun defrag, so write blocks go below
  // the defrag threshold faster than it empties them.
  Rng rng(3);
  u64 issued = 0, inflight = 0;
  auto issue = [&] {
    for (; inflight < 64 && issued < 4000; ++issued, ++inflight) {
      const std::string key = wl::make_key(rng.below(1000), kKeyBytes);
      if (rng.below(4) == 0)
        bed->remove(key, [&inflight](Status) { --inflight; });
      else
        bed->store(key, ValueDesc{kValueBytes, issued},
                   [&inflight](Status) { --inflight; });
    }
  };
  issue();
  while (issued < 4000 && bed->eq().step()) issue();
  const u64 defrags = bed->store().defrags_run();
  const ssd::CrashOutcome out = bed->simulate_crash();
  ASSERT_GT(bed->store().defrags_run(), defrags)
      << "the mount queued no defrag";
  EXPECT_FALSE(bed->eq().empty()) << "the cut ran the mount's defrag";
  EXPECT_EQ(out.recovery_ns, bed->eq().now() - out.crash_time_ns);
  bool drained = false;
  bed->drain([&drained] { drained = true; });
  bed->eq().run();
  EXPECT_TRUE(drained);
  EXPECT_GT(bed->store().defrags_run(), defrags + 1);
}

// Crash *tracking* must not perturb crash-free execution: for beds whose
// ledgers are memory-only (KV-SSD, hashkv) the report JSON is
// byte-identical with tracking on and off. (The LSM bed is exempt by
// design: tracking retains rotated WAL files, which changes filesystem
// allocation.)
TEST(CrashRecovery, TrackingAloneLeavesCrashFreeRunsByteIdentical) {
  for (BedKind kind : {kKvssd, kHashKv}) {
    SCOPED_TRACE(kBedNames[kind]);
    std::string json[2];
    for (int tracked = 0; tracked < 2; ++tracked) {
      auto bed = make_bed(kind, /*crash_tracking=*/tracked == 1);
      RunOptions opts;
      opts.drain_after = true;
      opts.telemetry_interval = 10 * kMs;
      const RunResult r = run_workload(*bed, churn_spec(2000, 13), opts);
      BenchReport rep("ab");
      rep.add_run("churn", r);
      json[tracked] = rep.to_json();
    }
    EXPECT_EQ(json[0], json[1]);
  }
}

}  // namespace
}  // namespace kvsim::harness
