// Fault-injection & recovery subsystem tests: seeded-plan determinism
// (byte-identical BenchReport JSON), fault-free A/B (no fault keys, no
// injector, untouched command path), grown-bad-block survival across GC,
// RetryPolicy semantics, host retry/backoff recovery, and the injector's
// wear model, and the firmware core's recovery paths on both FTLs
// (erase-failure retirement, the recovery queue). Run under a KVSIM_AUDIT
// build these double as shadow-model checks: every recovery action must
// keep mapping/flash state consistent.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "test_beds.h"

namespace kvsim::harness {
namespace {

wl::WorkloadSpec churn_spec(u64 ops = 4000) {
  wl::WorkloadSpec spec;
  spec.num_ops = ops;
  spec.key_space = 1200;
  spec.key_bytes = 16;
  spec.value_bytes = 2048;
  spec.mix = {0.1, 0.4, 0.45, 0};  // rest deletes
  spec.queue_depth = 16;
  spec.seed = 42;
  return spec;
}

/// A plan that exercises every fault class on a tiny device.
ssd::FaultPlan stress_plan() {
  ssd::FaultPlan p;
  p.enabled = true;
  p.read_uber_base = 0.002;
  p.read_uber_per_pe = 0.0005;
  p.program_fail_prob = 0.01;
  p.erase_fail_prob = 0.05;
  p.stall_prob = 0.001;
  p.busy_window_ns = 50 * kUs;
  return p;
}

std::string faulty_report_json(const ssd::FaultPlan& plan,
                               BedKind kind = kKvssd,
                               const RetryPolicy& retry = {}) {
  auto bed = make_bed(kind, /*crash_tracking=*/false, retry);
  (void)fill_stack(*bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.telemetry_interval = 10 * kMs;
  opts.faults = plan;
  const RunResult r = run_workload(*bed, churn_spec(), opts);
  BenchReport rep("fault_determinism");
  rep.add_run("churn", r);
  rep.add_device(*bed);
  return rep.to_json();
}

// --- RetryPolicy units -----------------------------------------------------

TEST(RetryPolicy, RetriesOnlyRetryableCategoriesWithinBudget) {
  RetryPolicy p;
  p.max_retries = 2;
  EXPECT_TRUE(p.should_retry(Status::kMediaError, 0));
  EXPECT_TRUE(p.should_retry(Status::kDeviceBusy, 1));
  EXPECT_TRUE(p.should_retry(Status::kTimeout, 0));
  // Budget exhausted.
  EXPECT_FALSE(p.should_retry(Status::kMediaError, 2));
  // Non-retryable statuses never re-drive.
  EXPECT_FALSE(p.should_retry(Status::kOk, 0));
  EXPECT_FALSE(p.should_retry(Status::kNotFound, 0));
  EXPECT_FALSE(p.should_retry(Status::kIoError, 0));
  EXPECT_FALSE(p.should_retry(Status::kDeviceFull, 0));
  // Per-category opt-outs.
  p.retry_media_error = false;
  EXPECT_FALSE(p.should_retry(Status::kMediaError, 0));
  p.retry_busy = false;
  EXPECT_FALSE(p.should_retry(Status::kDeviceBusy, 0));
  p.retry_timeout = false;
  EXPECT_FALSE(p.should_retry(Status::kTimeout, 0));
}

// One seeded violation per rule, each next to the boundary it must keep.
TEST(RetryPolicy, ValidateRejectsKnobsOutsideTheirRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto check = [](void (*set)(RetryPolicy&, double), double v, bool ok) {
    RetryPolicy p;
    set(p, v);
    if (ok)
      EXPECT_NO_THROW(p.validate()) << v;
    else
      EXPECT_THROW(p.validate(), std::invalid_argument) << v;
  };
  EXPECT_NO_THROW(RetryPolicy{}.validate());
  auto mult = [](RetryPolicy& p, double v) { p.backoff_mult = v; };
  check(mult, 1.0, true);  // constant backoff
  check(mult, 0.999, false);
  check(mult, -2.0, false);
  check(mult, nan, false);
  auto jitter = [](RetryPolicy& p, double v) { p.jitter_frac = v; };
  check(jitter, 0.0, true);
  check(jitter, 1.0, true);
  check(jitter, -0.01, false);
  check(jitter, 1.01, false);
  check(jitter, nan, false);
  check(jitter, inf, false);
  auto refill = [](RetryPolicy& p, double v) { p.retry_refill_per_sec = v; };
  check(refill, 0.0, true);
  check(refill, 1e9, true);
  check(refill, -1.0, false);
  check(refill, nan, false);
  check(refill, inf, false);
}

TEST(RetryPolicy, EveryBedValidatesItsPolicy) {
  RetryPolicy bad;
  bad.jitter_frac = std::numeric_limits<double>::quiet_NaN();
  for (BedKind kind : {kKvssd, kLsm, kHashKv}) {
    SCOPED_TRACE(kBedNames[kind]);
    EXPECT_THROW((void)make_bed(kind, false, bad), std::invalid_argument);
    EXPECT_NO_THROW((void)make_bed(kind, false, RetryPolicy{}));
  }
}

TEST(RetryPolicy, BackoffGrowsExponentially) {
  RetryPolicy p;
  p.backoff_ns = 100 * kUs;
  p.backoff_mult = 2.0;
  EXPECT_EQ(p.backoff_for(1), 100 * kUs);
  EXPECT_EQ(p.backoff_for(2), 200 * kUs);
  EXPECT_EQ(p.backoff_for(3), 400 * kUs);
  p.backoff_mult = 1.0;  // constant backoff
  EXPECT_EQ(p.backoff_for(3), 100 * kUs);
}

TEST(RetryPolicy, BackoffCapsAtMax) {
  RetryPolicy p;
  p.backoff_ns = 100 * kUs;
  p.backoff_mult = 2.0;
  p.max_backoff_ns = 350 * kUs;
  EXPECT_EQ(p.backoff_for(2), 200 * kUs);
  EXPECT_EQ(p.backoff_for(3), 350 * kUs);   // clamped, not 400
  EXPECT_EQ(p.backoff_for(30), 350 * kUs);  // closed form: no overflow walk
  p.backoff_ns = 500 * kUs;                 // base already above the cap
  EXPECT_EQ(p.backoff_for(1), 350 * kUs);
  EXPECT_EQ(p.backoff_for(5), 350 * kUs);
}

TEST(RetryBudget, TokenBucketDeniesWhenDryAndRefills) {
  RetryPolicy p;
  p.retry_budget = 2;
  p.retry_refill_per_sec = 1.0;  // one token per simulated second
  detail::RetryBudget b;
  b.configure(p, 42);
  EXPECT_TRUE(b.try_consume(0));
  EXPECT_TRUE(b.try_consume(0));
  EXPECT_FALSE(b.try_consume(0));  // dry
  EXPECT_EQ(b.denied(), 1u);
  // Half a second refills half a token: still dry.
  EXPECT_FALSE(b.try_consume(kSec / 2));
  // Another half second completes the token.
  EXPECT_TRUE(b.try_consume(kSec));
  EXPECT_EQ(b.denied(), 2u);
  // Refill saturates at capacity.
  EXPECT_TRUE(b.try_consume(100 * kSec));
  EXPECT_TRUE(b.try_consume(100 * kSec));
  EXPECT_FALSE(b.try_consume(100 * kSec));
}

TEST(RetryBudget, ZeroCapacityIsUnlimitedLegacyPath) {
  detail::RetryBudget b;
  b.configure(RetryPolicy{}, 7);  // retry_budget = 0
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.try_consume(0));
  EXPECT_EQ(b.denied(), 0u);
}

TEST(RetryBudget, JitterIsSeededDeterministicAndBounded) {
  RetryPolicy p;
  p.jitter_frac = 0.5;
  detail::RetryBudget a, b, c;
  a.configure(p, 1234);
  b.configure(p, 1234);
  c.configure(p, 9999);
  const TimeNs base = 100 * kUs;
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const TimeNs ja = a.jittered(base);
    EXPECT_EQ(ja, b.jittered(base));  // same seed -> same stream
    EXPECT_GE(ja, base);              // jitter only stretches
    EXPECT_LE(ja, base + base / 2);   // by at most jitter_frac
    if (ja != c.jittered(base)) differs = true;
  }
  EXPECT_TRUE(differs);  // different seed -> different stream
}

TEST(RetryBudget, NoJitterIsExactIdentity) {
  detail::RetryBudget b;
  b.configure(RetryPolicy{}, 5);  // jitter_frac = 0
  EXPECT_EQ(b.jittered(123456), 123456);
  EXPECT_EQ(b.jittered(0), 0);
}

TEST(FaultPlanValidate, RejectsOutOfRangeKnobs) {
  ssd::FaultPlan p;
  p.enabled = true;
  p.read_uber_base = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.program_fail_prob = -0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = {};
  p.read_uber_base = 0.01;
  p.read_retry_rounds = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = stress_plan();
  EXPECT_NO_THROW(p.validate());
}

// --- injector wear model ---------------------------------------------------

TEST(FaultInjector, ReadUberGrowsWithEraseCyclesUpToCeiling) {
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.read_uber_base = 0.001;
  plan.read_uber_per_pe = 0.004;
  plan.read_uber_max = 0.01;
  const auto geom = tiny_dev().geometry;
  sim::EventQueue eq;
  ssd::FaultInjector inj(plan, geom, eq);
  EXPECT_DOUBLE_EQ(inj.read_uber(0), 0.001);
  (void)inj.on_erase(0);
  (void)inj.on_erase(0);
  EXPECT_EQ(inj.pe_cycles(0), 2u);
  EXPECT_DOUBLE_EQ(inj.read_uber(0), 0.001 + 2 * 0.004);
  for (int i = 0; i < 10; ++i) (void)inj.on_erase(0);
  EXPECT_DOUBLE_EQ(inj.read_uber(0), 0.01);  // clamped at the ceiling
  EXPECT_DOUBLE_EQ(inj.read_uber(1), 0.001);  // other blocks unworn
}

// --- seeded determinism ----------------------------------------------------

TEST(FaultDeterminism, SamePlanSameSeedIsByteIdentical) {
  for (BedKind kind : {kKvssd, kLsm, kHashKv}) {
    SCOPED_TRACE(kBedNames[kind]);
    const std::string a = faulty_report_json(stress_plan(), kind);
    const std::string b = faulty_report_json(stress_plan(), kind);
    EXPECT_EQ(a, b);
    // The run must have actually exercised the fault machinery: the plan
    // stresses reads, programs, and erases on a tiny worn device.
    EXPECT_NE(a.find("\"faults\""), std::string::npos);
    EXPECT_NE(a.find("read_uncorrectable"), std::string::npos);
  }
}

class FaultDeterminismOnBed : public ::testing::TestWithParam<int> {};

// The retry budget's token bucket and jitter stream are seeded from the
// plan too, so a budgeted, jittered fault run repeats byte for byte.
TEST_P(FaultDeterminismOnBed, BudgetAndJitterRunIsByteIdentical) {
  const auto kind = (BedKind)GetParam();
  ssd::FaultPlan plan = stress_plan();
  plan.stall_prob = 0.01;  // enough bounces to drain the bucket
  RetryPolicy retry;
  retry.retry_budget = 4;
  retry.retry_refill_per_sec = 50.0;
  retry.jitter_frac = 0.5;
  const std::string a = faulty_report_json(plan, kind, retry);
  EXPECT_EQ(a, faulty_report_json(plan, kind, retry));
  EXPECT_NE(a.find("host_retries"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllBeds, FaultDeterminismOnBed,
                         ::testing::Values((int)kKvssd, (int)kLsm,
                                           (int)kHashKv),
                         bed_param_name);

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  ssd::FaultPlan p1 = stress_plan();
  ssd::FaultPlan p2 = stress_plan();
  p2.seed = 0x5eed'0000'0000'0001ull;
  EXPECT_NE(faulty_report_json(p1), faulty_report_json(p2));
}

// --- fault-free A/B --------------------------------------------------------

TEST(FaultFree, NoInjectorNoFaultKeysNoCounterMovement) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  const RunResult r = run_workload(bed, churn_spec(), opts);

  EXPECT_EQ(bed.fault_injector(), nullptr);
  EXPECT_EQ(bed.host_retries(), 0u);
  EXPECT_EQ(r.host_retries, 0u);
  EXPECT_FALSE(bed.ftl().stats().any_fault_activity());
  EXPECT_EQ(r.errors.total(), 0u);

  BenchReport rep("fault_free");
  rep.add_run("churn", r);
  rep.add_device(bed);
  const std::string json = rep.to_json();
  // Conditional emission: a healthy run's document carries zero fault
  // vocabulary, so it is byte-identical to pre-fault-subsystem output.
  EXPECT_EQ(json.find("error_breakdown"), std::string::npos);
  EXPECT_EQ(json.find("host_retries"), std::string::npos);
  EXPECT_EQ(json.find("\"faults\""), std::string::npos);
  EXPECT_EQ(json.find("read_media_errors"), std::string::npos);
  EXPECT_EQ(json.find("grown_bad_blocks"), std::string::npos);
}

// --- recovery: KV-FTL ------------------------------------------------------

TEST(FaultRecovery, KvFtlSurvivesGrownBadBlocksAndRelocations) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);

  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  const RunResult r = run_workload(bed, churn_spec(8000), opts);

  const ssd::FtlStats& st = bed.ftl().stats();
  ASSERT_NE(bed.fault_injector(), nullptr);
  const ssd::FaultStats& fs = bed.fault_injector()->stats();
  // The stress plan must actually fire on this workload size.
  EXPECT_GT(fs.total_faults(), 0u);
  EXPECT_GT(fs.program_fails + fs.erase_fails, 0u);
  // Firmware recovery ran: blocks were retired and data re-placed.
  EXPECT_GT(st.grown_bad_blocks, 0u);
  EXPECT_GT(st.remapped_units + st.reprogrammed_pages, 0u);
  // Every completion is accounted for; only fault-taxonomy errors appear.
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.errors.io, 0u);
  EXPECT_EQ(r.errors.other, 0u);
  // Host retries absorbed at least part of the transient failures.
  EXPECT_GT(r.host_retries, 0u);
}

TEST(FaultRecovery, RetryShrinksHostVisibleMediaErrors) {
  // Same plan, retries off vs on: with retries enabled the host re-drives
  // kMediaError reads after the FTL relocated the data, so strictly fewer
  // media errors surface (and never more).
  auto run_with = [](u32 max_retries) {
    KvssdBedConfig c;
    c.dev = tiny_dev();
    c.retry.max_retries = max_retries;
    KvssdBed bed(c);
    (void)fill_stack(bed, 1200, 16, 2048, 32);
    RunOptions opts;
    opts.drain_after = true;
    opts.faults = stress_plan();
    return run_workload(bed, churn_spec(8000), opts);
  };
  const RunResult no_retry = run_with(0);
  const RunResult with_retry = run_with(3);
  EXPECT_GT(no_retry.errors.media + no_retry.errors.busy, 0u);
  EXPECT_LT(with_retry.errors.total(), no_retry.errors.total());
  EXPECT_EQ(no_retry.host_retries, 0u);
  EXPECT_GT(with_retry.host_retries, 0u);
}

TEST(FaultRecovery, TimeoutDeadlineClassifiesSlowOps) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.retry.retry_timeout = false;  // surface timeouts instead of hiding them
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults.enabled = true;
  // Frequent long stalls + a deadline shorter than the stall: stalled
  // flash ops must complete past the deadline and report kTimeout.
  opts.faults.stall_prob = 0.01;
  opts.faults.stall_ns = 5 * kMs;
  opts.faults.op_timeout_ns = 1 * kMs;
  const RunResult r = run_workload(bed, churn_spec(), opts);
  EXPECT_GT(bed.fault_injector()->stats().stalls, 0u);
  EXPECT_GT(bed.ftl().stats().op_timeouts, 0u);
  EXPECT_GT(r.errors.timeout, 0u);
}

// --- recovery: block FTL stacks -------------------------------------------

// A block bed's tenant queue is a sticky hint on the block device, so a
// re-drive must set it again: three reads on queues 0, 1, 0 each bounce
// busy and re-drive, and every attempt rides its own tenant's queue.
TEST(FaultRecovery, BlockBedRedriveKeepsItsTenantQueue) {
  HashKvBedConfig c;
  c.dev = tiny_dev();
  c.nvme.num_queues = 2;
  HashKvBed bed(c);
  for (u64 k = 0; k < 3; ++k)
    bed.store(wl::make_key(k, 16), ValueDesc{2048, k + 1}, [](Status) {});
  bed.drain([] {});
  bed.eq().run();
  const nvme::NvmeLink& link = *bed.nvme_link();
  const u64 q0 = link.queue_stats(0).submissions;
  const u64 q1 = link.queue_stats(1).submissions;

  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.stall_prob = 1.0;
  plan.busy_window_ns = 100 * kUs;
  bed.apply_fault_plan(plan);
  const u32 queues[] = {0, 1, 0};
  for (u64 k = 0; k < 3; ++k)
    bed.retrieve_as(TenantCtx{0, queues[k]}, wl::make_key(k, 16),
                    [](Status, ValueDesc) {});
  bed.eq().run();

  const u64 sub0 = link.queue_stats(0).submissions - q0;
  const u64 sub1 = link.queue_stats(1).submissions - q1;
  EXPECT_EQ(sub0 + sub1, 3 + bed.host_retries());
  EXPECT_EQ(bed.host_retries(), 3u);
  EXPECT_EQ(sub0, 3u);
  EXPECT_EQ(sub1, 3u) << "a re-drive left its tenant's queue";
}

TEST(FaultRecovery, LsmStackPropagatesAndRecoversDeviceFaults) {
  LsmBedConfig c;
  c.dev = tiny_dev();
  LsmBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  const RunResult r = run_workload(bed, churn_spec(8000), opts);

  const ssd::FtlStats& st = bed.ftl().stats();
  ASSERT_NE(bed.fault_injector(), nullptr);
  EXPECT_GT(bed.fault_injector()->stats().total_faults(), 0u);
  EXPECT_GT(st.grown_bad_blocks + st.remapped_units + st.reprogrammed_pages,
            0u);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.errors.io, 0u);
  EXPECT_EQ(r.errors.other, 0u);
}

TEST(FaultRecovery, HashKvStackSurvivesStressPlan) {
  HashKvBedConfig c;
  c.dev = tiny_dev();
  HashKvBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  const RunResult r = run_workload(bed, churn_spec(8000), opts);

  const ssd::FtlStats& st = bed.ftl().stats();
  EXPECT_GT(st.grown_bad_blocks + st.remapped_units + st.reprogrammed_pages,
            0u);
  EXPECT_EQ(r.ops, 8000u);
  EXPECT_EQ(r.errors.io, 0u);
  EXPECT_EQ(r.errors.other, 0u);
}

// Data survives the faults: after a faulty churn, re-reading the whole key
// space under a healthy device returns every key the churn left live, and
// values come back from relocated flash (remaps happened earlier).
TEST(FaultRecovery, DataRemainsReadableAfterFaultyChurn) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1200, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.faults = stress_plan();
  (void)run_workload(bed, churn_spec(8000), opts);
  const u64 remaps = bed.ftl().stats().remapped_units;
  EXPECT_GT(remaps, 0u);

  // Heal the device (clears the injector) and read back everything.
  opts.faults = {};
  opts.faults.enabled = false;
  bed.apply_fault_plan(opts.faults);
  EXPECT_EQ(bed.fault_injector(), nullptr);
  wl::WorkloadSpec reads;
  reads.num_ops = 2400;
  reads.key_space = 1200;
  reads.key_bytes = 16;
  reads.value_bytes = 2048;
  reads.mix = wl::OpMix::read_only();
  reads.queue_depth = 16;
  reads.seed = 7;
  const RunResult r = run_workload(bed, reads, {.drain_after = true});
  // Deleted keys report NotFound; nothing may error on a healthy device.
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_GT(r.ops - r.not_found, 0u);
}


// --- the firmware core's recovery paths, on both FTLs -----------------------

flash::FlashController& flash_of(KvStack& bed) {
  if (auto* b = dynamic_cast<KvssdBed*>(&bed)) return b->flash();
  if (auto* b = dynamic_cast<LsmBed*>(&bed)) return b->flash();
  return dynamic_cast<HashKvBed&>(bed).flash();
}

/// Sits between the flash controller and the FTL's fault injector: records
/// every block whose erase failed and counts any later program or erase of
/// it, which would mean a retired block was handed out again.
class RetiredBlockWatch final : public flash::FaultModel {
 public:
  explicit RetiredBlockWatch(flash::FlashController& flash)
      : flash_(flash), inner_(flash.faults()) {
    flash_.set_faults(this);
  }
  RetiredBlockWatch(const RetiredBlockWatch&) = delete;
  RetiredBlockWatch& operator=(const RetiredBlockWatch&) = delete;
  ~RetiredBlockWatch() override { flash_.set_faults(inner_); }

  flash::ReadFault on_read(flash::PageId p) override {
    return inner_->on_read(p);
  }
  flash::ProgramFault on_program(flash::PageId p) override {
    reuses_ += retired_.count(flash_.geometry().block_of_page(p));
    return inner_->on_program(p);
  }
  flash::EraseFault on_erase(flash::BlockId b) override {
    reuses_ += retired_.count(b);
    const flash::EraseFault f = inner_->on_erase(b);
    if (f.fail) retired_.insert(b);
    return f;
  }
  [[nodiscard]] TimeNs op_deadline_ns() const override {
    return inner_->op_deadline_ns();
  }

  [[nodiscard]] u64 retired() const { return retired_.size(); }
  [[nodiscard]] u64 reuses() const { return reuses_; }

 private:
  flash::FlashController& flash_;
  flash::FaultModel* inner_;
  std::set<flash::BlockId> retired_;
  u64 reuses_ = 0;
};

/// Run `total` ops at QD 16 on `bed`; `op(i, done)` issues op i.
void pump(KvStack& bed, u64 total,
          const std::function<void(u64, sim::Task)>& op) {
  u64 issued = 0, completed = 0, inflight = 0;
  std::function<void()> refill = [&] {
    while (inflight < 16 && issued < total) {
      ++inflight;
      op(issued++, [&] {
        --inflight;
        ++completed;
        refill();
      });
    }
  };
  refill();
  while (completed < total && bed.eq().step()) {
  }
  ASSERT_EQ(completed, total);
}

class EraseFailureOnBed : public ::testing::TestWithParam<int> {};

// GC erases fail on every bed: each failure retires its block as grown
// bad, no retired block is programmed or erased again, and every
// acknowledged store still reads back its latest value.
TEST_P(EraseFailureOnBed, GcRetiresFailedBlocksAndKeepsEveryValue) {
  auto bed = make_bed((BedKind)GetParam(), /*crash_tracking=*/false);
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.erase_fail_prob = 0.01;
  bed->apply_fault_plan(plan);
  RetiredBlockWatch watch(flash_of(*bed));

  // Fill 3000 keys with 4 KiB values, then overwrite 8x the key space at
  // random, never two stores in flight on one key.
  const u64 keys = 3000;
  std::vector<u64> latest(keys, 0);
  std::vector<u8> busy(keys, 0);
  Rng rng(5);
  u64 failed = 0;
  auto put = [&](u64 id, u64 fp, sim::Task done) {
    busy[id] = 1;
    bed->store_as(TenantCtx{}, wl::make_key(id, 16), ValueDesc{4096, fp},
                  [&, id, fp, done = std::move(done)](Status s) mutable {
                    busy[id] = 0;
                    if (s == Status::kOk) latest[id] = fp;
                    failed += s != Status::kOk;
                    done();
                  });
  };
  pump(*bed, keys,
       [&](u64 i, sim::Task done) { put(i, i + 1, std::move(done)); });
  pump(*bed, keys * 8, [&](u64 i, sim::Task done) {
    u64 id = rng.below(keys);
    while (busy[id]) id = (id + 1) % keys;
    put(id, keys + i + 1, std::move(done));
  });
  bool drained = false;
  bed->drain([&] { drained = true; });
  bed->eq().run();
  ASSERT_TRUE(drained);
  EXPECT_EQ(failed, 0u);

  const ssd::FtlStats& st = *bed->ftl_stats();
  EXPECT_GT(st.erase_failures, 0u);
  EXPECT_EQ(st.erase_failures, bed->fault_injector()->stats().erase_fails);
  EXPECT_EQ(st.grown_bad_blocks, st.erase_failures);
  EXPECT_EQ(watch.retired(), st.erase_failures);
  EXPECT_EQ(watch.reuses(), 0u);

  u64 stale = 0;
  pump(*bed, keys, [&](u64 id, sim::Task done) {
    bed->retrieve_as(TenantCtx{}, wl::make_key(id, 16),
                     [&, id, done = std::move(done)](Status s,
                                                     ValueDesc v) mutable {
                       stale += s != Status::kOk || v.fingerprint != latest[id];
                       done();
                     });
  });
  EXPECT_EQ(stale, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBeds, EraseFailureOnBed,
                         ::testing::Values((int)kKvssd, (int)kLsm,
                                           (int)kHashKv),
                         bed_param_name);


/// Fails every page program while `on` (only the next one if `once`);
/// reads and erases stay healthy.
struct ProgramFailSwitch final : flash::FaultModel {
  bool on = false;
  bool once = false;
  flash::ReadFault on_read(flash::PageId) override { return {}; }
  flash::ProgramFault on_program(flash::PageId) override {
    const bool fail = on;
    if (once) on = false;
    return {fail, 0};
  }
  flash::EraseFault on_erase(flash::BlockId) override { return {}; }
  [[nodiscard]] TimeNs op_deadline_ns() const override { return 0; }
};

/// 32 blocks, no GC reserve, and background GC only once the free pool is
/// empty: GC runs when a host write finds no block.
ssd::SsdConfig starved_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 4;
  d.geometry.pages_per_block = 16;
  d.write_buffer_bytes = 2 * MiB;
  d.gc_reserved_blocks = 0;
  d.gc_low_watermark_blocks = 1;
  return d;
}

/// One firmware driven directly, with one 4 KiB mapping unit per key id,
/// `write_points` host write points (one by default) and one GC write
/// point. `put` sets `*acked` when the firmware acks the write.
struct KvFirmware {
  explicit KvFirmware(u32 write_points = 1)
      : ftl(eq, flash, dev, [write_points] {
          kvftl::KvFtlConfig c;
          c.lanes = write_points;
          c.gc_lanes = 1;
          c.expected_keys_hint = 4096;
          return c;
        }()) {}

  sim::EventQueue eq;
  ssd::SsdConfig dev = starved_dev();
  flash::FlashController flash{eq, dev.geometry, dev.timing};
  kvftl::KvFtl ftl;

  void put(u64 id, u64 fp, bool* acked = nullptr) {
    ftl.store(wl::make_key(id, 16), ValueDesc{4096, fp}, [acked](Status s) {
      EXPECT_EQ(s, Status::kOk);
      if (acked) *acked = true;
    });
  }
  void drop(u64 id) {
    ftl.remove(wl::make_key(id, 16),
               [](Status s) { EXPECT_EQ(s, Status::kOk); });
  }
  u64 get(u64 id) {
    u64 fp = 0;
    ftl.retrieve(wl::make_key(id, 16), [&](Status s, ValueDesc v) {
      EXPECT_EQ(s, Status::kOk);
      fp = v.fingerprint;
    });
    eq.run();
    return fp;
  }
  static u64 stored(u64 fp) { return fp; }
  [[nodiscard]] u64 live_units() const { return ftl.live_slots() / 4; }
  /// Units one page holds: 4-slot chunks in a 24-slot data area.
  static constexpr u64 kPageUnits = 6;
};

struct BlockFirmware {
  explicit BlockFirmware(u32 write_points = 1)
      : ftl(eq, flash, dev, [write_points] {
          blockftl::BlockFtlConfig c;
          c.write_points = write_points;
          return c;
        }()) {}

  sim::EventQueue eq;
  ssd::SsdConfig dev = starved_dev();
  flash::FlashController flash{eq, dev.geometry, dev.timing};
  blockftl::BlockFtl ftl;

  void put(u64 id, u64 fp, bool* acked = nullptr) {
    ftl.write(id * 8, 4096, fp, [acked](Status s) {
      EXPECT_EQ(s, Status::kOk);
      if (acked) *acked = true;
    });
  }
  void drop(u64 id) {
    ftl.trim(id * 8, 4096, [](Status s) { EXPECT_EQ(s, Status::kOk); });
  }
  u64 get(u64 id) {
    u64 fp = 0;
    ftl.read(id * 8, 4096, [&](Status s, u64 f) {
      EXPECT_EQ(s, Status::kOk);
      fp = f;
    });
    eq.run();
    return fp;
  }
  static u64 stored(u64 fp) { return mix64(fp); }
  [[nodiscard]] u64 live_units() const {
    return ftl.live_bytes() / ftl.slot_bytes();
  }
  /// Units one page holds: 4 KiB slots in a 32 KiB page.
  static constexpr u64 kPageUnits = 8;
};

template <typename Firmware>
class RecoveryQueue : public ::testing::Test {};
using Firmwares = ::testing::Types<KvFirmware, BlockFirmware>;
TYPED_TEST_SUITE(RecoveryQueue, Firmwares);

template <typename Firmware>
void flush_all(Firmware& fw) {
  bool done = false;
  fw.ftl.flush([&] { done = true; });
  fw.eq.run();
  ASSERT_TRUE(done);
}

// Failed programs retire block after block until a relocation finds none
// left. Units 0..767 fill 6 blocks and are then deleted (GC's fodder);
// units 1000..1015 then land while every program fails, until no block
// is free. Returns how many of them wait in the recovery queue, off the
// map.
template <typename Firmware>
u64 starve_relocations(Firmware& fw, ProgramFailSwitch& faults) {
  for (u64 id = 0; id < 768; ++id) fw.put(id, id + 1);
  flush_all(fw);
  for (u64 id = 0; id < 768; ++id) fw.drop(id);
  fw.eq.run();
  EXPECT_EQ(fw.live_units(), 0u);

  faults.on = true;
  for (u64 id = 1000; id < 1016; ++id) fw.put(id, id + 1);
  fw.eq.run();
  for (int i = 0; i < 64 && fw.ftl.free_blocks() > 0; ++i) flush_all(fw);
  flush_all(fw);
  EXPECT_EQ(fw.ftl.free_blocks(), 0u);
  EXPECT_GT(fw.ftl.stats().grown_bad_blocks, 20u);
  return 16 - fw.live_units();
}

// Programs heal, and the next host write (unit 2000) finds no block and
// runs GC, which re-places the recovery queue first.
template <typename Firmware>
void heal_with_one_write(Firmware& fw, ProgramFailSwitch& faults) {
  faults.on = false;
  fw.put(2000, 2001);
  fw.eq.run();
  flush_all(fw);
  EXPECT_GT(fw.ftl.free_blocks(), 0u);
}

// Every queued unit comes back and reads back.
TYPED_TEST(RecoveryQueue, StarvedRelocationWaitsForTheNextFreedBlock) {
  TypeParam fw;
  ProgramFailSwitch faults;
  fw.flash.set_faults(&faults);
  EXPECT_GT(starve_relocations(fw, faults), 0u);
  heal_with_one_write(fw, faults);
  EXPECT_EQ(fw.live_units(), 17u);
  for (u64 id = 1000; id < 1016; ++id)
    EXPECT_EQ(fw.get(id), TypeParam::stored(id + 1)) << id;
  EXPECT_EQ(fw.get(2000), TypeParam::stored(2001));
  fw.flash.set_faults(nullptr);
}

// A unit trimmed (block FTL) or removed (KV FTL) while it waits in the
// recovery queue stays gone when a freed block re-places the queue.
TYPED_TEST(RecoveryQueue, UnitDroppedWhileQueuedStaysDropped) {
  TypeParam fw;
  ProgramFailSwitch faults;
  fw.flash.set_faults(&faults);
  EXPECT_GT(starve_relocations(fw, faults), 0u);
  for (u64 id = 1000; id < 1016; ++id) fw.drop(id);
  fw.eq.run();
  EXPECT_EQ(fw.live_units(), 0u);
  heal_with_one_write(fw, faults);
  EXPECT_EQ(fw.live_units(), 1u);
  EXPECT_EQ(fw.get(2000), TypeParam::stored(2001));
  fw.flash.set_faults(nullptr);
}

// A program fails on a block whose write point still fills its next page.
// Retiring the block drops that open page too: its units are re-placed
// with the failed page's, every value reads back, and remapped_units
// counts the units of both pages.
TYPED_TEST(RecoveryQueue, RetiredBlockReplacesItsOpenPage) {
  TypeParam fw;
  ProgramFailSwitch faults;
  faults.on = faults.once = true;
  fw.flash.set_faults(&faults);
  // One page fills and programs (and fails ~0.7 ms later); the last 3
  // units land in the next page of the same block long before that.
  const u64 units = TypeParam::kPageUnits + 3;
  for (u64 id = 0; id < units; ++id) fw.put(id, id + 1);
  fw.eq.run();
  flush_all(fw);
  const ssd::FtlStats& st = fw.ftl.stats();
  EXPECT_EQ(st.program_failures, 1u);
  EXPECT_EQ(st.grown_bad_blocks, 1u);
  EXPECT_EQ(st.remapped_units, units);
  EXPECT_EQ(fw.live_units(), units);
  for (u64 id = 0; id < units; ++id)
    EXPECT_EQ(fw.get(id), TypeParam::stored(id + 1)) << id;
  fw.flash.set_faults(nullptr);
}

// Writes `id` and steps the clock until the firmware acks it. The ack
// comes while no block is free, so the write waits in a queue.
template <typename Firmware>
void put_while_starved(Firmware& fw, u64 id, u64 fp) {
  bool acked = false;
  fw.put(id, fp, &acked);
  while (!acked && fw.eq.step()) {
  }
  EXPECT_TRUE(acked);
  EXPECT_EQ(fw.ftl.free_blocks(), 0u) << "unit " << id << " was placed";
}

// A host write acked while no block is free, then trimmed (block FTL) or
// removed (KV FTL), stays gone when GC frees a block.
TYPED_TEST(RecoveryQueue, QueuedHostWriteStaysDropped) {
  TypeParam fw;
  ProgramFailSwitch faults;
  fw.flash.set_faults(&faults);
  EXPECT_GT(starve_relocations(fw, faults), 0u);
  faults.on = false;
  put_while_starved(fw, 2000, 2001);
  fw.drop(2000);
  fw.eq.run();
  flush_all(fw);
  EXPECT_GT(fw.ftl.free_blocks(), 0u);
  EXPECT_EQ(fw.live_units(), 16u);
  for (u64 id = 1000; id < 1016; ++id)
    EXPECT_EQ(fw.get(id), TypeParam::stored(id + 1)) << id;
  fw.flash.set_faults(nullptr);
}

// With two host write points, a unit written twice while no block is
// free reads back its newer copy once GC frees a block. The filler puts
// the two copies in different write points' queues, and a freed block
// re-places the newer copy's queue first.
TYPED_TEST(RecoveryQueue, QueuedHostWriteYieldsToANewerOne) {
  TypeParam fw(2);
  ProgramFailSwitch faults;
  fw.flash.set_faults(&faults);
  EXPECT_GT(starve_relocations(fw, faults), 0u);
  faults.on = false;
  put_while_starved(fw, 1999, 1);
  put_while_starved(fw, 2000, 2001);
  put_while_starved(fw, 2000, 2002);
  fw.eq.run();
  flush_all(fw);
  EXPECT_GT(fw.ftl.free_blocks(), 0u);
  EXPECT_EQ(fw.live_units(), 18u);
  EXPECT_EQ(fw.get(2000), TypeParam::stored(2002));
  EXPECT_EQ(fw.get(1999), TypeParam::stored(1));
  fw.flash.set_faults(nullptr);
}

// A host write acked while no block is free waits for one in a queue
// (the KV FTL's chunk, the block FTL's write point). A read meanwhile
// answers from the write buffer: kOk with the stored fingerprint, not
// the old content.
TYPED_TEST(RecoveryQueue, QueuedHostWriteReadsBack) {
  TypeParam fw;
  ProgramFailSwitch faults;
  fw.flash.set_faults(&faults);
  EXPECT_GT(starve_relocations(fw, faults), 0u);
  faults.on = false;
  const u64 waits = fw.ftl.stats().gc_foreground_runs;
  put_while_starved(fw, 2000, 2001);
  // Only a write that finds no block starts foreground GC, and the write
  // can be placed only once GC frees a block, after the ack.
  ASSERT_EQ(fw.ftl.stats().gc_foreground_runs, waits + 1);
  EXPECT_EQ(fw.get(2000), TypeParam::stored(2001));
  fw.flash.set_faults(nullptr);
}

}  // namespace
}  // namespace kvsim::harness
