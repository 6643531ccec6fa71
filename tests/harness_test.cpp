// Tests for the experiment harness itself: runner semantics, determinism,
// stats plumbing, and cross-stack behavioral invariants that the benches
// rely on (these are the guard rails for EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/runner.h"
#include "harness/stacks.h"

namespace kvsim::harness {
namespace {

ssd::SsdConfig tiny_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 16;
  d.geometry.pages_per_block = 16;  // 64 MiB raw
  return d;
}

TEST(Runner, DeterministicAcrossRuns) {
  auto run_once = [] {
    KvssdBedConfig c;
    c.dev = tiny_dev();
    KvssdBed bed(c);
    (void)fill_stack(bed, 2000, 16, 2048, 32);
    wl::WorkloadSpec spec;
    spec.num_ops = 3000;
    spec.key_space = 2000;
    spec.key_bytes = 16;
    spec.value_bytes = 2048;
    spec.mix = {0.2, 0.3, 0.5, 0};
    spec.queue_depth = 16;
    return run_workload(bed, spec, {.drain_after = true});
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.all.count(), b.all.count());
  EXPECT_EQ(a.all.max(), b.all.max());
  EXPECT_EQ(a.all.percentile(0.5), b.all.percentile(0.5));
  EXPECT_EQ(a.host_cpu_ns, b.host_cpu_ns);
}

TEST(Runner, OpCountsSplitByType) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1000, 16, 1024, 32);
  wl::WorkloadSpec spec;
  spec.num_ops = 4000;
  spec.key_space = 1000;
  spec.key_bytes = 16;
  spec.value_bytes = 1024;
  spec.mix = {0.0, 0.25, 0.5, 0};  // rest are deletes
  spec.queue_depth = 8;
  const RunResult r = run_workload(bed, spec, {.drain_after = true});
  EXPECT_EQ(r.update.count() + r.read.count() + r.del.count(), 4000u);
  EXPECT_EQ(r.all.count(), 4000u);
  EXPECT_NEAR((double)r.update.count() / 4000.0, 0.25, 0.03);
  EXPECT_NEAR((double)r.del.count() / 4000.0, 0.25, 0.03);
}

TEST(Runner, BandwidthAccountsKeyAndValueBytes) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  const RunResult r = fill_stack(bed, 1000, 16, 4096, 16);
  u64 recorded = 0;
  for (u64 w : r.bw.raw_windows()) recorded += w;
  EXPECT_EQ(recorded, 1000u * (16 + 4096));
}

TEST(Runner, ElapsedGrowsWithOps) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  const RunResult small = fill_stack(bed, 500, 16, 1024, 16);
  KvssdBedConfig c2;
  c2.dev = tiny_dev();
  KvssdBed bed2(c2);
  const RunResult large = fill_stack(bed2, 5000, 16, 1024, 16);
  EXPECT_GT(large.elapsed, small.elapsed);
}

TEST(Stacks, NamesAndTelemetryPresent) {
  KvssdBedConfig kc;
  kc.dev = tiny_dev();
  KvssdBed kv(kc);
  LsmBedConfig lc;
  lc.dev = tiny_dev();
  LsmBed lsm(lc);
  HashKvBedConfig hc;
  hc.dev = tiny_dev();
  HashKvBed hk(hc);
  EXPECT_STREQ(kv.name(), "KV-SSD");
  EXPECT_NE(std::string(lsm.name()).find("RocksDB"), std::string::npos);
  EXPECT_NE(std::string(hk.name()).find("Aerospike"), std::string::npos);
  for (KvStack* s : std::initializer_list<KvStack*>{&kv, &lsm, &hk}) {
    EXPECT_NE(s->ftl_stats(), nullptr);
    EXPECT_EQ(s->ftl_stats()->host_write_ops, 0u);
  }
}

TEST(Stacks, DrainIsIdempotent) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 200, 16, 1024, 8);
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    bed.drain([&] { done = true; });
    bed.eq().run();
    EXPECT_TRUE(done);
  }
}

TEST(BlockRunner, SequentialAndRandomSpansRespected) {
  BlockBedConfig c;
  c.dev = tiny_dev();
  BlockDirectBed bed(c);
  BlockRunSpec spec;
  spec.num_ops = 500;
  spec.io_bytes = 4 * KiB;
  spec.sequential = true;
  spec.span_bytes = 100 * 4 * KiB;  // wraps after 100 ops
  spec.queue_depth = 4;
  const RunResult w = run_block(bed.eq(), bed.device(), spec, true);
  EXPECT_EQ(w.ops, 500u);
  EXPECT_EQ(w.errors.total(), 0u);
  // Only 100 distinct slots were written.
  EXPECT_LE(bed.ftl().live_bytes(), 100u * 4 * KiB);
}

TEST(BlockRunner, WritesThenReadsRoundTrip) {
  BlockBedConfig c;
  c.dev = tiny_dev();
  BlockDirectBed bed(c);
  BlockRunSpec spec;
  spec.num_ops = 1000;
  spec.io_bytes = 8 * KiB;
  spec.span_bytes = 1000ull * 8 * KiB;
  spec.queue_depth = 8;
  spec.op = BlockOp::kWrite;
  (void)run_block(bed.eq(), bed.device(), spec, true);
  spec.op = BlockOp::kRead;
  const RunResult r = run_block(bed.eq(), bed.device(), spec);
  EXPECT_EQ(r.errors.total(), 0u);
  EXPECT_GT(r.read.mean(), 0.0);
}

/// A stack whose ops complete 1 us after issue and whose drain drops its
/// callback: the event queue runs dry with the drain still waiting.
class DrainDroppingStack final : public KvStack {
 public:
  void store_as(const TenantCtx&, std::string_view, ValueDesc,
                StoreDone done) override {
    eq_.schedule_after(kUs, [d = std::move(done)]() mutable {
      d(Status::kOk);
    });
  }
  void retrieve_as(const TenantCtx&, std::string_view,
                   RetrieveDone done) override {
    eq_.schedule_after(kUs, [d = std::move(done)]() mutable {
      d(Status::kNotFound, ValueDesc{});
    });
  }
  void remove_as(const TenantCtx&, std::string_view,
                 RemoveDone done) override {
    store_as({}, {}, {}, std::move(done));
  }
  void drain(sim::Task) override {}
  sim::EventQueue& eq() override { return eq_; }
  [[nodiscard]] u64 host_cpu_ns() const override { return 0; }
  [[nodiscard]] u64 device_bytes_used() const override { return 0; }
  [[nodiscard]] u64 app_bytes_live() const override { return 0; }
  [[nodiscard]] const char* name() const override { return "drain-dropper"; }

 private:
  sim::EventQueue eq_;
};

// A drain that never calls back would leave its callback pointing at the
// runner's stack frame, so the run fails loudly, naming the stack.
TEST(Runner, ThrowsWhenTheDrainNeverCallsBack) {
  DrainDroppingStack stack;
  wl::WorkloadSpec spec;
  spec.num_ops = 100;
  spec.key_space = 50;
  spec.mix = {0, 0.5, 0.5, 0};
  spec.queue_depth = 4;
  try {
    (void)run_workload(stack, spec, {.drain_after = true});
    FAIL() << "run_workload returned";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("drain-dropper"), std::string::npos)
        << e.what();
  }
  // Without a drain the run completes.
  EXPECT_EQ(run_workload(stack, spec, RunOptions{}).ops, 100u);
}

}  // namespace
}  // namespace kvsim::harness
