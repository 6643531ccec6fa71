// Byte-level determinism regression: the simulator must produce the exact
// same BenchReport JSON for the same seeded workload, every time. This is
// stronger than comparing a few summary scalars (harness_test does that) —
// the serialized document covers every histogram bucket, every bandwidth
// window, and every telemetry slice, so any hidden nondeterminism (map
// iteration order, uninitialized counters, wall-clock leakage) shows up as
// a byte diff here.
#include <gtest/gtest.h>

#include <string>

#include "harness/report.h"
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

wl::WorkloadSpec churn_spec() {
  wl::WorkloadSpec spec;
  spec.num_ops = 4000;
  spec.key_space = 1500;
  spec.key_bytes = 16;
  spec.value_bytes = 2048;
  spec.mix = {0.1, 0.35, 0.45, 0};  // rest deletes: exercises every op path
  spec.queue_depth = 16;
  spec.seed = 42;
  return spec;
}

// One full experiment — fill, churn with telemetry on, snapshot the
// device — serialized to its complete JSON document.
std::string report_json(const std::string& label) {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1500, 16, 2048, 32);
  RunOptions opts;
  opts.drain_after = true;
  opts.telemetry = true;
  opts.telemetry_interval = 10 * kMs;
  const RunResult r =
      run_workload(bed, churn_spec(), opts);
  BenchReport rep("determinism_check");
  rep.add_run(label, r);
  rep.add_device(bed);
  return rep.to_json();
}

TEST(Determinism, IdenticalReportsAcrossRepeatedRuns) {
  const std::string a = report_json("run");
  const std::string b = report_json("run");
  ASSERT_FALSE(a.empty());
  // Byte-identical, not just "equal-ish": report the first divergence
  // point on failure instead of dumping two multi-KiB documents.
  if (a != b) {
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    FAIL() << "reports diverge at byte " << i << ": ..."
           << a.substr(i > 40 ? i - 40 : 0, 80) << "... vs ..."
           << b.substr(i > 40 ? i - 40 : 0, 80) << "...";
  }
  SUCCEED();
}

// A two-tenant mix on a two-queue link, serialized through add_mix —
// covers the per-tenant histograms, digests, and per-queue counters.
std::string mix_report_json() {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.nvme.num_queues = 2;
  c.nvme.queue_weights = {4, 1};
  KvssdBed bed(c);
  (void)fill_stack(bed, 1500, 16, 2048, 32);
  wl::TenantMix mix;
  for (u32 i = 0; i < 2; ++i) {
    wl::TenantSpec t;
    t.name = std::string(i == 0 ? "fg" : "bg");
    t.nsid = (u8)(i + 1);
    t.queue = i;
    t.weight = i == 0 ? 4 : 1;
    t.spec = churn_spec();
    t.spec.num_ops = 2000;
    t.spec.seed = 42 + i;
    mix.tenants.push_back(std::move(t));
  }
  RunOptions opts;
  opts.drain_after = true;
  opts.telemetry = true;
  opts.telemetry_interval = 10 * kMs;
  const MixResult r = run_mix(bed, mix, opts);
  BenchReport rep("determinism_check");
  rep.add_mix("mix", r);
  rep.add_device(bed);
  return rep.to_json();
}

TEST(Determinism, MixReportsByteIdenticalAcrossReruns) {
  const std::string a = mix_report_json();
  const std::string b = mix_report_json();
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a.find("mix_runs") != std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(Determinism, SingleTenantMixReproducesLegacyRun) {
  // The back-compat contract in runner.h: run_workload(spec) and
  // run_mix(TenantMix::single(spec)).combined are the same run — same
  // issue order, byte-identical observables all the way down to the
  // serialized histograms and telemetry slices.
  auto build = [] {
    KvssdBedConfig c;
    c.dev = tiny_dev();
    return c;
  };
  RunOptions opts;
  opts.drain_after = true;
  opts.telemetry = true;
  opts.telemetry_interval = 10 * kMs;

  KvssdBed legacy(build());
  (void)fill_stack(legacy, 1500, 16, 2048, 32);
  const RunResult lr = run_workload(legacy, churn_spec(), opts);
  BenchReport lrep("determinism_check");
  lrep.add_run("run", lr);
  lrep.add_device(legacy);

  KvssdBed mixed(build());
  (void)fill_stack(mixed, 1500, 16, 2048, 32);
  const MixResult mr =
      run_mix(mixed, wl::TenantMix::single(churn_spec()), opts);
  BenchReport mrep("determinism_check");
  mrep.add_run("run", mr.combined);
  mrep.add_device(mixed);

  EXPECT_EQ(lrep.to_json(), mrep.to_json());
}

// An open-loop mix under admission control: the arrival clocks, window
// parking, shed decisions, and overload counters must all reproduce
// byte-for-byte, including the conditional "overload" JSON block.
std::string open_loop_mix_json() {
  KvssdBedConfig c;
  c.dev = tiny_dev();
  c.nvme.num_queues = 2;
  c.nvme.queue_weights = {2, 1};
  KvssdBed bed(c);
  (void)fill_stack(bed, 1500, 16, 2048, 32);
  wl::TenantMix mix;
  for (u32 i = 0; i < 2; ++i) {
    wl::TenantSpec t;
    t.name = i == 0 ? "open" : "closed";
    t.nsid = (u8)(i + 1);
    t.queue = i;
    t.spec = churn_spec();
    t.spec.num_ops = 1500;
    t.spec.seed = 42 + i;
    if (i == 0) {
      t.spec.arrival.kind = wl::ArrivalKind::kPoisson;
      t.spec.arrival.rate_ops_per_sec = 300'000.0;
      t.spec.arrival.max_inflight = 16;
    }
    mix.tenants.push_back(std::move(t));
  }
  RunOptions opts;
  SloSpec slo;
  slo.p99_target_ns = 2 * kMs;
  slo.max_inflight = 48;
  slo.window = 32;
  opts.slos = {slo};
  opts.drain_after = true;
  opts.telemetry = true;
  opts.telemetry_interval = 10 * kMs;
  const MixResult r = run_mix(bed, mix, opts);
  BenchReport rep("determinism_check");
  rep.add_mix("open_mix", r);
  rep.add_device(bed);
  return rep.to_json();
}

TEST(Determinism, OpenLoopMixByteIdenticalAcrossReruns) {
  const std::string a = open_loop_mix_json();
  const std::string b = open_loop_mix_json();
  ASSERT_FALSE(a.empty());
  EXPECT_NE(a.find("\"overload\""), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsProduceDifferentReports) {
  // Sanity check that the comparison above has teeth: a different seed
  // must change the document (otherwise we are comparing constants).
  KvssdBedConfig c;
  c.dev = tiny_dev();
  KvssdBed bed(c);
  (void)fill_stack(bed, 1500, 16, 2048, 32);
  auto spec = churn_spec();
  spec.seed = 43;
  RunOptions opts;
  opts.drain_after = true;
  opts.telemetry = true;
  opts.telemetry_interval = 10 * kMs;
  const RunResult r = run_workload(bed, spec, opts);
  BenchReport rep("determinism_check");
  rep.add_run("run", r);
  rep.add_device(bed);
  EXPECT_NE(rep.to_json(), report_json("run"));
}

}  // namespace
}  // namespace kvsim::harness
