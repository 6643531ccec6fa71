// Tests for the telemetry layer: flash stage-breakdown invariants, the
// time-sliced collector's conservation property, and the JSON exporter's
// round-trip on a golden mini-run.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/json.h"
#include "flash/controller.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "ssd/telemetry.h"

namespace kvsim {
namespace {

flash::FlashGeometry small_geom() {
  flash::FlashGeometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  g.page_bytes = 32 * KiB;
  return g;
}

ssd::SsdConfig tiny_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 16;
  d.geometry.pages_per_block = 16;  // 64 MiB raw
  return d;
}

void expect_stage_sums(const flash::StageBreakdown& s, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(s.die_wait.count(), s.total.count());
  EXPECT_EQ(s.die_service.count(), s.total.count());
  EXPECT_EQ(s.channel_wait.count(), s.total.count());
  EXPECT_EQ(s.transfer.count(), s.total.count());
  EXPECT_EQ(s.die_wait.sum() + s.die_service.sum() + s.channel_wait.sum() +
                s.transfer.sum(),
            s.total.sum());
}

TEST(StageBreakdown, StageSumsEqualEndToEnd) {
  sim::EventQueue eq;
  flash::FlashGeometry g = small_geom();
  flash::FlashTiming t;
  t.read_retry_prob = 0.2;  // exercise the retry path in die_service
  flash::FlashController ctrl(eq, g, t);

  // Pile operations onto overlapping dies so queueing (wait) is nonzero.
  u32 pending = 0;
  for (flash::PageId p = 0; p < 64; ++p) {
    ++pending;
    ctrl.read_page(p % 16, g.page_bytes, [&] { --pending; });
  }
  for (flash::PageId p = 0; p < 32; ++p) {
    ++pending;
    ctrl.program_page(p, g.page_bytes, [&] { --pending; });
  }
  for (flash::BlockId b = 0; b < 8; ++b) {
    ++pending;
    ctrl.erase_block(b, [&] { --pending; });
  }
  eq.run();
  ASSERT_EQ(pending, 0u);

  expect_stage_sums(ctrl.read_stages(), "read");
  expect_stage_sums(ctrl.program_stages(), "program");
  expect_stage_sums(ctrl.erase_stages(), "erase");
  EXPECT_EQ(ctrl.read_stages().total.count(), 64u);
  EXPECT_EQ(ctrl.program_stages().total.count(), 32u);
  EXPECT_EQ(ctrl.erase_stages().total.count(), 8u);
  // Contention existed, so some wait time must have been observed.
  EXPECT_GT(ctrl.read_stages().die_wait.sum() +
                ctrl.program_stages().die_wait.sum(),
            0u);
  // Erases never touch the channel.
  EXPECT_EQ(ctrl.erase_stages().transfer.sum(), 0u);
  EXPECT_EQ(ctrl.erase_stages().channel_wait.sum(), 0u);
}

TEST(StageBreakdown, UtilizationAccountingMatchesBusyTime) {
  sim::EventQueue eq;
  flash::FlashGeometry g = small_geom();
  flash::FlashController ctrl(eq, g, flash::FlashTiming{});
  for (flash::PageId p = 0; p < 16; ++p) ctrl.read_page(p, g.page_bytes, [] {});
  eq.run();
  TimeNs die_sum = 0;
  for (u64 d = 0; d < ctrl.num_dies(); ++d) die_sum += ctrl.die_busy_ns(d);
  EXPECT_EQ(die_sum, ctrl.total_die_busy_ns());
  // Busy time == recorded die service time (reservation durations).
  EXPECT_EQ((u64)die_sum, ctrl.read_stages().die_service.sum());
  TimeNs ch_sum = 0;
  for (u32 c = 0; c < ctrl.num_channels(); ++c)
    ch_sum += ctrl.channel_busy_ns(c);
  EXPECT_EQ(ch_sum, ctrl.total_channel_busy_ns());
  EXPECT_EQ((u64)ch_sum, ctrl.read_stages().transfer.sum());
  EXPECT_GT(ctrl.max_die_utilization(), 0.0);
  EXPECT_GE(ctrl.max_die_utilization(), ctrl.mean_die_utilization());
}

TEST(TelemetryCollector, WindowingAndConservation) {
  ssd::FtlStats stats;
  ssd::TelemetryCollector col(100);
  col.attach(1000, &stats, nullptr);
  ASSERT_TRUE(col.attached());

  stats.host_write_ops = 7;
  stats.host_bytes_written = 7000;
  col.poll(1000 + 50);  // inside the first window: no slice yet
  EXPECT_TRUE(col.slices().empty());

  col.poll(1000 + 250);  // crosses two boundaries
  ASSERT_EQ(col.slices().size(), 2u);
  EXPECT_EQ(col.slices()[0].t0, 0u);
  EXPECT_EQ(col.slices()[0].t1, 100u);
  EXPECT_EQ(col.slices()[1].t1, 200u);
  // The first crossed window absorbs the whole delta; the second is empty.
  EXPECT_EQ(col.slices()[0].ftl.host_write_ops, 7u);
  EXPECT_EQ(col.slices()[1].ftl.host_write_ops, 0u);

  stats.host_write_ops = 9;
  col.finalize(1000 + 320);  // closes [200,300) and the partial [300,320)
  ASSERT_EQ(col.slices().size(), 4u);
  EXPECT_EQ(col.slices().back().t1, 320u);
  u64 ops = 0, bytes = 0;
  for (const auto& s : col.slices()) {
    ops += s.ftl.host_write_ops;
    bytes += s.ftl.host_bytes_written;
    EXPECT_LT(s.t0, s.t1);
  }
  EXPECT_EQ(ops, stats.host_write_ops);
  EXPECT_EQ(bytes, stats.host_bytes_written);
  // finalize is idempotent at the same clock.
  col.finalize(1000 + 320);
  EXPECT_EQ(col.slices().size(), 4u);
}

// Every FtlStats and FlashStats counter, summed over a run's slices,
// equals its cumulative total. The run injects faults, so the fault &
// recovery counters move too.
TEST(TelemetryCollector, RunSliceDeltasSumToCumulativeCounters) {
  harness::KvssdBedConfig c;
  c.dev = tiny_dev();
  harness::KvssdBed bed(c);

  wl::WorkloadSpec spec;
  spec.num_ops = 3000;
  spec.key_space = 1500;
  spec.key_bytes = 16;
  spec.value_bytes = 4096;
  spec.mix = wl::OpMix::insert_only();
  spec.queue_depth = 16;
  harness::RunOptions opts;
  opts.drain_after = true;
  opts.telemetry_interval = kMs;  // small window -> many slices
  opts.faults.enabled = true;     // as fault_test's stress plan
  opts.faults.read_uber_base = 0.002;
  opts.faults.program_fail_prob = 0.01;
  opts.faults.erase_fail_prob = 0.05;
  opts.faults.stall_prob = 0.001;
  opts.faults.busy_window_ns = 50 * kUs;
  const harness::RunResult r =
      harness::run_workload(bed, spec, opts);

  ASSERT_GT(r.telemetry.slices().size(), 1u);
  ssd::FtlStats ftl;
  flash::FlashStats flash;
  u64 die_busy = 0;
  TimeNs prev_end = 0;
  const auto add = [](const char*, u64& sum, u64 v) { sum += v; };
  for (const auto& s : r.telemetry.slices()) {
    EXPECT_EQ(s.t0, prev_end);  // contiguous, gapless timeline
    prev_end = s.t1;
    ssd::FtlStats::visit(add, ftl, s.ftl);
    flash::FlashStats::visit(add, flash, s.flash);
    die_busy += s.extras.die_busy_ns;
  }
  // The bed was fresh at attach, so slice sums equal the cumulative totals.
  const auto same = [](const char* name, u64 sum, u64 total) {
    EXPECT_EQ(sum, total) << name;
  };
  ssd::FtlStats::visit(same, ftl, *bed.ftl_stats());
  flash::FlashStats::visit(same, flash, bed.flash().stats());
  EXPECT_EQ(die_busy, (u64)bed.flash().total_die_busy_ns());
  EXPECT_GT(ftl.host_write_ops, 0u);
  EXPECT_GT(flash.page_programs, 0u);
  EXPECT_TRUE(ftl.any_fault_activity());
}

TEST(TelemetryCollector, RunOptionsCanDisableCollection) {
  harness::KvssdBedConfig c;
  c.dev = tiny_dev();
  harness::KvssdBed bed(c);
  wl::WorkloadSpec spec;
  spec.num_ops = 200;
  spec.key_space = 200;
  spec.key_bytes = 16;
  spec.value_bytes = 1024;
  spec.mix = wl::OpMix::insert_only();
  spec.queue_depth = 8;
  harness::RunOptions opts;
  opts.drain_after = true;
  opts.telemetry = false;
  const harness::RunResult r =
      harness::run_workload(bed, spec, opts);
  EXPECT_EQ(r.ops, 200u);
  EXPECT_TRUE(r.telemetry.slices().empty());
}

TEST(Config, RejectsOutOfRangeRetryProbability) {
  ssd::SsdConfig cfg = ssd::SsdConfig::small_device();
  cfg.timing.read_retry_prob = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.timing.read_retry_prob = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.timing.read_retry_prob = 0.999;
  EXPECT_NO_THROW(cfg.validate());
  cfg.timing.read_retry_prob = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

// --- JSON exporter -------------------------------------------------------

TEST(Report, GoldenMiniRunJsonParsesAndRoundTrips) {
  harness::KvssdBedConfig c;
  c.dev = tiny_dev();
  harness::KvssdBed bed(c);
  (void)harness::fill_stack(bed, 500, 16, 2048, 16);

  wl::WorkloadSpec spec;
  spec.num_ops = 1000;
  spec.key_space = 500;
  spec.key_bytes = 16;
  spec.value_bytes = 2048;
  spec.mix = {0.0, 0.5, 0.5, 0};
  spec.queue_depth = 8;
  harness::RunOptions opts;
  opts.drain_after = true;
  opts.telemetry_interval = 5 * kMs;
  const harness::RunResult r =
      harness::run_workload(bed, spec, opts);

  harness::BenchReport report("golden_mini_run");
  report.add_run("mixed_qd8", r);
  report.add_device(bed);
  const std::string text = report.to_json();

  // 1. The document parses.
  auto doc = json_parse(text);
  ASSERT_TRUE(doc.has_value()) << text.substr(0, 200);

  // 2. Serialize -> parse -> serialize is a fixed point.
  const std::string text2 = json_serialize(*doc);
  auto doc2 = json_parse(text2);
  ASSERT_TRUE(doc2.has_value());
  EXPECT_EQ(text2, json_serialize(*doc2));

  // 3. Structure spot-checks: runs, latency histograms, timeslices,
  //    device stage breakdowns all present with consistent numbers.
  const JsonValue* runs = doc->get("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const JsonValue* result = runs->array[0].get("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->get("ops")->num_or(0), 1000.0);

  const JsonValue* lat = result->get("latency");
  ASSERT_NE(lat, nullptr);
  const JsonValue* all = lat->get("all");
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->get("count")->num_or(0), 1000.0);
  // Bucket counts reconstruct the histogram count exactly.
  double bucket_total = 0;
  for (const auto& b : all->get("buckets")->array)
    bucket_total += b.array[1].num_or(0);
  EXPECT_EQ(bucket_total, 1000.0);

  const JsonValue* slices = result->get("timeslices")->get("slices");
  ASSERT_NE(slices, nullptr);
  EXPECT_GT(slices->array.size(), 0u);

  const JsonValue* devices = doc->get("devices");
  ASSERT_NE(devices, nullptr);
  ASSERT_EQ(devices->array.size(), 1u);
  const JsonValue* flash = devices->array[0].get("flash");
  ASSERT_NE(flash, nullptr);
  const JsonValue* stages = flash->get("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* op : {"read", "program", "erase"}) {
    const JsonValue* sb = stages->get(op);
    ASSERT_NE(sb, nullptr) << op;
    for (const char* st :
         {"die_wait", "die_service", "channel_wait", "transfer", "total"})
      EXPECT_NE(sb->get(st), nullptr) << op << "." << st;
  }
}

/// Every counter `T`'s list names is a key of `block`.
template <typename T>
void expect_every_counter(const JsonValue* block, const char* what) {
  ASSERT_NE(block, nullptr) << what;
  const T zero{};
  T::visit(
      [&](const char* name, u64) {
        EXPECT_NE(block->get(name), nullptr) << what << "." << name;
      },
      zero);
}

// Each counter list's fields all appear as keys of the JSON block that
// emits it. Every counter is set to 1 through its own list, so each
// conditional block is present.
TEST(Report, EveryListedCounterIsAKeyOfItsBlock) {
  const auto one = [](const char*, u64& v) { v = 1; };
  sim::EventQueue eq;
  flash::FlashController flash(eq, small_geom(), flash::FlashTiming{});
  ssd::FtlStats ftl;
  harness::MixResult m;
  harness::RunResult& r = m.combined;
  r.telemetry.attach(0, &ftl, &flash);
  ssd::FtlStats::visit(one, ftl);
  r.telemetry.finalize(1);
  harness::ErrorCounts::visit(one, r.errors);
  harness::OverloadCounters::visit(one, r);
  ssd::CrashOutcome::visit(one, r.recovery);
  m.queues.push_back(harness::QueueUsage{});
  nvme::NvmeQueueStats::visit(one, m.queues[0].stats);
  ssd::FaultPlan plan;
  plan.enabled = true;
  plan.program_fail_prob = 1.0;
  ssd::FaultInjector faults(plan, small_geom(), eq);
  (void)faults.on_program(0);

  harness::BenchReport report("counter_keys");
  report.add_mix("mix", m);
  report.add_device("dev", &ftl, &flash, &faults);
  const auto doc = json_parse(report.to_json());
  ASSERT_TRUE(doc.has_value());

  const JsonValue& mix = doc->get("mix_runs")->array.at(0);
  const JsonValue* run = mix.get("result")->get("combined");
  expect_every_counter<harness::ErrorCounts>(run->get("error_breakdown"),
                                             "error_breakdown");
  expect_every_counter<harness::OverloadCounters>(run->get("overload"),
                                                  "overload");
  expect_every_counter<ssd::CrashOutcome>(run->get("recovery"),
                                              "recovery");
  const JsonValue* slice =
      &run->get("timeslices")->get("slices")->array.at(0);
  expect_every_counter<ssd::FtlStats>(slice, "slice");
  expect_every_counter<flash::FlashStats>(slice, "slice");
  expect_every_counter<ssd::TelemetryExtras>(slice, "slice");
  expect_every_counter<nvme::NvmeQueueStats>(
      &mix.get("result")->get("queues")->array.at(0), "queues");
  EXPECT_NE(mix.get("result")->get("urgent_fetches"), nullptr);

  const JsonValue& dev = doc->get("devices")->array.at(0);
  expect_every_counter<ssd::FtlStats>(dev.get("ftl"), "ftl");
  expect_every_counter<flash::FlashStats>(
      dev.get("flash")->get("counters"), "flash.counters");
  expect_every_counter<ssd::FaultStats>(dev.get("faults"), "faults");
}

TEST(Json, WriterEscapesAndParserRejectsGarbage) {
  JsonWriter w;
  w.begin_object();
  w.kv("text", std::string_view("a\"b\\c\nd"));
  w.kv("neg", (i64)-5);
  w.end_object();
  auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("text")->string, "a\"b\\c\nd");
  EXPECT_EQ(doc->get("neg")->num_or(0), -5.0);

  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("{} trailing").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_FALSE(json_parse("").has_value());
}

}  // namespace
}  // namespace kvsim
