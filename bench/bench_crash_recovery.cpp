// Crash/recovery characterization: cut the power mid-workload at the same
// simulated times on each stack and measure what a mount costs — recovery
// time (from the cut to the end of the device's and the host's mount;
// background work the mount queues runs after it), rebuild I/O (OOB pages
// scanned by the FTL, WAL records replayed by the LSM bed, log blocks
// scanned by the hashkv bed), and the lost-write window
// (acknowledged-but-volatile state at the cut). Not a paper
// figure: the paper's testbeds all ran on PLP-less consumer hardware,
// and this is the availability/durability view of that choice — the
// KV-SSD rebuilds its whole index from flash OOB while the hosts replay
// logs, so mount cost scales with data written, not with data lost.
#include "bench_util.h"

namespace kvbench {
namespace {

struct CrashRow {
  const char* bed;
  TimeNs cut_ns;
  harness::RunResult r;
};

wl::WorkloadSpec churn_spec() {
  wl::WorkloadSpec spec;
  spec.num_ops = 80'000;
  spec.key_space = 20'000;
  spec.key_bytes = 16;
  spec.value_bytes = 4 * KiB;
  spec.mix = {0.4, 0.3, 0.2, 0};  // rest deletes
  spec.queue_depth = 64;
  spec.seed = 17;
  return spec;
}

harness::RunResult crash_run(harness::KvStack& bed, TimeNs cut_ns) {
  harness::RunOptions opts;
  opts.drain_after = true;
  opts.crash_at_ns = cut_ns;
  return run_workload(bed, churn_spec(), opts);
}

harness::RunResult run_bed(const char* bed, TimeNs cut) {
  if (std::string_view(bed) == "KV-SSD") {
    harness::KvssdBedConfig c = kvssd_cfg(device_gib(1), 40'000);
    c.crash_tracking = true;
    harness::KvssdBed b(c);
    harness::RunResult r = crash_run(b, cut);
    report().add_device(b);
    return r;
  }
  if (std::string_view(bed) == "RDB") {
    harness::LsmBedConfig c = lsm_cfg(device_gib(1));
    c.crash_tracking = true;
    harness::LsmBed b(c);
    harness::RunResult r = crash_run(b, cut);
    report().add_device(b);
    return r;
  }
  harness::HashKvBedConfig c = hashkv_cfg(device_gib(1));
  c.crash_tracking = true;
  harness::HashKvBed b(c);
  harness::RunResult r = crash_run(b, cut);
  report().add_device(b);
  return r;
}

}  // namespace
}  // namespace kvbench

int main() {
  using namespace kvbench;
  print_header("Crash",
               "power-loss cut + mount-time recovery cost per stack");
  report_init("crash_recovery");
  std::printf("1 GiB devices, 80k-op churn at QD 64, cut at T ms into the "
              "run; recovery runs on the simulation clock\n");

  const char* beds[] = {"KV-SSD", "RDB", "AS"};
  const TimeNs cuts[] = {5 * kMs, 40 * kMs, 250 * kMs};
  auto ms = [](TimeNs t) { return std::to_string(t / kMs); };
  std::vector<CrashRow> rows;
  for (const char* bed : beds)
    for (TimeNs cut : cuts) {
      CrashRow row{bed, cut, run_bed(bed, cut)};
      report().add_run(std::string(bed) + "/cut" + ms(cut) + "ms", row.r);
      rows.push_back(std::move(row));
    }

  Table t({"stack", "cut (ms)", "recovery", "discarded", "rebuild pages",
           "torn", "recovered", "lost", "wal replay", "wal lost",
           "log blocks"});
  for (const CrashRow& row : rows) {
    const ssd::CrashOutcome& o = row.r.recovery;
    t.add_row({row.bed, ms(row.cut_ns),
               us((double)o.recovery_ns) + " us",
               std::to_string(o.discarded_events),
               std::to_string(o.rebuild_pages_read),
               std::to_string(o.torn_pages),
               std::to_string(o.recovered_units),
               std::to_string(o.lost_units),
               std::to_string(o.wal_records_replayed),
               std::to_string(o.wal_records_lost),
               std::to_string(o.log_blocks_scanned)});
  }
  std::printf("%s", t.render().c_str());
  save_csv("crash_recovery", t);
  save_report();

  std::printf(
      "\nReading: mount cost tracks data written before the cut (the KV-SSD "
      "scans every programmed page's OOB; the hosts replay logs), while the "
      "lost-write window tracks only the volatile state at the cut — "
      "buffers and in-flight programs — so it stays flat as the run "
      "grows.\n\n");

  auto at = [&](const char* bed, TimeNs cut) -> const harness::RunResult& {
    for (const CrashRow& row : rows)
      if (std::string_view(row.bed) == bed && row.cut_ns == cut)
        return row.r;
    static harness::RunResult none;
    return none;
  };
  for (const char* bed : beds) {
    for (TimeNs cut : cuts) {
      const harness::RunResult& r = at(bed, cut);
      check_shape(r.crashed && r.recovery.recovery_ns > 0,
                  (std::string(bed) + ": cut fired and mount took time")
                      .c_str());
    }
    // Volatile state (buffers, memtable, in-flight programs) caps the
    // loss, so it grows far slower than the 50x run-time spread between
    // the shallowest and deepest cut.
    auto lost = [&](TimeNs cut) {
      const ssd::CrashOutcome& o = at(bed, cut).recovery;
      return o.lost_units + o.wal_records_lost;
    };
    check_shape(lost(cuts[2]) < std::max<u64>(1, lost(cuts[0])) * 8,
                (std::string(bed) + ": lost-write window sublinear in run "
                                    "length (volatile state, not history)")
                    .c_str());
    check_shape(at(bed, cuts[2]).recovery.recovery_ns >=
                    at(bed, cuts[0]).recovery.recovery_ns,
                (std::string(bed) + ": deeper cut costs at least as much "
                                    "mount time")
                    .c_str());
    check_shape(at(bed, cuts[2]).recovery.rebuild_pages_read +
                        at(bed, cuts[2]).recovery.log_blocks_scanned >
                    0,
                (std::string(bed) + ": mount did real rebuild I/O").c_str());
  }
  return shape_exit();
}
