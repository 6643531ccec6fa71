#include "harness/report.h"

#include <filesystem>
#include <fstream>

#include "flash/controller.h"

namespace kvsim::harness {

void histogram_json(JsonWriter& w, const LatencyHistogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum_ns", h.sum());
  w.kv("min_ns", (u64)h.min());
  w.kv("max_ns", (u64)h.max());
  w.kv("mean_ns", h.mean());
  w.kv("p50_ns", (u64)h.percentile(0.50));
  w.kv("p90_ns", (u64)h.percentile(0.90));
  w.kv("p99_ns", (u64)h.percentile(0.99));
  w.kv("p999_ns", (u64)h.percentile(0.999));
  w.key("buckets").begin_array();
  for (const auto& [upper, count] : h.nonzero_buckets())
    w.begin_array().value((u64)upper).value(count).end_array();
  w.end_array();
  w.end_object();
}

void stage_breakdown_json(JsonWriter& w, const flash::StageBreakdown& s) {
  w.begin_object();
  w.key("die_wait");
  histogram_json(w, s.die_wait);
  w.key("die_service");
  histogram_json(w, s.die_service);
  w.key("channel_wait");
  histogram_json(w, s.channel_wait);
  w.key("transfer");
  histogram_json(w, s.transfer);
  w.key("total");
  histogram_json(w, s.total);
  w.end_object();
}

void timeslices_json(JsonWriter& w, const ssd::TelemetryCollector& c) {
  w.begin_object();
  w.kv("interval_ns", (u64)c.interval());
  w.kv("num_dies", c.num_dies());
  w.key("slices").begin_array();
  for (const auto& s : c.slices()) {
    w.begin_object();
    w.kv("t0_ns", (u64)s.t0);
    w.kv("t1_ns", (u64)s.t1);
    w.kv("host_read_ops", s.host_read_ops);
    w.kv("host_write_ops", s.host_write_ops);
    w.kv("host_bytes_read", s.host_bytes_read);
    w.kv("host_bytes_written", s.host_bytes_written);
    w.kv("flash_bytes_written", s.flash_bytes_written);
    w.kv("gc_runs", s.gc_runs);
    w.kv("gc_foreground_runs", s.gc_foreground_runs);
    w.kv("gc_migrated_bytes", s.gc_migrated_bytes);
    w.kv("page_reads", s.page_reads);
    w.kv("page_programs", s.page_programs);
    w.kv("block_erases", s.block_erases);
    w.kv("read_retries", s.read_retries);
    w.kv("die_busy_ns", s.die_busy_ns);
    w.kv("channel_busy_ns", s.channel_busy_ns);
    w.kv("buffer_stalls", s.buffer_stalls);
    w.kv("clamped_schedules", s.clamped_schedules);
    if ((s.read_media_errors | s.program_failures | s.erase_failures |
         s.grown_bad_blocks | s.remapped_units | s.busy_rejections |
         s.op_timeouts) != 0) {
      w.kv("read_media_errors", s.read_media_errors);
      w.kv("program_failures", s.program_failures);
      w.kv("erase_failures", s.erase_failures);
      w.kv("grown_bad_blocks", s.grown_bad_blocks);
      w.kv("remapped_units", s.remapped_units);
      w.kv("busy_rejections", s.busy_rejections);
      w.kv("op_timeouts", s.op_timeouts);
    }
    w.kv("write_bw_bytes_per_sec", s.write_bw_bytes_per_sec());
    w.kv("waf", s.waf());
    w.kv("die_utilization", s.die_utilization(c.num_dies()));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void run_result_json(JsonWriter& w, const RunResult& r) {
  w.begin_object();
  w.kv("ops", r.ops);
  w.kv("elapsed_ns", (u64)r.elapsed);
  w.kv("errors", r.errors.total());
  w.kv("not_found", r.not_found);
  // Fault-run extras: emitted only when the run actually saw categorized
  // errors or host retries, so healthy-run JSON is byte-identical to
  // pre-fault-model output.
  if (r.errors.total() != 0) {
    w.key("error_breakdown").begin_object();
    w.kv("io", r.errors.io);
    w.kv("media", r.errors.media);
    w.kv("busy", r.errors.busy);
    w.kv("timeout", r.errors.timeout);
    w.kv("capacity", r.errors.capacity);
    w.kv("other", r.errors.other);
    // Admission-control outcomes: keys appear only when the run shed or
    // expired something, so fault-only breakdowns keep their exact shape.
    if (r.errors.shed != 0) w.kv("shed", r.errors.shed);
    if (r.errors.deadline != 0) w.kv("deadline", r.errors.deadline);
    w.end_object();
  }
  if (r.host_retries != 0) w.kv("host_retries", r.host_retries);
  // Open-loop extras: the overload block appears only when an arrival
  // schedule actually generated ops, so closed-loop JSON stays
  // byte-identical to pre-overload output.
  if (r.overload_activity()) {
    w.key("overload").begin_object();
    w.kv("offered_ops", r.offered_ops);
    w.kv("shed_ops", r.shed_ops);
    w.kv("deferred_ops", r.deferred_ops);
    w.kv("deadline_exceeded_ops", r.deadline_exceeded_ops);
    w.kv("arrival_overflows", r.arrival_overflows);
    w.kv("slo_goodput_ops", r.slo_goodput_ops);
    w.kv("backlog_peak", r.backlog_peak);
    w.end_object();
  }
  // Crash-run extras: the recovery block appears only when a power-loss
  // cut actually fired, so crash-free report JSON stays byte-identical.
  if (r.crashed || r.recovery.any()) {
    w.key("recovery").begin_object();
    w.kv("crash_time_ns", (u64)r.recovery.crash_time);
    w.kv("recovery_ns", (u64)r.recovery.recovery_ns);
    w.kv("discarded_events", r.recovery.discarded_events);
    w.kv("rebuild_pages_read", r.recovery.rebuild_pages_read);
    w.kv("torn_pages", r.recovery.torn_pages);
    w.kv("recovered_units", r.recovery.recovered_units);
    w.kv("lost_units", r.recovery.lost_units);
    w.kv("wal_records_replayed", r.recovery.wal_records_replayed);
    w.kv("wal_records_lost", r.recovery.wal_records_lost);
    w.kv("log_blocks_scanned", r.recovery.log_blocks_scanned);
    w.end_object();
  }
  w.kv("host_cpu_ns", r.host_cpu_ns);
  w.kv("throughput_ops_per_sec", r.throughput_ops_per_sec());
  w.kv("bandwidth_bytes_per_sec", r.bandwidth_bytes_per_sec());
  w.kv("cpu_cores_busy", r.cpu_cores_busy());

  w.key("latency").begin_object();
  const std::pair<const char*, const LatencyHistogram*> hists[] = {
      {"all", &r.all},   {"insert", &r.insert}, {"update", &r.update},
      {"read", &r.read}, {"scan", &r.scan},     {"delete", &r.del},
  };
  for (const auto& [hname, h] : hists) {
    if (h->count() == 0 && h != &r.all) continue;  // omit idle op types
    w.key(hname);
    histogram_json(w, *h);
  }
  w.end_object();

  // Bandwidth timeline: fixed windows of `window_ns`; bytes[i] transferred
  // in window i. A Fig. 6-style curve is bytes[i] / window seconds.
  w.key("bandwidth").begin_object();
  w.kv("window_ns", (u64)r.bw.window());
  w.key("bytes").begin_array();
  for (u64 b : r.bw.raw_windows()) w.value(b);
  w.end_array();
  w.end_object();

  w.key("timeslices");
  timeslices_json(w, r.telemetry);
  w.end_object();
}

void mix_result_json(JsonWriter& w, const MixResult& m) {
  w.begin_object();
  w.key("combined");
  run_result_json(w, m.combined);
  w.key("tenants").begin_array();
  for (const TenantResult& t : m.tenants) {
    w.begin_object();
    w.kv("name", std::string_view(t.name));
    w.kv("weight", (u64)t.weight);
    w.kv("queue", (u64)t.queue);
    w.kv("nsid", (u64)t.nsid);
    w.kv("digest", t.digest);
    w.kv("last_completion_ns", (u64)t.last_completion_ns);
    w.key("result");
    run_result_json(w, t.result);
    w.end_object();
  }
  w.end_array();
  w.key("queues").begin_array();
  for (const QueueUsage& q : m.queues) {
    w.begin_object();
    w.kv("qid", (u64)q.qid);
    w.kv("submissions", q.stats.submissions);
    w.kv("commands", q.stats.commands);
    w.kv("payload_bytes", q.stats.payload_bytes);
    w.kv("completions", q.stats.completions);
    w.kv("completion_bytes", q.stats.completion_bytes);
    w.kv("queue_wait_ns", q.stats.queue_wait_ns);
    w.kv("service_ns", q.stats.service_ns);
    w.kv("sq_full_stalls", q.stats.sq_full_stalls);
    w.kv("arbitration_stalls", q.stats.arbitration_stalls);
    w.kv("max_occupancy", q.stats.max_occupancy);
    w.end_object();
  }
  w.end_array();
  w.kv("arbitration_rounds", m.arbitration_rounds);
  // Urgent-class fast-path fetches: emitted only when the run used the
  // strict-priority class, so plain-WRR reports stay byte-identical.
  if (m.urgent_fetches != 0) w.kv("urgent_fetches", m.urgent_fetches);
  w.end_object();
}

void BenchReport::add_run(const std::string& label, const RunResult& r) {
  runs_.emplace_back(label, r);
}

void BenchReport::add_mix(const std::string& label, const MixResult& m) {
  mixes_.emplace_back(label, m);
}

void BenchReport::add_device(const KvStack& stack) {
  add_device(stack.name(), stack.ftl_stats(), stack.flash_ctrl(),
             stack.fault_injector());
}

void BenchReport::add_device(const char* name, const ssd::FtlStats* ftl,
                             const flash::FlashController* flash,
                             const ssd::FaultInjector* faults) {
  DeviceSnap snap;
  snap.name = name ? name : "";
  if (ftl) {
    snap.has_ftl = true;
    snap.ftl = *ftl;
  }
  if (flash) {
    snap.has_flash = true;
    snap.flash_stats = flash->stats();
    snap.read_stages = flash->read_stages();
    snap.program_stages = flash->program_stages();
    snap.erase_stages = flash->erase_stages();
    for (u64 d = 0; d < flash->num_dies(); ++d)
      snap.die_busy_ns.push_back(flash->die_busy_ns(d));
    for (u32 c = 0; c < flash->num_channels(); ++c)
      snap.channel_busy_ns.push_back(flash->channel_busy_ns(c));
  }
  if (faults && faults->stats().total_faults() != 0) {
    snap.has_faults = true;
    snap.faults = faults->stats();
  }
  devices_.push_back(std::move(snap));
}

std::string BenchReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("name", std::string_view(name_));
  w.key("runs").begin_array();
  for (const auto& [label, result] : runs_) {
    w.begin_object();
    w.kv("label", std::string_view(label));
    w.key("result");
    run_result_json(w, result);
    w.end_object();
  }
  w.end_array();
  // Multi-tenant runs; the section only exists when a mix was recorded,
  // keeping single-tenant documents byte-identical to earlier versions.
  if (!mixes_.empty()) {
    w.key("mix_runs").begin_array();
    for (const auto& [label, mix] : mixes_) {
      w.begin_object();
      w.kv("label", std::string_view(label));
      w.key("result");
      mix_result_json(w, mix);
      w.end_object();
    }
    w.end_array();
  }
  w.key("devices").begin_array();
  for (const auto& d : devices_) {
    // Re-serialize from the stored snapshot via the shared helpers by
    // building a temporary view. Stage histograms and busy vectors were
    // copied at snapshot time, so the bed may already be destroyed.
    w.begin_object();
    w.kv("name", std::string_view(d.name));
    if (d.has_ftl) {
      w.key("ftl").begin_object();
      w.kv("host_read_ops", d.ftl.host_read_ops);
      w.kv("host_write_ops", d.ftl.host_write_ops);
      w.kv("host_bytes_read", d.ftl.host_bytes_read);
      w.kv("host_bytes_written", d.ftl.host_bytes_written);
      w.kv("gc_runs", d.ftl.gc_runs);
      w.kv("gc_foreground_runs", d.ftl.gc_foreground_runs);
      w.kv("gc_migrated_bytes", d.ftl.gc_migrated_bytes);
      w.kv("gc_migrated_units", d.ftl.gc_migrated_units);
      w.kv("rmw_ops", d.ftl.rmw_ops);
      w.kv("flash_bytes_written", d.ftl.flash_bytes_written);
      w.kv("waf", d.ftl.waf());
      if (d.ftl.any_fault_activity()) {
        w.kv("read_media_errors", d.ftl.read_media_errors);
        w.kv("program_failures", d.ftl.program_failures);
        w.kv("erase_failures", d.ftl.erase_failures);
        w.kv("grown_bad_blocks", d.ftl.grown_bad_blocks);
        w.kv("remapped_units", d.ftl.remapped_units);
        w.kv("reprogrammed_pages", d.ftl.reprogrammed_pages);
        w.kv("busy_rejections", d.ftl.busy_rejections);
        w.kv("op_timeouts", d.ftl.op_timeouts);
      }
      w.end_object();
    }
    if (d.has_flash) {
      w.key("flash").begin_object();
      w.key("counters").begin_object();
      w.kv("page_reads", d.flash_stats.page_reads);
      w.kv("page_programs", d.flash_stats.page_programs);
      w.kv("block_erases", d.flash_stats.block_erases);
      w.kv("read_retries", d.flash_stats.read_retries);
      w.kv("bytes_read", d.flash_stats.bytes_read);
      w.kv("bytes_programmed", d.flash_stats.bytes_programmed);
      w.end_object();
      w.key("stages").begin_object();
      w.key("read");
      stage_breakdown_json(w, d.read_stages);
      w.key("program");
      stage_breakdown_json(w, d.program_stages);
      w.key("erase");
      stage_breakdown_json(w, d.erase_stages);
      w.end_object();
      w.key("die_busy_ns").begin_array();
      for (u64 b : d.die_busy_ns) w.value(b);
      w.end_array();
      w.key("channel_busy_ns").begin_array();
      for (u64 b : d.channel_busy_ns) w.value(b);
      w.end_array();
      w.end_object();
    }
    if (d.has_faults) {
      w.key("faults").begin_object();
      w.kv("read_uncorrectable", d.faults.read_uncorrectable);
      w.kv("program_fails", d.faults.program_fails);
      w.kv("erase_fails", d.faults.erase_fails);
      w.kv("stalls", d.faults.stalls);
      w.kv("injected_retry_rounds", d.faults.injected_retry_rounds);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string BenchReport::save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << to_json() << "\n";
  return out ? path : "";
}

}  // namespace kvsim::harness
