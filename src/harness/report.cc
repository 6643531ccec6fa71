#include "harness/report.h"

#include <filesystem>
#include <fstream>

#include "flash/controller.h"

namespace kvsim::harness {

namespace {

/// A counter visitor that writes each counter as a "name": value pair.
auto counter_kv(JsonWriter& w) {
  return [&w](const char* name, u64 v) { w.kv(name, v); };
}

template <typename T>
void counters_json(JsonWriter& w, const T& s) {
  T::visit(counter_kv(w), s);
}

/// `s`'s counters as the object `key`.
template <typename T>
void counter_block(JsonWriter& w, const char* key, const T& s) {
  w.key(key).begin_object();
  counters_json(w, s);
  w.end_object();
}

/// FtlStats' counters; the fault & recovery group only when it moved.
void ftl_counters_json(JsonWriter& w, const ssd::FtlStats& s) {
  ssd::FtlStats::visit_work(counter_kv(w), s);
  if (s.any_fault_activity()) ssd::FtlStats::visit_faults(counter_kv(w), s);
}

}  // namespace

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
    ftl_counters_json(w, s.ftl);
    counters_json(w, s.flash);
    counters_json(w, s.extras);
    w.kv("write_bw_bytes_per_sec", s.write_bw_bytes_per_sec());
    w.kv("waf", s.ftl.waf());
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
  // Blocks that exist only when they have something to say: a fault
  // run's categorized errors, host retries, open-loop overload, a cut.
  if (r.errors.total() != 0) counter_block(w, "error_breakdown", r.errors);
  if (r.host_retries != 0) w.kv("host_retries", r.host_retries);
  if (r.overload_activity())
    counter_block<OverloadCounters>(w, "overload", r);
  if (r.crashed || r.recovery.any())
    counter_block(w, "recovery", r.recovery);
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
    counters_json(w, q.stats);
    w.end_object();
  }
  w.end_array();
  w.kv("arbitration_rounds", m.arbitration_rounds);
  w.kv("urgent_fetches", m.urgent_fetches);
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
      ftl_counters_json(w, d.ftl);
      w.kv("waf", d.ftl.waf());
      w.end_object();
    }
    if (d.has_flash) {
      w.key("flash").begin_object();
      counter_block(w, "counters", d.flash_stats);
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
    if (d.has_faults) counter_block(w, "faults", d.faults);
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
