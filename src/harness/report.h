// JSON export of everything the harness and the device observe: per-op
// latency histograms, bandwidth timelines, time-sliced device counters,
// flash stage-breakdown histograms, and cumulative FTL/flash stats.
//
// BenchReport is the per-binary accumulator: each experiment run is added
// under a label, an optional device section snapshots the bed's firmware
// and flash telemetry, and save() writes results/<name>.json so every
// benchmark emits machine-readable results alongside its console tables.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "harness/runner.h"

namespace kvsim::harness {

/// Serialize one histogram: count/sum/min/max/mean, standard percentiles,
/// and the nonzero (upper_ns, count) buckets for exact reconstruction.
void histogram_json(JsonWriter& w, const LatencyHistogram& h);

/// Serialize a flash StageBreakdown (die_wait/die_service/channel_wait/
/// transfer/total histograms).
void stage_breakdown_json(JsonWriter& w, const flash::StageBreakdown& s);

/// Serialize the collector's time-sliced counters.
void timeslices_json(JsonWriter& w, const ssd::TelemetryCollector& c);

/// Serialize a full RunResult (latency histograms by op type, bandwidth
/// windows, time slices, throughput summary).
void run_result_json(JsonWriter& w, const RunResult& r);

/// Serialize a MixResult: the combined RunResult plus per-tenant results
/// (weight/queue/namespace, digest, observables) and per-queue NVMe
/// counter deltas (queue wait vs device service, arbitration stalls).
void mix_result_json(JsonWriter& w, const MixResult& m);

/// Accumulates labeled runs plus device snapshots and writes one JSON
/// document per benchmark binary.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  /// Record a finished run under `label`.
  void add_run(const std::string& label, const RunResult& r);

  /// Record a finished multi-tenant run under `label`. Mix runs land in a
  /// separate "mix_runs" section emitted only when at least one exists,
  /// so single-tenant report documents stay byte-identical.
  void add_mix(const std::string& label, const MixResult& m);

  /// Snapshot a stack's device telemetry (cumulative at call time).
  void add_device(const KvStack& stack);
  void add_device(const char* name, const ssd::FtlStats* ftl,
                  const flash::FlashController* flash,
                  const ssd::FaultInjector* faults = nullptr);

  /// The complete document.
  [[nodiscard]] std::string to_json() const;

  /// Write to `dir`/<name>.json (directories created); returns the path,
  /// or an empty string on I/O failure.
  [[nodiscard]] std::string save(const std::string& dir = "results") const;

 private:
  struct DeviceSnap {
    std::string name;
    bool has_ftl = false;
    ssd::FtlStats ftl;
    bool has_flash = false;
    flash::FlashStats flash_stats;
    flash::StageBreakdown read_stages, program_stages, erase_stages;
    std::vector<u64> die_busy_ns, channel_busy_ns;
    bool has_faults = false;
    ssd::FaultStats faults;
  };

  std::string name_;
  std::vector<std::pair<std::string, RunResult>> runs_;
  std::vector<std::pair<std::string, MixResult>> mixes_;
  std::vector<DeviceSnap> devices_;
};

}  // namespace kvsim::harness
