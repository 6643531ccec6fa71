// YCSB-style workload presets (the paper's stated future work: "we plan
// to explore KV-SSD performance behavior under real-world workloads and
// benchmarks, such as YCSB").
//
// Implements the six core YCSB workloads as WorkloadSpec presets over
// this repository's op-mix/pattern machinery, including YCSB's "latest"
// request distribution (Pattern::kLatest: zipfian over recency, skewed
// toward recently-inserted keys), which the paper's own figures do not
// use.
#pragma once

#include "workload/workload.h"

namespace kvsim::wl {

enum class YcsbWorkload {
  kA,  ///< update heavy: 50% reads, 50% updates, zipfian
  kB,  ///< read mostly: 95% reads, 5% updates, zipfian
  kC,  ///< read only: 100% reads, zipfian
  kD,  ///< read latest: 95% reads, 5% inserts, latest distribution
  kE,  ///< short ranges: 95% scans, 5% inserts (scan -> iterator reads)
  kF,  ///< read-modify-write: 50% reads, 50% RMW, zipfian
};

const char* to_string(YcsbWorkload w);

/// Field layout of a YCSB record: 10 fields x 100 B by default.
struct YcsbRecordConfig {
  u32 fields = 10;
  u32 field_bytes = 100;
  u32 key_bytes = 23;  // "user" + 19-digit hash, YCSB's default shape
  [[nodiscard]] u32 value_bytes() const { return fields * field_bytes; }
};

/// Build the WorkloadSpec for a core workload over `record_count` records.
/// Workload D uses Pattern::kLatest; workload E's scans are
/// approximated as `scan_length` consecutive point reads, which is how a
/// KV-SSD iterator would serve them.
WorkloadSpec ycsb_spec(YcsbWorkload w, u64 record_count, u64 num_ops,
                       const YcsbRecordConfig& rec = {}, u64 seed = 42);

}  // namespace kvsim::wl
