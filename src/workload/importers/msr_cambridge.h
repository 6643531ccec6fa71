// MSR-Cambridge block-trace importer.
//
// The public MSR-Cambridge traces (SNIA IOTTA: 1-week block I/O from 36
// production volumes) are CSV rows of
//
//   Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// with Type "Read"/"Write", byte Offset/Size. This importer streams rows
// into `.kvt` trace records shaped for the block-backed beds: each
// request is split at `block_bytes` granularity into one record per
// block touched, key_id = block number, Writes -> kUpdate and Reads ->
// kRead, and DiskNumber becomes the tenant lane (so a multi-volume trace
// replays as a tenant mix). Timing columns are dropped on purpose — the
// simulator supplies its own clock; what the trace contributes is the
// access sequence, its skew, and its size mixture.
#pragma once

#include <istream>
#include <string>

#include "workload/trace.h"

namespace kvsim::wl {

struct MsrImportOptions {
  /// Key granularity: one record per this many bytes of each request.
  u32 block_bytes = 4 * KiB;
  /// Cap on emitted records (0 = whole trace). A request split across
  /// blocks may finish past the cap; the cap is checked per request.
  u64 max_ops = 0;
};

struct MsrImportStats {
  u64 lines = 0;       ///< data rows seen (excluding blank lines)
  u64 malformed = 0;   ///< rows skipped: wrong arity or unparsable fields
  u64 requests = 0;    ///< well-formed I/O requests imported
  u64 reads = 0, writes = 0;
  u64 records = 0;     ///< .kvt records emitted (requests split by block)
  u64 max_key = 0;     ///< highest block number emitted
  u32 max_tenant = 0;  ///< highest tenant lane emitted
};

/// Stream `csv` into `out` (the caller finishes the writer). Returns
/// per-import counters; malformed rows are counted and skipped, never
/// fatal.
MsrImportStats import_msr_cambridge(std::istream& csv, KvtWriter& out,
                                    const MsrImportOptions& opts = {});

/// File-path convenience: opens the CSV, imports, finishes the writer.
/// Returns false when the CSV cannot be opened or trace I/O failed.
bool import_msr_cambridge_file(const std::string& csv_path,
                               const std::string& kvt_path,
                               MsrImportStats* stats = nullptr,
                               const MsrImportOptions& opts = {});

}  // namespace kvsim::wl
