#include "workload/importers/msr_cambridge.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace kvsim::wl {

namespace {

/// Parse a non-negative decimal field. False on empty/garbage/overflow.
bool parse_u64(const std::string& s, u64& out) {
  if (s.empty()) return false;
  u64 v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (u64)-1 / 10) return false;
    v = v * 10 + (u64)(c - '0');
  }
  out = v;
  return true;
}

std::string trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

MsrImportStats import_msr_cambridge(std::istream& csv, KvtWriter& out,
                                    const MsrImportOptions& opts) {
  MsrImportStats st;
  const u64 block = opts.block_bytes ? opts.block_bytes : 4 * KiB;
  std::string line;
  while (std::getline(csv, line)) {
    if (trim(line).empty()) continue;
    ++st.lines;
    // Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
    std::string field[7];
    std::stringstream row(line);
    int n = 0;
    while (n < 7 && std::getline(row, field[n], ',')) ++n;
    u64 disk = 0, offset = 0, size = 0;
    const std::string type = trim(field[3]);
    if (n < 6 || !parse_u64(trim(field[2]), disk) ||
        !parse_u64(trim(field[4]), offset) ||
        !parse_u64(trim(field[5]), size) ||
        (type != "Read" && type != "Write")) {
      ++st.malformed;
      continue;
    }
    const bool is_read = type == "Read";
    ++st.requests;
    (is_read ? st.reads : st.writes)++;
    const u32 tenant = (u32)disk;
    if (tenant > st.max_tenant) st.max_tenant = tenant;
    // Zero-byte requests still touch their start block.
    const u64 first = offset / block;
    const u64 last = size ? (offset + size - 1) / block : first;
    for (u64 b = first; b <= last; ++b) {
      out.add(TraceOp{is_read ? OpType::kRead : OpType::kUpdate, b,
                      (u32)std::min<u64>(block, 0xffffffffull), 0, tenant});
      ++st.records;
      if (b > st.max_key) st.max_key = b;
    }
    if (opts.max_ops && st.records >= opts.max_ops) break;
  }
  return st;
}

bool import_msr_cambridge_file(const std::string& csv_path,
                               const std::string& kvt_path,
                               MsrImportStats* stats,
                               const MsrImportOptions& opts) {
  std::ifstream csv(csv_path);
  if (!csv.is_open()) return false;
  KvtWriter out(kvt_path);
  if (!out.ok()) return false;
  const MsrImportStats st = import_msr_cambridge(csv, out, opts);
  if (stats) *stats = st;
  return out.finish();
}

}  // namespace kvsim::wl
