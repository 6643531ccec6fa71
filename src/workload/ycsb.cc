#include "workload/ycsb.h"

namespace kvsim::wl {

const char* to_string(YcsbWorkload w) {
  switch (w) {
    case YcsbWorkload::kA: return "YCSB-A (50r/50u zipf)";
    case YcsbWorkload::kB: return "YCSB-B (95r/5u zipf)";
    case YcsbWorkload::kC: return "YCSB-C (100r zipf)";
    case YcsbWorkload::kD: return "YCSB-D (95r/5i latest)";
    case YcsbWorkload::kE: return "YCSB-E (95scan/5i)";
    case YcsbWorkload::kF: return "YCSB-F (50r/50rmw zipf)";
  }
  return "?";
}

WorkloadSpec ycsb_spec(YcsbWorkload w, u64 record_count, u64 num_ops,
                       const YcsbRecordConfig& rec, u64 seed) {
  WorkloadSpec spec;
  spec.num_ops = num_ops;
  spec.key_space = record_count;
  spec.key_bytes = rec.key_bytes;
  spec.value_bytes = rec.value_bytes();
  spec.pattern = Pattern::kZipfian;
  spec.seed = seed;
  switch (w) {
    case YcsbWorkload::kA:
      spec.mix = OpMix{0, 0.5, 0.5, 0};
      break;
    case YcsbWorkload::kB:
      spec.mix = OpMix{0, 0.05, 0.95, 0};
      break;
    case YcsbWorkload::kC:
      spec.mix = OpMix::read_only();
      break;
    case YcsbWorkload::kD:
      spec.mix = OpMix{0.05, 0, 0.95, 0};
      spec.pattern = Pattern::kLatest;
      spec.inserts_extend_space = true;
      break;
    case YcsbWorkload::kE:
      spec.mix = OpMix{0.05, 0, 0, 0.95};
      spec.inserts_extend_space = true;
      spec.scan_length = 16;
      spec.pattern = Pattern::kUniform;  // scan start keys
      break;
    case YcsbWorkload::kF:
      // Read-modify-write issues a read then an update per op; the
      // runner models it as update ops whose latency includes the read
      // (approximation: 50% reads + 50% updates with paired keys).
      spec.mix = OpMix{0, 0.5, 0.5, 0};
      break;
  }
  return spec;
}

}  // namespace kvsim::wl
