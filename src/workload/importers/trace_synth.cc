#include "workload/importers/trace_synth.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace kvsim::wl {

namespace {

constexpr size_t kReservoirSize = 1024;
constexpr double kThetaMin = 0.05;  // below this, skew ~ uniform
constexpr double kThetaMax = 0.99;  // generator requires theta != 1

/// Least-squares slope of log(freq) vs log(rank) over descending
/// frequencies — the standard Zipf-plot fit. Returns kThetaMin when the
/// head is too small or degenerate (all keys equally popular).
double fit_theta(std::vector<u64>& freqs) {
  if (freqs.size() < 2) return kThetaMin;
  std::sort(freqs.begin(), freqs.end(), std::greater<>());
  const size_t n = freqs.size();
  double sx = 0, sy = 0;
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = std::log((double)(i + 1));
    ys[i] = std::log((double)freqs[i]);
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / (double)n, my = sy / (double)n;
  double cov = 0, var = 0;
  for (size_t i = 0; i < n; ++i) {
    cov += (xs[i] - mx) * (ys[i] - my);
    var += (xs[i] - mx) * (xs[i] - mx);
  }
  if (var <= 0) return kThetaMin;
  const double theta = -cov / var;  // freq ~ rank^-theta
  return std::min(kThetaMax, std::max(kThetaMin, theta));
}

}  // namespace

TraceProfile TraceProfile::fit(KvtReader& reader, u64 head_ops) {
  TraceProfile p;
  std::unordered_map<u64, u64> key_freq;
  u64 counts[5] = {0, 0, 0, 0, 0};  // insert/update/read/scan/delete
  u64 scan_sum = 0, scan_ops = 0, max_key = 0;
  Rng reservoir_rng(0x7ace5a3bu);  // fixed seed: fit is deterministic
  TraceOp rec;
  while ((head_ops == 0 || p.ops_fitted < head_ops) && reader.next(rec)) {
    ++p.ops_fitted;
    switch (rec.type) {
      case OpType::kInsert: ++counts[0]; break;
      case OpType::kUpdate: ++counts[1]; break;
      case OpType::kRead: ++counts[2]; break;
      case OpType::kScan: ++counts[3]; break;
      default: ++counts[4]; break;  // delete / exist -> remainder bucket
    }
    ++key_freq[rec.key_id];
    if (rec.key_id > max_key) max_key = rec.key_id;
    if (rec.type == OpType::kScan) {
      scan_sum += rec.scan_length;
      ++scan_ops;
    }
    // Vitter's reservoir: uniform sample of value sizes at bounded memory.
    if (p.value_sample.size() < kReservoirSize) {
      p.value_sample.push_back(rec.value_bytes);
    } else {
      const u64 j = reservoir_rng.below(p.ops_fitted);
      if (j < kReservoirSize) p.value_sample[(size_t)j] = rec.value_bytes;
    }
  }
  if (p.ops_fitted == 0) return p;
  const double total = (double)p.ops_fitted;
  p.mix.insert = (double)counts[0] / total;
  p.mix.update = (double)counts[1] / total;
  p.mix.read = (double)counts[2] / total;
  p.mix.scan = (double)counts[3] / total;
  p.key_space = max_key + 1;
  std::vector<u64> freqs;
  freqs.reserve(key_freq.size());
  for (const auto& [id, f] : key_freq) freqs.push_back(f);
  p.zipf_theta = fit_theta(freqs);
  p.scan_length = scan_ops ? (u32)(scan_sum / scan_ops) : 0;
  return p;
}

SynthFromTraceOpSource::SynthFromTraceOpSource(const TraceProfile& profile,
                                               u64 num_ops, u64 seed)
    : profile_(profile),
      num_ops_(num_ops),
      chooser_(Pattern::kZipfian, profile.key_space, seed,
               profile.zipf_theta),
      type_rng_(seed ^ 0xabcdef0123456789ull),
      size_rng_(seed ^ 0x5151515151515151ull) {
  if (!profile_.ok())
    throw std::invalid_argument(
        "SynthFromTraceOpSource: profile fitted zero ops");
  if (num_ops_ == 0)
    throw std::invalid_argument("SynthFromTraceOpSource: num_ops == 0");
  chooser_.set_total_ops(num_ops_);
}

void SynthFromTraceOpSource::reset(u64 seed) {
  chooser_ = KeyChooser(Pattern::kZipfian, profile_.key_space, seed,
                        profile_.zipf_theta);
  chooser_.set_total_ops(num_ops_);
  type_rng_.reseed(seed ^ 0xabcdef0123456789ull);
  size_rng_.reseed(seed ^ 0x5151515151515151ull);
  generated_ = 0;
}

bool SynthFromTraceOpSource::next(Op& out) {
  if (generated_ >= num_ops_) return false;
  ++generated_;
  const double r = type_rng_.uniform();
  const OpMix& m = profile_.mix;
  OpType t;
  if (r < m.insert) {
    t = OpType::kInsert;
  } else if (r < m.insert + m.update) {
    t = OpType::kUpdate;
  } else if (r < m.insert + m.update + m.read) {
    t = OpType::kRead;
  } else if (r < m.insert + m.update + m.read + m.scan) {
    t = OpType::kScan;
  } else {
    t = OpType::kDelete;
  }
  // Empirical size draw: uniform over the fitted reservoir sample.
  const u32 value =
      profile_.value_sample[(size_t)size_rng_.below(
          profile_.value_sample.size())];
  out = Op{t, chooser_.next(), value,
           t == OpType::kScan ? profile_.scan_length : 0};
  return true;
}

OpSourceFactory synth_from_trace(const std::string& kvt_path, u64 num_ops,
                                 u64 seed, u64 head_ops) {
  KvtReader reader(kvt_path);
  const TraceProfile profile = TraceProfile::fit(reader, head_ops);
  if (!profile.ok())
    throw std::invalid_argument("synth_from_trace: no records in " +
                                kvt_path);
  return [profile, num_ops, seed] {
    return std::make_unique<SynthFromTraceOpSource>(profile, num_ops, seed);
  };
}

}  // namespace kvsim::wl
