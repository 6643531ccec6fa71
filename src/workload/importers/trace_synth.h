// Distribution-fitting trace synthesizer.
//
// Real traces are finite; experiments often are not. TraceProfile reads
// the head of a `.kvt` trace and fits the distributions that matter to
// the beds — op-type mix, key-popularity skew (zipf theta via log-log
// rank-frequency regression), addressed key space, an empirical
// value-size sample, and scan length. SynthFromTraceOpSource then
// generates an arbitrarily long synthetic continuation drawn from those
// fitted distributions: same shape as the trace, any length, fully
// seeded and deterministic.
#pragma once

#include <vector>

#include "workload/trace.h"

namespace kvsim::wl {

/// Fitted statistics of a trace head. Plain copyable data — safe to
/// capture in an OpSourceFactory.
struct TraceProfile {
  u64 ops_fitted = 0;  ///< records the fit consumed (0 = fit failed/empty)
  OpMix mix;           ///< fitted op-type fractions (delete = remainder)
  u64 key_space = 1;   ///< max key id seen + 1
  /// Zipf skew from log-log rank-frequency regression over the head's
  /// distinct keys, clamped to [0.05, 0.99] (the generator's valid
  /// range; 0.05 is indistinguishable from uniform).
  double zipf_theta = 0.05;
  /// Reservoir sample of observed value sizes (empirical size
  /// distribution; synthesis draws uniformly from it).
  std::vector<u32> value_sample;
  u32 scan_length = 0;  ///< mean scan length among scan ops (0 if none)

  /// Fit from `reader`'s current position, consuming at most `head_ops`
  /// records (0 = the whole stream). The reader is left where fitting
  /// stopped; rewind() it to replay afterwards.
  static TraceProfile fit(KvtReader& reader, u64 head_ops = 0);

  [[nodiscard]] bool ok() const { return ops_fitted > 0; }
};

/// Generates `num_ops` synthetic operations drawn from a TraceProfile's
/// fitted distributions. Deterministic in (profile, num_ops, seed);
/// reset(seed) re-derives every stream. Throws std::invalid_argument on
/// a failed profile (ops_fitted == 0) or num_ops == 0.
class SynthFromTraceOpSource final : public OpSource {
 public:
  KVSIM_THREAD_CONFINED;
  SynthFromTraceOpSource(const TraceProfile& profile, u64 num_ops, u64 seed);

  bool next(Op& out) override;
  [[nodiscard]] u64 generated() const override { return generated_; }
  void reset(u64 seed) override;

  [[nodiscard]] const TraceProfile& profile() const { return profile_; }

 private:
  TraceProfile profile_;
  u64 num_ops_;
  KeyChooser chooser_;
  Rng type_rng_;
  Rng size_rng_;
  u64 generated_ = 0;
};

/// Factory: fit the head of `kvt_path` once (eagerly, so a bad trace
/// fails at build time), then mint sources that synthesize `num_ops`
/// continuation ops. Throws std::invalid_argument when the trace head
/// yields no records.
OpSourceFactory synth_from_trace(const std::string& kvt_path, u64 num_ops,
                                 u64 seed, u64 head_ops = 1'000'000);

}  // namespace kvsim::wl
