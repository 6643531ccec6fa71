#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/hash.h"

namespace kvsim::wl {

const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kSequential: return "Seq";
    case Pattern::kUniform: return "Rand";
    case Pattern::kZipfian: return "Zipf";
    case Pattern::kSlidingWindow: return "Window";
    case Pattern::kLatest: return "Latest";
  }
  return "?";
}

std::string make_key(u64 id, u32 key_bytes) {
  InlineKey key;
  make_key(id, key_bytes, key);
  return std::string(key.view());
}

void make_key(u64 id, u32 key_bytes, InlineKey& out) {
  key_bytes = std::max<u32>(key_bytes, 4);
  char* key = out.resize(key_bytes);
  key[0] = 'k';
  // Fill digits right-to-left, then the zero padding.
  u32 pos = key_bytes;
  for (; pos > 1 && id > 0; id /= 10) key[--pos] = (char)('0' + id % 10);
  std::fill(key + 1, key + pos, '0');
}

u64 value_fingerprint(u64 id, u64 version) {
  return mix64(id * 0x9e3779b97f4a7c15ull + version);
}

KeyChooser::KeyChooser(Pattern p, u64 key_space, u64 seed, double zipf_theta,
                       u64 window)
    : pattern_(p),
      space_(key_space ? key_space : 1),
      rng_(seed),
      total_hint_(space_),
      zipf_theta_(zipf_theta),
      window_(window ? window : std::max<u64>(1, key_space / 100)) {
  if (pattern_ == Pattern::kZipfian || pattern_ == Pattern::kLatest)
    zipf_ = std::make_unique<ZipfGenerator>(space_, zipf_theta_);
}

u64 KeyChooser::next() {
  switch (pattern_) {
    case Pattern::kSequential:
      return cursor_++ % space_;
    case Pattern::kUniform:
      return rng_.below(space_);
    case Pattern::kZipfian:
      return scatter_rank(zipf_->next(rng_), space_);
    case Pattern::kLatest: {
      // Zipf over recency: rank 0 is the newest key id (space_ - 1).
      const u64 rank = zipf_->next(rng_) % space_;
      return space_ - 1 - rank;
    }  // space_ tracks the insert frontier via set_space()
    case Pattern::kSlidingWindow: {
      // The window sweeps [0, space) once over total_hint_ draws.
      const u64 span = space_ > window_ ? space_ - window_ : 1;
      const u64 start = (u64)((double)(cursor_ % total_hint_) /
                              (double)total_hint_ * (double)span);
      ++cursor_;
      return start + rng_.below(window_ < space_ ? window_ : space_);
    }
  }
  return 0;
}

const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kClosedLoop: return "closed";
    case ArrivalKind::kFixedRate: return "fixed";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
  }
  return "?";
}

void ArrivalSchedule::validate() const {
  if (!open_loop()) return;  // closed loop ignores every rate knob
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("ArrivalSchedule: ") + what);
  };
  if (max_inflight == 0) fail("open loop requires max_inflight >= 1");
  if (kind == ArrivalKind::kBursty) {
    if (!(burst_rate_ops_per_sec > 0.0) ||
        !std::isfinite(burst_rate_ops_per_sec))
      fail("burst_rate_ops_per_sec must be finite and > 0");
    if (rate_ops_per_sec < 0.0 || !std::isfinite(rate_ops_per_sec))
      fail("off-phase rate_ops_per_sec must be finite and >= 0");
    if (on_ns == 0) fail("bursty schedule has an empty on phase");
    if (off_ns == 0) fail("bursty schedule has an empty off phase");
    return;
  }
  if (!(rate_ops_per_sec > 0.0) || !std::isfinite(rate_ops_per_sec))
    fail("rate_ops_per_sec must be finite and > 0");
}

ArrivalGen::ArrivalGen(const ArrivalSchedule& sched, u64 seed)
    : sched_(sched), rng_(seed ^ 0xa2217a1'be57a7edull) {
  sched_.validate();
}

TimeNs ArrivalGen::exp_gap(double rate) {
  // Inverse-CDF exponential draw; uniform() < 1 so the log argument
  // stays positive, and the gap is floored at 1 ns (the sim tick).
  const double u = 1.0 - rng_.uniform();
  const double gap = -std::log(u) * ((double)kSec / rate);
  return std::max<TimeNs>(1, (TimeNs)gap);
}

TimeNs ArrivalGen::next_gap() {
  switch (sched_.kind) {
    case ArrivalKind::kClosedLoop:
      return 0;  // unused: the runner never builds a gen for closed loop
    case ArrivalKind::kFixedRate:
      return std::max<TimeNs>(
          1, (TimeNs)((double)kSec / sched_.rate_ops_per_sec));
    case ArrivalKind::kPoisson:
      return exp_gap(sched_.rate_ops_per_sec);
    case ArrivalKind::kBursty: {
      // Walk the on/off phase timeline from the previous arrival. A draw
      // that crosses the current phase's boundary is cut there and
      // redrawn at the new phase's rate (exact for Poisson arrivals —
      // the exponential is memoryless). Silent phases (rate 0) are
      // skipped in one hop.
      const TimeNs cycle = sched_.on_ns + sched_.off_ns;
      const TimeNs start = phase_pos_;
      for (;;) {
        const TimeNs in_cycle = phase_pos_ % cycle;
        const bool on = in_cycle < sched_.on_ns;
        const TimeNs boundary =
            phase_pos_ + (on ? sched_.on_ns - in_cycle
                             : cycle - in_cycle);
        const double rate =
            on ? sched_.burst_rate_ops_per_sec : sched_.rate_ops_per_sec;
        if (rate <= 0.0) {
          phase_pos_ = boundary;
          continue;
        }
        const TimeNs gap = exp_gap(rate);
        if (phase_pos_ + gap >= boundary) {
          phase_pos_ = boundary;
          continue;
        }
        phase_pos_ += gap;
        return std::max<TimeNs>(1, phase_pos_ - start);
      }
    }
  }
  return 1;
}

void WorkloadSpec::validate() const {
  if (num_ops == 0)
    throw std::invalid_argument("WorkloadSpec: num_ops must be > 0");
  if (key_bytes == 0)
    throw std::invalid_argument("WorkloadSpec: key_bytes must be > 0");
  if (zipf_theta <= 0)
    throw std::invalid_argument("WorkloadSpec: zipf_theta must be > 0");
  if (value_min_bytes > value_bytes)
    throw std::invalid_argument(
        "WorkloadSpec: value_min_bytes > value_bytes (empty value range)");
  const double fracs[] = {mix.insert, mix.update, mix.read, mix.scan};
  double sum = 0;
  for (const double f : fracs) {
    if (f < 0.0 || f > 1.0)
      throw std::invalid_argument(
          "WorkloadSpec: op-mix fractions must be in [0, 1]");
    sum += f;
  }
  if (sum > 1.0 + 1e-9)
    throw std::invalid_argument("WorkloadSpec: op-mix fractions sum > 1");
  if (mix.scan > 0.0 && scan_length == 0)
    throw std::invalid_argument(
        "WorkloadSpec: scan mix requires scan_length > 0");
  arrival.validate();
}

namespace {
/// Validate before any member is built — a rejected spec must never
/// reach the RNG machinery (e.g. ZipfGenerator with theta <= 0).
const WorkloadSpec& validated(const WorkloadSpec& s) {
  s.validate();
  return s;
}
}  // namespace

SyntheticOpSource::SyntheticOpSource(const WorkloadSpec& spec)
    : spec_(validated(spec)),
      chooser_(spec.pattern, spec.key_space, spec.seed, spec.zipf_theta,
               spec.window),
      type_rng_(spec.seed ^ 0xabcdef0123456789ull),
      size_rng_(spec.seed ^ 0x5151515151515151ull),
      insert_perm_(spec.key_space ? spec.key_space : 1, spec.seed),
      frontier_(spec.key_space) {
  chooser_.set_total_ops(spec.num_ops);
}

void SyntheticOpSource::reset(u64 seed) {
  spec_.seed = seed;
  // Re-derive every random stream from the new seed and rewind all
  // cursors; reset(original seed) reproduces the original stream
  // byte-for-byte (the fidelity tests depend on it).
  chooser_ = KeyChooser(spec_.pattern, spec_.key_space, seed,
                        spec_.zipf_theta, spec_.window);
  chooser_.set_total_ops(spec_.num_ops);
  type_rng_.reseed(seed ^ 0xabcdef0123456789ull);
  size_rng_.reseed(seed ^ 0x5151515151515151ull);
  insert_perm_.reseed(seed);
  insert_cursor_ = 0;
  generated_ = 0;
  frontier_ = spec_.key_space;
}

OpSourceFactory synthetic_source(const WorkloadSpec& spec) {
  spec.validate();  // fail at factory-build time, not first use
  return [spec] { return std::make_unique<SyntheticOpSource>(spec); };
}

u64 SyntheticOpSource::choose_id(OpType type) {
  if (spec_.inserts_extend_space && type == OpType::kInsert) {
    const u64 id = frontier_++;
    chooser_.set_space(frontier_);  // recency distributions follow along
    return id;
  }
  if (spec_.distinct_inserts && type == OpType::kInsert) {
    const u64 i = insert_cursor_++ % insert_perm_.n();
    return spec_.pattern == wl::Pattern::kSequential ? i : insert_perm_(i);
  }
  return chooser_.next();
}

u32 SyntheticOpSource::choose_value_bytes() {
  switch (spec_.value_dist) {
    case ValueDist::kFixed:
      return spec_.value_bytes;
    case ValueDist::kUniform: {
      const u32 lo = std::min(spec_.value_min_bytes, spec_.value_bytes);
      return (u32)size_rng_.range(lo, spec_.value_bytes);
    }
    case ValueDist::kFacebook: {
      // Bounded Pareto (alpha ~ 1.2) anchored at 57 B: mean lands near
      // ~110 B with a tail capped at value_bytes.
      const double u = std::max(1e-9, size_rng_.uniform());
      const double v = 57.0 / std::pow(u, 1.0 / 1.2);
      return (u32)std::min<double>(v, spec_.value_bytes);
    }
  }
  return spec_.value_bytes;
}

bool SyntheticOpSource::next(Op& out) {
  if (generated_ >= spec_.num_ops) return false;
  ++generated_;
  const double r = type_rng_.uniform();
  const OpMix& m = spec_.mix;
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
  out = Op{t, choose_id(t), choose_value_bytes(),
           t == OpType::kScan ? spec_.scan_length : 0};
  return true;
}

}  // namespace kvsim::wl
