// KVBench-equivalent workload generation (Sec. III).
//
// Generates streams of KV operations with configurable key/value sizes,
// op mixes, and the paper's four access patterns: sequential, uniform
// random, Zipfian, and the footnote-2 "sliding window" pseudo-random
// pattern used in Fig. 6c (a small window moves across the key space;
// keys are drawn uniformly from inside it).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/inline_key.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace kvsim::wl {

enum class Pattern {
  kSequential,
  kUniform,
  kZipfian,
  kSlidingWindow,
  /// YCSB "latest": zipfian over recency, hottest at the insert frontier.
  kLatest,
};

const char* to_string(Pattern p);

enum class OpType { kInsert, kUpdate, kRead, kScan, kDelete, kExist };

/// Render key id `id` as a fixed-width printable key of exactly
/// `key_bytes` bytes (>= 4). Layout: "k" + zero-padded decimal id; ids
/// that overflow the digit budget wrap (documented: key spaces in the
/// experiments stay well below the budget).
std::string make_key(u64 id, u32 key_bytes);

/// Write make_key(id, key_bytes) into `out`, which ends up holding
/// exactly the key; it allocates only for a key past InlineKey's inline
/// size.
void make_key(u64 id, u32 key_bytes, InlineKey& out);

/// Deterministic value fingerprint for (key id, version).
u64 value_fingerprint(u64 id, u64 version);

/// Chooses key ids in [0, key_space) according to a Pattern.
class KeyChooser {
 public:
  KVSIM_THREAD_CONFINED;
  KeyChooser(Pattern p, u64 key_space, u64 seed, double zipf_theta = 0.99,
             u64 window = 0);

  u64 next();
  [[nodiscard]] Pattern pattern() const { return pattern_; }
  [[nodiscard]] u64 key_space() const { return space_; }
  /// Grow/shrink the addressed space (YCSB-D's moving insert frontier).
  void set_space(u64 space) { space_ = space ? space : 1; }

 private:
  Pattern pattern_;
  u64 space_;
  Rng rng_;
  u64 cursor_ = 0;  // sequential position / op counter
  u64 total_hint_;  // ops expected (for window sweep pacing)
  double zipf_theta_;
  u64 window_;
  std::unique_ptr<ZipfGenerator> zipf_;

 public:
  /// Sliding-window pacing needs to know how many draws will be made so
  /// the window sweeps the whole space exactly once.
  void set_total_ops(u64 n) { total_hint_ = n ? n : 1; }
};

struct OpMix {
  double insert = 0.0;
  double update = 0.0;
  double read = 0.0;
  double scan = 0.0;
  // deletes take the remainder

  static OpMix insert_only() { return {1, 0, 0, 0}; }
  static OpMix update_only() { return {0, 1, 0, 0}; }
  static OpMix read_only() { return {0, 0, 1, 0}; }
};

/// Value-size distributions (KVBench generates variable-length values;
/// the Facebook preset follows the 57-154 B KVP sizes the paper cites
/// from Cao et al. [14]).
enum class ValueDist {
  kFixed,     ///< always value_bytes
  kUniform,   ///< uniform in [value_min_bytes, value_bytes]
  kFacebook,  ///< heavy-tailed around ~100 B (Pareto-like, capped)
};

/// How a tenant's ops arrive at the host (docs/API.md "Overload & SLOs").
///
/// The default, kClosedLoop, is the legacy model: a fixed window of
/// `queue_depth` ops where every completion immediately issues the next —
/// offered load can never exceed service capacity. The open-loop kinds
/// instead inject ops at scheduled timestamps regardless of completions,
/// which is the only way to offer *more* load than the device absorbs:
/// at most `max_inflight` ops are dispatched concurrently, and arrivals
/// past that window park in an unbounded host backlog whose growth
/// (RunResult::arrival_overflows / backlog_peak) is the overload signal.
/// Latency is measured from the scheduled *arrival*, so host queueing
/// under saturation shows up in the tail exactly as a client would see it.
enum class ArrivalKind {
  kClosedLoop,  ///< legacy fixed-QD closed loop (the exact pre-PR path)
  kFixedRate,   ///< deterministic arrivals every 1e9/rate ns
  kPoisson,     ///< exponential inter-arrival gaps at `rate_ops_per_sec`
  kBursty,      ///< on/off phases: `burst_rate` during on, `rate` during off
};

const char* to_string(ArrivalKind k);

struct ArrivalSchedule {
  ArrivalKind kind = ArrivalKind::kClosedLoop;
  /// Steady arrival rate (kFixedRate / kPoisson); off-phase rate for
  /// kBursty (0 = silent between bursts).
  double rate_ops_per_sec = 0.0;
  /// On-phase arrival rate (kBursty only).
  double burst_rate_ops_per_sec = 0.0;
  /// Burst phase durations (kBursty only): arrivals alternate
  /// `on_ns` of burst-rate traffic with `off_ns` of off-rate traffic.
  TimeNs on_ns = 0;
  TimeNs off_ns = 0;
  /// Bounded dispatch window: ops in flight at the stack concurrently.
  /// Arrivals beyond it park in the host backlog (the overload signal).
  u32 max_inflight = 64;

  [[nodiscard]] bool open_loop() const {
    return kind != ArrivalKind::kClosedLoop;
  }

  /// Reject degenerate schedules (zero/negative/NaN rates, empty burst
  /// phases, a zero dispatch window) with std::invalid_argument — before
  /// any RNG machinery is built, like WorkloadSpec::validate().
  void validate() const;
};

struct WorkloadSpec {
  u64 num_ops = 100'000;
  u64 key_space = 100'000;  ///< distinct key ids addressed
  u32 key_bytes = 16;
  u32 value_bytes = 4 * KiB;
  ValueDist value_dist = ValueDist::kFixed;
  u32 value_min_bytes = 1;  ///< lower bound for kUniform
  Pattern pattern = Pattern::kUniform;
  double zipf_theta = 0.99;
  u64 window = 0;  ///< sliding-window size (0 = key_space / 100)
  OpMix mix = OpMix::insert_only();
  u32 queue_depth = 64;
  u64 seed = 42;
  /// YCSB-D style: inserts append fresh ids past key_space, and
  /// non-insert ops draw from the grown frontier.
  bool inserts_extend_space = false;
  /// Scan ops read this many consecutive keys (YCSB-E).
  u32 scan_length = 16;
  /// Load-phase semantics: inserts visit each key id exactly once, in an
  /// order given by `pattern` (sequential, or a shuffled permutation for
  /// random/zipf orders) — KVBench-style population.
  bool distinct_inserts = false;
  /// How ops arrive. Default (closed loop): each completion issues the
  /// next op, up to queue_depth in flight; open-loop kinds decouple
  /// arrivals from completions (see ArrivalKind).
  ArrivalSchedule arrival;

  /// Reject nonsense specs that would otherwise silently generate
  /// degenerate streams (zero ops, zero-width keys, non-positive zipf
  /// skew, an empty value range, a scan mix with scan_length == 0, or
  /// mix fractions outside [0, 1]). Throws std::invalid_argument; called
  /// by every synthetic OpSource construction.
  void validate() const;
};

class OpSource;

/// Builds a fresh OpSource. Factories are what cross API boundaries
/// (TenantSpec, run_workload overloads, sweep cells): they are copyable
/// plain data, while the source itself is thread-confined machinery that
/// must be constructed where it is consumed. A factory must be callable
/// any number of times and return an equivalent (same-stream) source on
/// each call.
using OpSourceFactory = std::function<std::unique_ptr<OpSource>()>;

/// One tenant's slice of a multi-tenant workload mix: a full WorkloadSpec
/// plus the serving-shape knobs the device front-end needs — the NVMe
/// submission queue the tenant's commands post to, the WRR arbitration
/// weight of that queue, and the namespace (isolated keyspace) the
/// tenant's keys live in. The paper's single-stream experiments are the
/// one-tenant special case (TenantMix::single).
struct TenantSpec {
  std::string name;  ///< telemetry label; defaulted to "t<index>" by run_mix
  WorkloadSpec spec;
  u32 weight = 1;  ///< WRR weight of this tenant's queue
  u32 queue = 0;   ///< NVMe submission queue the tenant posts to
  u8 nsid = 0;     ///< namespace: fully isolated keyspace (0 = default)
  /// Where this tenant's ops come from. Empty (the default) means
  /// "synthesize from `spec`" — the exact pre-OpSource behavior. When
  /// set (e.g. trace replay), the runner draws ops from the factory's
  /// source instead and `spec` provides only the serving shape:
  /// key_bytes, key_space, and queue_depth. spec.num_ops is ignored —
  /// the source decides when the stream ends.
  OpSourceFactory source;
  /// Post this tenant's queue to the NVMe urgent class: strict-priority
  /// SQ fetch ahead of the WRR rounds, starvation-bounded by
  /// NvmeConfig::urgent_credit_cap (see TenantMix::urgent_queues()).
  bool urgent = false;
};

/// A weighted mix of tenant workloads, interleaved deterministically by
/// the runner (harness::run_mix): each tenant runs a closed loop at its
/// own spec.queue_depth, and initial issuance round-robins one op per
/// tenant in declaration order.
struct TenantMix {
  std::vector<TenantSpec> tenants;

  /// Back-compat wrapper: one tenant on queue 0, namespace 0, weight 1 —
  /// the exact pre-multi-queue run shape.
  static TenantMix single(const WorkloadSpec& spec) {
    TenantMix m;
    m.tenants.push_back(TenantSpec{.name = "", .spec = spec});
    return m;
  }

  /// Largest queue id any tenant posts to (device config needs
  /// num_queues > this).
  [[nodiscard]] u32 max_queue() const {
    u32 q = 0;
    for (const TenantSpec& t : tenants) q = t.queue > q ? t.queue : q;
    return q;
  }

  /// Queue ids flagged urgent by any tenant (deduplicated, ascending) —
  /// ready to assign to NvmeConfig::urgent_queues.
  [[nodiscard]] std::vector<u32> urgent_queues() const {
    std::vector<u32> qs;
    for (const TenantSpec& t : tenants) {
      if (!t.urgent) continue;
      bool seen = false;
      for (u32 q : qs) seen = seen || q == t.queue;
      if (!seen) qs.push_back(t.queue);
    }
    std::sort(qs.begin(), qs.end());
    return qs;
  }
};

/// One generated operation.
struct Op {
  OpType type;
  u64 key_id;
  u32 value_bytes;
  u32 scan_length = 0;  ///< set for kScan
};

/// A stream of operations, wherever they come from. The runner is the
/// consumer: it calls next() until the source runs dry, so one interface
/// drives synthetic generation (SyntheticOpSource), `.kvt` trace replay
/// (TraceOpSource, workload/trace.h), and trace-fitted synthesis
/// (SynthFromTraceOpSource, workload/importers/trace_synth.h).
///
/// Contract: next() fills `out` and returns true, or returns false at
/// end-of-stream (and stays false). generated() counts ops handed out so
/// far. reset(seed) restarts the stream from op 0 — a synthetic source
/// re-derives every RNG from `seed` (reset(original seed) reproduces the
/// original stream exactly), a replaying source rewinds and ignores the
/// seed. Sources are thread-confined and move-only; pass an
/// OpSourceFactory across API boundaries instead of a source.
class OpSource {
 public:
  KVSIM_THREAD_CONFINED;
  OpSource() = default;
  OpSource(const OpSource&) = delete;
  OpSource& operator=(const OpSource&) = delete;
  virtual ~OpSource() = default;

  virtual bool next(Op& out) = 0;
  [[nodiscard]] virtual u64 generated() const = 0;
  virtual void reset(u64 seed) = 0;
};

/// Streams `spec.num_ops` generated operations (the KVBench-equivalent
/// generator). Construction validates the spec.
class SyntheticOpSource final : public OpSource {
 public:
  KVSIM_THREAD_CONFINED;
  explicit SyntheticOpSource(const WorkloadSpec& spec);
  bool next(Op& out) override;
  [[nodiscard]] u64 generated() const override { return generated_; }
  void reset(u64 seed) override;
  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

 private:
  u64 choose_id(OpType type);
  u32 choose_value_bytes();

  WorkloadSpec spec_;
  KeyChooser chooser_;
  Rng type_rng_;
  Rng size_rng_;
  Permutation insert_perm_;
  u64 insert_cursor_ = 0;
  u64 generated_ = 0;
  u64 frontier_;  ///< next fresh key id (inserts_extend_space mode)
};

/// Deterministic inter-arrival-gap generator for an open-loop schedule.
/// Thread-confined machinery, like OpSource: the runner builds one per
/// open-loop tenant inside the cell that consumes it; the copyable
/// ArrivalSchedule is what crosses API boundaries. Construction
/// validates the schedule. All randomness derives from `seed` via the
/// shared kvsim::Rng, so a given (schedule, seed) pair replays the exact
/// arrival timeline — the open-loop determinism tests depend on it.
class ArrivalGen {
 public:
  KVSIM_THREAD_CONFINED;
  ArrivalGen(const ArrivalSchedule& sched, u64 seed);

  /// Nanoseconds between the previous arrival and the next one (>= 1).
  /// For kBursty the generator tracks its absolute position on the on/off
  /// phase timeline, so rate changes land at phase boundaries regardless
  /// of where the previous arrival fell.
  TimeNs next_gap();

  [[nodiscard]] const ArrivalSchedule& schedule() const { return sched_; }

 private:
  /// Exponential gap at `rate` ops/s (memoryless; redrawn at phase cuts).
  TimeNs exp_gap(double rate);

  ArrivalSchedule sched_;
  Rng rng_;
  TimeNs phase_pos_ = 0;  ///< absolute position on the bursty phase clock
};

/// Factory for the synthetic generator (the default op source).
OpSourceFactory synthetic_source(const WorkloadSpec& spec);

}  // namespace kvsim::wl
