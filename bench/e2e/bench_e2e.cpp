// bench_e2e: one workload of the end-to-end benchmark per invocation.
//
//   bench_e2e --workload NAME [--seed N] [--smoke] [--trace] [--out-dir DIR]
//
// Untraced (the default), it sets the workload's bed up (fill, drain,
// warm-up), then runs kSegments back-to-back timed segments on it and
// reports the end-to-end metrics plus every per-layer counter. Traced
// (--trace), it runs the first timed segment twice on freshly set-up
// beds, untraced then traced, reports the per-layer host times and the
// tracing overhead, and writes the first kTraceOps ops' spans to
// DIR/trace_<workload>.json.
//
// Output: one "workload metric value unit" line per metric, then one JSON
// line with every metric, the correctness verdict and the sim digest.
// Simulated metrics depend only on (workload, seed, smoke).
// bench/e2e/README.md explains each workload and metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checked_stack.h"
#include "harness/runner.h"
#include "harness/stacks.h"

namespace e2e {

/// Heap allocations so far in this process (alloc_count.cpp).
u64 allocations();

namespace {

constexpr double kSeconds = 10;  // timed phase, in reference-host seconds
constexpr int kSegments = 10;    // host_kops is the median of this many
constexpr u64 kTraceOps = 10'000;
constexpr u32 kSmokeDivisor = 20;

enum class BedKind { kKvssd, kLsm, kHashKv };

/// One tenant of a workload: namespace (0 = none), NVMe queue and WRR
/// weight, keyspace, op mix from warm-up on, and its share of the ops. A
/// lane with share 0 is filled and then left alone. From warm-up on it
/// runs a closed loop of `depth` ops, or with a `rate` (ops/s), Poisson
/// arrivals into a dispatch window of `depth`.
struct LaneDef {
  u8 nsid;
  u32 queue;
  u32 weight;
  u64 keys;
  wl::OpMix mix;
  u32 share;
  double rate;
  u32 depth;
};

/// One benchmark workload. Why each exists is in README.md.
struct WorkloadDef {
  const char* name;
  BedKind bed;
  u32 device_gib;
  u64 index_dram_bytes;   // kvssd: KV-FTL index DRAM
  u64 block_cache_bytes;  // lsm: block cache
  std::vector<LaneDef> lanes;
  u32 value_bytes;
  u64 warm_ops;         // over all lanes
  wl::Pattern pattern;  // warm-up and timed phase
  /// Timed ops per host second on the reference host. The timed phase is
  /// sized as kSeconds * this, so simulated results never depend on host
  /// speed.
  double nominal_ops_per_sec;

  [[nodiscard]] u32 total_share() const {
    u32 sum = 0;
    for (const LaneDef& l : lanes) sum += l.share;
    return sum;
  }
};

const wl::OpMix kReadHot{0, 0.10, 0.90, 0};
const wl::OpMix kUpdateHeavy{0, 0.70, 0.30, 0};
const wl::OpMix kReadMostly{0, 0.20, 0.80, 0};

const WorkloadDef kWorkloads[] = {
    {"kv_read_hot", BedKind::kKvssd, 4, 16 * MiB, 0,
     {{0, 0, 1, 200'000, kReadHot, 1, 0, 64}}, 4 * KiB, 500'000,
     wl::Pattern::kZipfian, 500'000},
    // Warm-up: ~600K updates at 70% before timing, enough for GC's
    // write amplification to level off.
    {"kv_update_spill", BedKind::kKvssd, 2, 8 * MiB, 0,
     {{0, 0, 1, 1'200'000, kUpdateHeavy, 1, 0, 64}}, 512, 860'000,
     wl::Pattern::kUniform, 250'000},
    // A closed-loop reader over an LSM that takes a steady background
    // ingest (open loop, 2K updates/s). Reader and writer keys live in
    // separate namespaces, with an idle namespace between them wider than
    // any SST, so compactions never rewrite a file a read can reach:
    // LsmStore has two races between reads and compaction (README.md,
    // "Bugs this benchmark found"), and shared keys made ops fail at
    // random. A heavier or closed-loop writer causes write stalls or
    // compaction bursts, whose few long episodes per run made every tail
    // metric depend on the seed.
    {"lsm_mixed", BedKind::kLsm, 4, 0, 10 * MiB,
     {{1, 0, 1, 230'000, wl::OpMix::read_only(), 49, 0, 64},
      {2, 0, 1, 40'000, wl::OpMix::read_only(), 0, 0, 0},
      {3, 0, 1, 230'000, wl::OpMix::update_only(), 1, 2'000, 16}},
     1 * KiB, 1'000'000, wl::Pattern::kUniform, 200'000},
    {"hashkv_tenants_open", BedKind::kHashKv, 8, 0, 0,
     {{1, 0, 1, 50'000, kReadMostly, 1, 20'000, 16},
      {2, 1, 2, 50'000, kReadMostly, 1, 20'000, 16},
      {3, 2, 4, 50'000, kReadMostly, 1, 20'000, 16},
      {4, 3, 8, 50'000, kReadMostly, 1, 20'000, 16}},
     4 * KiB, 100'000, wl::Pattern::kZipfian, 350'000},
};

constexpr u32 kKeyBytes = 16;

struct Args {
  std::string workload;
  u64 seed = 1;
  bool smoke = false;
  bool trace = false;
  std::string out_dir = ".";
};

/// Op counts of one run, after --smoke.
struct Sizes {
  u32 key_divisor;   // keys per lane = LaneDef::keys / key_divisor
  u64 warm_ops;      // per unit of lane share
  u64 segment_ops;   // per unit of lane share

  /// Idle lanes keep their size: they only separate the others' keys.
  [[nodiscard]] u64 keys(const LaneDef& l) const {
    return l.share ? l.keys / key_divisor : l.keys;
  }
};

Sizes sizes_for(const WorkloadDef& w, const Args& a) {
  const u32 div = a.smoke ? kSmokeDivisor : 1;
  const double per_share = (double)w.total_share() * div;
  return Sizes{div, std::max<u64>(1, (u64)((double)w.warm_ops / per_share)),
               std::max<u64>(1, (u64)(w.nominal_ops_per_sec * kSeconds /
                                      kSegments / per_share))};
}

u64 derive_seed(u64 seed, u64 phase, u64 index) {
  u64 s = seed ^ (phase * 0x9e3779b97f4a7c15ull) ^ (index << 32);
  return splitmix64(s);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- host-speed probe -------------------------------------------------------
//
// Shared hosts change speed by up to ~1.9x for minutes at a time (measured
// on the reference host, a 4-vCPU Xeon VM), far more than any change the
// benchmark must detect. So host times are reported in reference-host
// seconds: each timed interval is bracketed by this probe, and scaled by
// kProbeRefMs over the mean of the two probe times. The probe is a fixed
// event loop shaped like the simulator's hot path (heap of timed events,
// byte-wise key hashing, a table probe and a branch per event); it tracks
// the simulator's slowdowns closely, unlike a plain memory walk. It lives
// here, not in src/, so simulator changes never move it. The raw rates
// are reported too (host_kops_raw, setup_s_raw, probe_ms).

constexpr double kProbeRefMs = 57.0;  // the probe on the reference host

struct ProbeEvent {
  u64 t;
  u32 kind;
  u32 key;
};
std::vector<ProbeEvent> g_probe_heap;
std::vector<u64> g_probe_table;

/// Heap bytes the probe holds for the whole process.
u64 probe_bytes() {
  return g_probe_heap.capacity() * sizeof(ProbeEvent) +
         g_probe_table.size() * sizeof(u64);
}

double probe_ms() {
  using Ev = ProbeEvent;
  std::vector<Ev>& heap = g_probe_heap;
  std::vector<u64>& table = g_probe_table;
  if (table.empty()) {  // allocated once, before any measured interval
    heap.reserve(8192);
    table.assign(1u << 18, 0);
  }
  heap.clear();
  u64 x = 0x9e3779b97f4a7c15ull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto later = [](const Ev& a, const Ev& b) { return a.t > b.t; };
  for (u32 i = 0; i < 4096; ++i) {
    heap.push_back(Ev{rnd() % 100'000, i % 4, (u32)rnd()});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  u64 acc = 0;
  const i64 t0 = host_now_ns();
  for (u32 n = 0; n < 400'000; ++n) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Ev e = heap.back();
    heap.pop_back();
    char key[16];
    u64 id = e.key;
    for (int i = 15; i >= 1; --i, id /= 10) key[i] = (char)('0' + id % 10);
    key[0] = 'k';
    u64 h = 14695981039346656037ull;
    for (const char c : key) h = (h ^ (u8)c) * 1099511628211ull;
    u64& slot = table[h & (table.size() - 1)];
    switch (e.kind) {
      case 0: slot += e.t; break;
      case 1: acc += slot; break;
      case 2: slot ^= h; break;
      default: acc ^= slot >> 3; break;
    }
    heap.push_back(Ev{e.t + 1 + rnd() % 1000, (e.kind + 1) % 4, (u32)rnd()});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const i64 t1 = host_now_ns();
  volatile u64 sink = acc;  // keep the loop's work observable
  (void)sink;
  return (double)(t1 - t0) / 1e6;
}

/// Host seconds measured between probes `before` and `after`, converted
/// to reference-host seconds.
double to_reference(double host_s, double before, double after) {
  return host_s * kProbeRefMs / ((before + after) / 2);
}

// --- the bed under test ---------------------------------------------------

ssd::SsdConfig device_gib(u32 gib) {
  // The 16 GiB standard device trimmed in blocks per plane: every size
  // keeps its 32 dies, so parallelism is the same on every workload.
  ssd::SsdConfig d = ssd::SsdConfig::standard_device();
  d.geometry.blocks_per_plane = 64 * gib / 16;
  return d;
}

struct Rig {
  std::unique_ptr<CheckedStack> stack;
  harness::KvssdBed* kv = nullptr;
  harness::LsmBed* lsm = nullptr;
  harness::HashKvBed* hkv = nullptr;
};

Rig make_rig(const WorkloadDef& w, const Sizes& sz) {
  Rig r;
  std::unique_ptr<harness::KvStack> bed;
  nvme::NvmeConfig nvme;
  u64 keys = 0;
  for (const LaneDef& l : w.lanes) {
    keys += sz.keys(l);
    nvme.num_queues = std::max(nvme.num_queues, l.queue + 1);
  }
  if (nvme.num_queues > 1) {
    nvme.queue_weights.assign(nvme.num_queues, 1);
    for (const LaneDef& l : w.lanes) nvme.queue_weights[l.queue] = l.weight;
  }
  switch (w.bed) {
    case BedKind::kKvssd: {
      harness::KvssdBedConfig c;
      c.dev = device_gib(w.device_gib);
      c.nvme = nvme;
      c.ftl.expected_keys_hint = 2 * keys;
      c.ftl.track_iterator_keys = false;
      c.ftl.index.dram_bytes = w.index_dram_bytes;
      auto b = std::make_unique<harness::KvssdBed>(c);
      r.kv = b.get();
      bed = std::move(b);
      break;
    }
    case BedKind::kLsm: {
      harness::LsmBedConfig c;
      c.dev = device_gib(w.device_gib);
      c.nvme = nvme;
      c.lsm.block_cache_bytes = w.block_cache_bytes;
      auto b = std::make_unique<harness::LsmBed>(c);
      r.lsm = b.get();
      bed = std::move(b);
      break;
    }
    case BedKind::kHashKv: {
      harness::HashKvBedConfig c;
      c.dev = device_gib(w.device_gib);
      c.nvme = nvme;
      auto b = std::make_unique<harness::HashKvBed>(c);
      r.hkv = b.get();
      bed = std::move(b);
      break;
    }
  }
  std::vector<Lane> lanes;
  for (const LaneDef& l : w.lanes)
    lanes.push_back(Lane{l.nsid, sz.keys(l), kKeyBytes, w.value_bytes});
  r.stack = std::make_unique<CheckedStack>(std::move(bed), std::move(lanes));
  return r;
}

enum class Phase { kFill, kWarm, kTimed };

/// One run_mix over the workload's lanes: every lane fills its keys
/// sequentially; lanes with a share then run their mix, `ops_per_share`
/// times their share each.
wl::TenantMix make_mix(const WorkloadDef& w, const Sizes& sz,
                       CheckedStack& stack, Phase phase, u64 ops_per_share,
                       u64 seed) {
  wl::TenantMix mix;
  for (size_t i = 0; i < w.lanes.size(); ++i) {
    const LaneDef& l = w.lanes[i];
    const bool fill = phase == Phase::kFill;
    if (!fill && l.share == 0) continue;
    wl::WorkloadSpec s;
    s.key_space = sz.keys(l);
    s.num_ops = fill ? s.key_space : ops_per_share * l.share;
    s.key_bytes = kKeyBytes;
    s.value_bytes = w.value_bytes;
    s.seed = derive_seed(seed, (u64)phase, i);
    s.pattern = fill ? wl::Pattern::kSequential : w.pattern;
    s.mix = fill ? wl::OpMix::insert_only() : l.mix;
    s.queue_depth = fill ? 64 / (u32)w.lanes.size() : l.depth;
    if (!fill && l.rate > 0) {
      s.arrival.kind = wl::ArrivalKind::kPoisson;
      s.arrival.rate_ops_per_sec = l.rate;
      s.arrival.max_inflight = l.depth;
    }
    wl::TenantSpec ts;
    ts.spec = s;
    ts.weight = l.weight;
    ts.queue = l.queue;
    ts.nsid = l.nsid;
    ts.source = stack.source(wl::synthetic_source(s), l.nsid);
    mix.tenants.push_back(std::move(ts));
  }
  return mix;
}

struct Segment {
  u64 ops = 0;
  TimeNs sim_ns = 0;
  double host_s = 0;
  double ref_s = 0;  // host_s in reference-host seconds
  u64 backlog_peak = 0;
  u64 overflows = 0;
};

Segment run_phase(const WorkloadDef& w, const Sizes& sz, Rig& r, Phase phase,
                  u64 ops_per_share, u64 seed, bool drain) {
  const wl::TenantMix mix =
      make_mix(w, sz, *r.stack, phase, ops_per_share, seed);
  u64 expected = 0;
  for (const wl::TenantSpec& t : mix.tenants) expected += t.spec.num_ops;
  const u64 drawn0 = r.stack->ops_drawn();
  const i64 t0 = host_now_ns();
  const harness::MixResult m =
      harness::run_mix(*r.stack, mix, harness::RunOptions{.drain_after = drain});
  Segment seg;
  seg.host_s = (double)(host_now_ns() - t0) / 1e9;
  seg.ops = m.combined.ops;
  seg.sim_ns = m.combined.elapsed;
  seg.backlog_peak = m.combined.backlog_peak;
  seg.overflows = m.combined.arrival_overflows;
  if (seg.ops != expected || r.stack->ops_drawn() - drawn0 != seg.ops)
    throw std::runtime_error("run completed a different number of ops "
                             "than the workload issued");
  return seg;
}

/// Build the bed, fill every key, drain, warm up. Returns host seconds.
/// The warm-up does not drain: draining empties compaction and write
/// buffer debt, and the timed phase would then start from a clean bed.
/// Setup is the same preconditioning for every --seed: where warm keys
/// sit on the dies after it persists through the timed phase, and a
/// seeded setup made tail latency depend on that draw more than on the
/// measured ops.
double setup(const WorkloadDef& w, const Sizes& sz, Rig& r) {
  constexpr u64 kSetupSeed = 1;
  const i64 t0 = host_now_ns();
  r = make_rig(w, sz);
  run_phase(w, sz, r, Phase::kFill, 0, kSetupSeed, /*drain=*/true);
  run_phase(w, sz, r, Phase::kWarm, sz.warm_ops, kSetupSeed,
            /*drain=*/false);
  return (double)(host_now_ns() - t0) / 1e9;
}

// --- counters ---------------------------------------------------------------

/// Every public counter the per-layer metrics are deltas of.
struct Snapshot {
  TimeNs sim_ns = 0;
  u64 events = 0;
  u64 allocs = 0;
  u64 host_cpu = 0;
  u64 kvapi_cpu = 0, lsm_cpu = 0, fs_cpu = 0, hashkv_cpu = 0;
  ssd::FtlStats ftl;
  u64 buffer_stalls = 0;
  flash::FlashStats flash;
  std::vector<TimeNs> die_busy;
  LatencyHistogram read_die_wait, read_channel_wait, program_die_wait;
  nvme::NvmeQueueStats nvme;  // summed over queues
  u64 index_hits = 0, index_touches = 0;
  bool index_exact = true;
  double index_hit_rate = 1.0;
  u64 read_cache_hits = 0;
  u64 lsm_cache_hits = 0, lsm_cache_lookups = 0;
  u64 compactions = 0, flushes = 0, write_stalls = 0;
};

Snapshot snapshot(Rig& r) {
  Snapshot s;
  harness::KvStack& st = *r.stack;
  s.sim_ns = st.eq().now();
  s.events = st.eq().events_processed();
  s.allocs = allocations();
  s.host_cpu = st.host_cpu_ns();
  if (const ssd::FtlStats* f = st.ftl_stats()) s.ftl = *f;
  s.buffer_stalls = st.buffer_stall_events();
  if (const flash::FlashController* fc = st.flash_ctrl()) {
    s.flash = fc->stats();
    for (u64 d = 0; d < fc->num_dies(); ++d)
      s.die_busy.push_back(fc->die_busy_ns(d));
    s.read_die_wait = fc->read_stages().die_wait;
    s.read_channel_wait = fc->read_stages().channel_wait;
    s.program_die_wait = fc->program_stages().die_wait;
  }
  if (const nvme::NvmeLink* l = st.nvme_link()) {
    for (u32 q = 0; q < l->num_queues(); ++q) {
      const nvme::NvmeQueueStats qs = l->queue_stats(q);
      s.nvme.commands += qs.commands;
      s.nvme.queue_wait_ns += qs.queue_wait_ns;
      s.nvme.service_ns += qs.service_ns;
      s.nvme.sq_full_stalls += qs.sq_full_stalls;
      s.nvme.arbitration_stalls += qs.arbitration_stalls;
    }
  }
  if (r.kv) {
    const kvftl::KvFtl& f = r.kv->ftl();
    s.kvapi_cpu = r.kv->device().host_cpu_ns();
    s.read_cache_hits = f.read_cache_hits();
    // IndexModel exposes only its lifetime hit ratio. Its touch count is
    // one per index lookup/insert/update plus one per split; with no
    // deletes that is reads that passed the Bloom filter + writes +
    // splits. A wrong count shows up as a non-integer hit count, and the
    // metric then falls back to the lifetime ratio.
    const kvftl::IndexModel& ix = f.index();
    s.index_touches = f.stats().host_read_ops - f.bloom_negative_hits() +
                      f.stats().host_write_ops + ix.splits();
    s.index_hit_rate = ix.hit_rate();
    const double hits = ix.hit_rate() * (double)s.index_touches;
    s.index_hits = (u64)std::llround(hits);
    s.index_exact = std::fabs(hits - (double)s.index_hits) < 1e-3;
  }
  if (r.lsm) {
    const lsm::LsmStore& l = r.lsm->store();
    s.lsm_cpu = l.host_cpu_ns();
    s.fs_cpu = r.lsm->fs().host_cpu_ns();
    s.lsm_cache_hits = l.block_cache_hits();
    s.lsm_cache_lookups = l.block_cache_lookups();
    s.compactions = l.compactions_run();
    s.flushes = l.flushes_run();
    s.write_stalls = l.write_stall_events();
  }
  if (r.hkv) s.hashkv_cpu = r.hkv->store().host_cpu_ns();
  return s;
}

/// p-quantile (nearest rank) of the samples recorded between two
/// snapshots of a bucketed histogram, in microseconds.
double delta_percentile_us(const LatencyHistogram& a,
                           const LatencyHistogram& b, double q) {
  const auto before = a.nonzero_buckets();
  std::vector<std::pair<TimeNs, u64>> d;
  size_t i = 0;
  u64 n = 0;
  for (const auto& [upper, count] : b.nonzero_buckets()) {
    while (i < before.size() && before[i].first < upper) ++i;
    const u64 old = i < before.size() && before[i].first == upper
                        ? before[i].second : 0;
    if (count > old) {
      d.emplace_back(upper, count - old);
      n += count - old;
    }
  }
  if (n == 0) return 0;
  const u64 rank = std::max<u64>(1, (u64)std::ceil(q * (double)n));
  u64 seen = 0;
  for (const auto& [upper, count] : d) {
    seen += count;
    if (seen >= rank) return (double)upper / 1e3;
  }
  return (double)d.back().first / 1e3;
}

/// Nearest-rank quantile of exact samples, in microseconds.
double quantile_us(std::vector<TimeNs>& v, double q) {
  if (v.empty()) return 0;
  const size_t rank = std::max<size_t>(1, (size_t)std::ceil(q * (double)v.size()));
  std::nth_element(v.begin(), v.begin() + (long)(rank - 1), v.end());
  return (double)v[rank - 1] / 1e3;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool sim;  // simulated (deterministic); enters the digest
};

double per(double x, double n) { return n > 0 ? x / n : 0; }

/// Per-layer counters over [a, b], the span of the segments in `seg`. A
/// layer the bed does not have reports 0.
void layer_metrics(const Rig& r, const Snapshot& a, const Snapshot& b,
                   const Segment& seg, std::vector<Metric>& out) {
  const double n = (double)seg.ops;
  const double kops = n / 1e3;
  auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back(Metric{name, v, unit, true});
  };
  add("sim.events_per_op", per((double)(b.events - a.events), n), "count");
  out.push_back(Metric{"harness.allocs_per_op",
                       per((double)(b.allocs - a.allocs), n), "count", false});
  add("harness.backlog_peak", (double)seg.backlog_peak, "count");
  add("harness.overflows_per_kop", per((double)seg.overflows, kops), "count");
  add("kvapi.cpu_us_per_op", per((double)(b.kvapi_cpu - a.kvapi_cpu), n) / 1e3,
      "us");
  add("lsm.cpu_us_per_op", per((double)(b.lsm_cpu - a.lsm_cpu), n) / 1e3, "us");
  add("fs.cpu_us_per_op", per((double)(b.fs_cpu - a.fs_cpu), n) / 1e3, "us");
  add("hashkv.cpu_us_per_op",
      per((double)(b.hashkv_cpu - a.hashkv_cpu), n) / 1e3, "us");
  // The block API (syscalls, NVMe submit and completion) is what the
  // bed's total host CPU leaves after the layers above it.
  const u64 upper_cpu = (b.lsm_cpu - a.lsm_cpu) + (b.fs_cpu - a.fs_cpu) +
                        (b.hashkv_cpu - a.hashkv_cpu);
  add("blockapi.cpu_us_per_op",
      r.kv ? 0
           : per((double)(b.host_cpu - a.host_cpu - upper_cpu), n) / 1e3,
      "us");

  const double cmds = (double)(b.nvme.commands - a.nvme.commands);
  add("nvme.cmds_per_op", per(cmds, n), "count");
  add("nvme.queue_wait_us_per_cmd",
      per((double)(b.nvme.queue_wait_ns - a.nvme.queue_wait_ns), cmds) / 1e3,
      "us");
  add("nvme.service_us_per_cmd",
      per((double)(b.nvme.service_ns - a.nvme.service_ns), cmds) / 1e3, "us");
  add("nvme.arb_stalls_per_kop",
      per((double)(b.nvme.arbitration_stalls - a.nvme.arbitration_stalls),
          kops),
      "count");
  add("nvme.sq_full_per_kop",
      per((double)(b.nvme.sq_full_stalls - a.nvme.sq_full_stalls), kops),
      "count");

  const double host_w =
      (double)(b.ftl.host_bytes_written - a.ftl.host_bytes_written);
  const double host_r = (double)(b.ftl.host_read_ops - a.ftl.host_read_ops);
  const bool kv = r.kv != nullptr;
  for (const char* ftl : {"kvftl", "blockftl"}) {
    const bool mine = kv == (ftl[0] == 'k');
    auto put = [&](const char* m, double v, const char* unit) {
      out.push_back(Metric{std::string(ftl) + "." + m, mine ? v : 0, unit,
                           true});
    };
    put("gc_runs_per_kop", per((double)(b.ftl.gc_runs - a.ftl.gc_runs), kops),
        "count");
    put("fg_gc_runs",
        (double)(b.ftl.gc_foreground_runs - a.ftl.gc_foreground_runs),
        "count");
    put("gc_migrated_per_host_byte",
        per((double)(b.ftl.gc_migrated_bytes - a.ftl.gc_migrated_bytes),
            host_w),
        "ratio");
    put("waf",
        per((double)(b.ftl.flash_bytes_written - a.ftl.flash_bytes_written),
            host_w),
        "ratio");
    put("buffer_stalls_per_kop",
        per((double)(b.buffer_stalls - a.buffer_stalls), kops), "count");
  }
  add("blockftl.rmw_per_kop",
      kv ? 0 : per((double)(b.ftl.rmw_ops - a.ftl.rmw_ops), kops), "count");
  double index_rate = 0;
  if (kv) {
    index_rate = a.index_exact && b.index_exact &&
                         b.index_touches > a.index_touches
                     ? per((double)(b.index_hits - a.index_hits),
                           (double)(b.index_touches - a.index_touches))
                     : b.index_hit_rate;
  }
  add("kvftl.index_hit_rate", index_rate, "ratio");
  add("kvftl.read_cache_hit_rate",
      kv ? per((double)(b.read_cache_hits - a.read_cache_hits), host_r) : 0,
      "ratio");

  add("flash.reads_per_op",
      per((double)(b.flash.page_reads - a.flash.page_reads), n), "count");
  add("flash.programs_per_op",
      per((double)(b.flash.page_programs - a.flash.page_programs), n),
      "count");
  add("flash.erases_per_kop",
      per((double)(b.flash.block_erases - a.flash.block_erases), kops),
      "count");
  double busy_sum = 0, busy_max = 0;
  for (size_t d = 0; d < b.die_busy.size(); ++d) {
    const double busy = (double)(b.die_busy[d] - a.die_busy[d]);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  const double window = (double)(b.sim_ns - a.sim_ns);
  add("flash.die_util_mean",
      per(busy_sum, window * (double)b.die_busy.size()), "ratio");
  add("flash.die_util_max", per(busy_max, window), "ratio");
  add("flash.read_die_wait_p99_us",
      delta_percentile_us(a.read_die_wait, b.read_die_wait, 0.99), "us");
  add("flash.read_channel_wait_p99_us",
      delta_percentile_us(a.read_channel_wait, b.read_channel_wait, 0.99),
      "us");
  add("flash.program_die_wait_p99_us",
      delta_percentile_us(a.program_die_wait, b.program_die_wait, 0.99), "us");

  add("lsm.cache_hit_rate",
      per((double)(b.lsm_cache_hits - a.lsm_cache_hits),
          (double)(b.lsm_cache_lookups - a.lsm_cache_lookups)),
      "ratio");
  add("lsm.compactions_per_kop",
      per((double)(b.compactions - a.compactions), kops), "count");
  add("lsm.flushes_per_kop", per((double)(b.flushes - a.flushes), kops),
      "count");
  add("lsm.write_stalls", (double)(b.write_stalls - a.write_stalls), "count");
}

u64 digest_of(const std::vector<Metric>& ms) {
  u64 h = 14695981039346656037ull;
  char buf[128];
  for (const Metric& m : ms) {
    if (!m.sim) continue;
    const int len =
        std::snprintf(buf, sizeof buf, "%s=%.17g;", m.name.c_str(), m.value);
    for (int i = 0; i < len; ++i) {
      h ^= (u8)buf[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Peak resident memory less `bench_bytes`, the benchmark's own heap (the
/// checker's rings and latency samples, the probe's tables), all of it
/// written and so resident by the time this is called.
double peak_rss_mib(u64 bench_bytes) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is KiB on Linux.
  return ((double)ru.ru_maxrss * 1024.0 - (double)bench_bytes) / (double)MiB;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if ((unsigned char)c >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

/// Failure tally over every bed a run builds.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  u64 unverified = 0;
  std::string first;

  void add(const CheckedStack& s) {
    attempted += s.ops_drawn();
    if (s.failures() && first.empty()) first = s.first_failure();
    failed += s.failures();
    unverified += s.unverified_reads();
  }
};

void emit(const WorkloadDef& w, const std::vector<Metric>& ms,
          const Tally& t) {
  const u64 digest = digest_of(ms);
  for (const Metric& m : ms)
    std::printf("%s %s %.10g %s\n", w.name, m.name.c_str(), m.value, m.unit);
  std::printf("%s sim_digest %016llx -\n", w.name, (unsigned long long)digest);
  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"unverified_reads\":%llu,"
              "\"sim_digest\":\"%016llx\",\"first_failure\":",
              w.name, t.failed == 0 ? "true" : "false",
              (unsigned long long)t.attempted, (unsigned long long)t.failed,
              (unsigned long long)t.unverified, (unsigned long long)digest);
  print_json_string(t.first);
  std::printf(",\"metrics\":{");
  for (size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"sim\":%s}",
                i ? "," : "", ms[i].name.c_str(), ms[i].value, ms[i].unit,
                ms[i].sim ? "true" : "false");
  std::printf("}}\n");
}

// --- the two run modes ------------------------------------------------------

int run_timed(const WorkloadDef& w, const Args& a) {
  const Sizes sz = sizes_for(w, a);
  Tally tally;
  Rig rig;
  std::vector<double> probes{probe_ms()};
  const double setup_raw = setup(w, sz, rig);
  probes.push_back(probe_ms());
  const double setup_s = to_reference(setup_raw, probes[0], probes[1]);

  CheckedStack& st = *rig.stack;
  st.record_latencies(sz.segment_ops * w.total_share() * kSegments);
  const Snapshot s0 = snapshot(rig);
  std::vector<double> kops, kops_raw;
  Segment total;
  for (int i = 0; i < kSegments; ++i) {
    const Segment seg =
        run_phase(w, sz, rig, Phase::kTimed, sz.segment_ops,
                  derive_seed(a.seed, 100, (u64)i),
                  /*drain=*/i == kSegments - 1);
    probes.push_back(probe_ms());
    const double ops = (double)seg.ops;
    kops_raw.push_back(ops / seg.host_s / 1e3);
    kops.push_back(ops / 1e3 /
                   to_reference(seg.host_s, probes.rbegin()[1], probes.back()));
    total.ops += seg.ops;
    total.sim_ns += seg.sim_ns;
    total.backlog_peak = std::max(total.backlog_peak, seg.backlog_peak);
    total.overflows += seg.overflows;
  }
  const Snapshot s1 = snapshot(rig);
  tally.add(st);

  const double rss_mib = peak_rss_mib(st.footprint_bytes() + probe_bytes());
  std::vector<TimeNs> lat = st.take_latencies();
  if (lat.size() != total.ops)
    throw std::runtime_error("latency samples do not match completed ops");
  const double n = (double)total.ops;
  double app_live = 0;
  for (const LaneDef& l : w.lanes)
    app_live += (double)(sz.keys(l) * (kKeyBytes + w.value_bytes));
  std::vector<Metric> ms = {
      {"host_kops", median(kops), "kops/s", false},
      {"setup_s", setup_s, "s", false},
      {"peak_rss_mib", rss_mib, "MiB", false},
      {"sim_p50_us", quantile_us(lat, 0.50), "us", true},
      {"sim_p99_us", quantile_us(lat, 0.99), "us", true},
      {"sim_p999_us", quantile_us(lat, 0.999), "us", true},
      {"sim_kops", per(n, (double)total.sim_ns) * 1e6, "kops/s", true},
      {"write_amp",
       per((double)(s1.flash.bytes_programmed - s0.flash.bytes_programmed),
           (double)st.app_bytes_stored()),
       "ratio", true},
      {"space_amp", per((double)st.device_bytes_used(), app_live), "ratio",
       true},
      {"timed_ops", n, "count", true},
      {"host_kops_raw", median(kops_raw), "kops/s", false},
      {"setup_s_raw", setup_raw, "s", false},
      {"probe_ms", median(probes), "ms", false},
  };
  layer_metrics(rig, s0, s1, total, ms);
  emit(w, ms, tally);
  return 0;
}

/// The first timed segment on a freshly set-up bed, bracketed by probes,
/// with `tracer` (may be null) attached; `out` gets its per-layer
/// counters.
Segment first_segment(const WorkloadDef& w, const Sizes& sz, u64 seed,
                      Tracer* tracer, Tally& tally, std::vector<Metric>& out) {
  Rig rig;
  setup(w, sz, rig);
  rig.stack->set_tracer(tracer);
  const double before = probe_ms();
  const Snapshot s0 = snapshot(rig);
  Segment seg = run_phase(w, sz, rig, Phase::kTimed, sz.segment_ops,
                          seed, /*drain=*/false);
  const Snapshot s1 = snapshot(rig);
  seg.ref_s = to_reference(seg.host_s, before, probe_ms());
  rig.stack->set_tracer(nullptr);
  layer_metrics(rig, s0, s1, seg, out);
  tally.add(*rig.stack);
  return seg;
}

int run_traced(const WorkloadDef& w, const Args& a) {
  const Sizes sz = sizes_for(w, a);
  const u64 seed = derive_seed(a.seed, 100, 0);
  Tally tally;
  (void)probe_ms();  // allocate its tables outside the measured windows

  // The same segment untraced and then traced, each on a fresh bed set up
  // identically; the simulation must not notice the tracer.
  std::vector<Metric> plain, ms;
  const Segment untraced = first_segment(w, sz, seed, nullptr, tally, plain);
  Tracer tracer(kTraceOps);
  const Segment seg = first_segment(w, sz, seed, &tracer, tally, ms);
  if (digest_of(ms) != digest_of(plain)) {
    ++tally.failed;
    if (tally.first.empty()) tally.first = "traced run diverged from untraced";
  }
  // Allocation counts come from the untraced segment: the tracer's own
  // buffers are not the system's.
  for (size_t i = 0; i < ms.size(); ++i)
    if (ms[i].name == "harness.allocs_per_op") ms[i].value = plain[i].value;

  // Span times in reference-host ns, like every other host time.
  const double n = (double)seg.ops;
  const double scale = seg.ref_s / seg.host_s;
  const double wall = seg.ref_s * 1e9;
  const double next = scale * (double)tracer.self_ns(Tracer::kNext);
  const double issue = scale * (double)tracer.self_ns(Tracer::kIssue);
  const double complete = scale * (double)tracer.self_ns(Tracer::kComplete);
  ms.push_back({"harness.wall_ns_per_op", wall / n, "ns", false});
  ms.push_back({"workload.next_ns_per_op", next / n, "ns", false});
  ms.push_back({"harness.issue_ns_per_op", issue / n, "ns", false});
  ms.push_back({"harness.runner_ns_per_op", complete / n, "ns", false});
  // Everything outside the three spans: event dispatch and the callbacks
  // below the stack boundary (device, FTL, flash models).
  ms.push_back({"harness.event_ns_per_op", (wall - next - issue - complete) / n,
                "ns", false});
  ms.push_back({"trace_overhead", seg.ref_s / untraced.ref_s, "ratio", false});

  const std::string path = a.out_dir + "/trace_" + w.name + ".json";
  if (!tracer.write_chrome(path))
    throw std::runtime_error("cannot write " + path);
  std::fprintf(stderr, "%s: trace of the first %llu ops in %s\n", w.name,
               (unsigned long long)kTraceOps, path.c_str());
  emit(w, ms, tally);
  return 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME [--seed N] "
               "[--smoke] [--trace] [--out-dir DIR]\n"
               "workloads:",
               msg);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out-dir" && has_value) {
      a.out_dir = argv[++i];
    } else {
      return usage(("bad argument " + arg).c_str());
    }
  }
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads)
    if (a.workload == d.name) w = &d;
  if (w == nullptr) return usage("unknown workload");
  try {
    return a.trace ? run_traced(*w, a) : run_timed(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e %s: %s\n", w->name, e.what());
    return 1;
  }
}
