// Google-benchmark microbenchmarks of the simulator's own hot paths:
// event queue throughput (batches, and the hold model's steady pending
// set), flash scheduling, index model, Bloom filter,
// SST point lookup and compaction merge, Zipf sampling, hashing,
// histogram recording. These bound how large an experiment the simulator
// can run per wall-clock second.
//
// Besides the normal google-benchmark CLI, the binary has a smoke mode:
//
//   bench_sim_micro --kvsim_json=BENCH_sim.json [--kvsim_events=N]
//
// which times the steady-state event-queue cycle directly (no benchmark
// library involved) and writes {events_per_sec, ns_per_event,
// allocs_per_event} as JSON. scripts/bench.sh compares that file against
// the committed baseline and fails CI on a large regression.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "flash/controller.h"
#include "harness/runner.h"
#include "harness/stacks.h"
#include "kvftl/bloom.h"
#include "kvftl/index_model.h"
#include "lsm/sst.h"
#include "sim/event_queue.h"
#include "workload/workload.h"

// --- counting global allocator ---------------------------------------------
// Counts every heap allocation in the process so the event-queue benchmarks
// can report allocations per event (the fast path claims zero in steady
// state). Relaxed atomics: the count only needs to be exact across the
// single-threaded measured regions.
namespace {
std::atomic<unsigned long long> g_alloc_count{0};
}  // namespace

// GCC flags free() inside a replaced operator delete as mismatched with
// the replaced operator new; malloc/free is exactly the pairing here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace kvsim;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // The queue is constructed once and reused: the benchmark measures the
  // steady-state schedule->run cycle, not slab-pool warm-up. Times are
  // scheduled relative to now() because the reused queue's clock advances.
  sim::EventQueue eq;
  u64 sink = 0;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const TimeNs base = eq.now();
    for (int i = 0; i < 1000; ++i)
      eq.schedule_at(base + (TimeNs)(1000 - i), [&sink] { ++sink; });
    eq.run();
    benchmark::DoNotOptimize(sink);
  }
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["allocs_per_event"] = benchmark::Counter(
      (double)allocs / (double)(state.iterations() * 1000));
}
BENCHMARK(BM_EventQueueScheduleRun);

/// Delays of the hold model, a power of two of them.
constexpr u32 kHoldDeltas = 1024;

// Hold model: range(0) events stay pending, and each event that runs
// schedules one successor at now() plus a delay from a fixed mix: 1 in 8
// a tie (0 ns), 1 in 8 the block FTL's 10 ms flush timer, the rest 1-100
// us (flash and firmware service times). That is the steady state the
// simulator's workloads run in; BM_EventQueueScheduleRun's batches of
// reverse-ordered events are not.
void BM_EventQueueHold(benchmark::State& state) {
  std::vector<TimeNs> deltas(kHoldDeltas);
  Rng rng(6);
  for (TimeNs& d : deltas) {
    const u64 r = rng.below(8);
    d = r == 0 ? 0 : r == 1 ? 10 * kMs : rng.range(kUs, 100 * kUs);
  }
  struct Hold {
    sim::EventQueue* eq;
    const TimeNs* deltas;
    u32* next;
    void operator()() const {
      eq->schedule_after(deltas[(*next)++ % kHoldDeltas], *this);
    }
  };
  sim::EventQueue eq;
  u32 next = 0;
  for (i64 i = 0; i < state.range(0); ++i)
    Hold{&eq, deltas.data(), &next}();
  // Warm up: a running event holds its slot while it schedules its
  // successor, so the pool needs one slot more than the pending count.
  for (i64 i = 0; i < state.range(0); ++i) eq.step();
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) eq.step();
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_event"] = benchmark::Counter(
      (double)allocs / (double)state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(256)->Arg(1024);

void BM_FlashControllerReads(benchmark::State& state) {
  flash::FlashGeometry g;
  flash::FlashTiming t;
  // The stride multiply must happen in PageId width and before the modulo;
  // `(PageId)i * 977 % total` binds as `((PageId)i * 977) % total` only
  // because casts outrank both — keep it parenthesized so the page scatter
  // survives refactoring.
  static_assert(sizeof(flash::PageId) == 8,
                "stride arithmetic below assumes 64-bit page ids");
  for (auto _ : state) {
    sim::EventQueue eq;
    flash::FlashController ctl(eq, g, t);
    for (u32 i = 0; i < 256; ++i)
      ctl.read_page(((flash::PageId)i * 977) % g.total_pages(), 4096, [] {});
    eq.run();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FlashControllerReads);

void BM_IndexModelInsert(benchmark::State& state) {
  kvftl::IndexModelConfig cfg;
  cfg.dram_bytes = (u64)state.range(0);
  kvftl::IndexModel idx(cfg);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.on_insert(rng.next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexModelInsert)->Arg(64 << 10)->Arg(16 << 20);

void BM_BloomInsertQuery(benchmark::State& state) {
  kvftl::CountingBloom bloom(100000);
  Rng rng(2);
  for (auto _ : state) {
    const u64 k = rng.next();
    bloom.insert(k);
    benchmark::DoNotOptimize(bloom.may_contain(k));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsertQuery);

/// The LSM bed's key shape: a 2-byte tenant tag on a 16-byte padded id.
std::string sst_key(u64 id) { return "ab" + wl::make_key(id, 16); }

// Point lookups in one SST of 200K keys (even ids): hits (arg 1) or
// misses (arg 0, odd ids), in random order over 64K probe keys, so most
// probes miss the CPU caches as the LSM bed's reads do.
void BM_SstFind(benchmark::State& state) {
  constexpr u64 kKeys = 200'000, kProbes = 1 << 16;
  lsm::SstBuilder b;
  for (u64 i = 0; i < kKeys; ++i)
    b.add(sst_key(2 * i), ValueDesc{1024, i}, i + 1, false);
  const auto sst = b.finish(1);
  const u64 miss = state.range(0) ? 0 : 1;
  std::vector<std::string> probes;
  std::vector<u64> hashes;
  Rng rng(5);
  for (u64 i = 0; i < kProbes; ++i) {
    probes.push_back(sst_key(2 * rng.below(kKeys) + miss));
    hashes.push_back(hash64(probes.back()));
  }
  i64 found = 0;
  u64 i = 0;
  for (auto _ : state) {
    const u64 p = i++ & (kProbes - 1);
    found += sst->find(probes[p], hashes[p]) >= 0;
  }
  if (found != (miss ? 0 : (i64)state.iterations())) std::abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SstFind)->Arg(1)->Arg(0);

// Compaction's k-way merge of k tables of 50K keys each (arg k). Table t
// holds the multiples of t + 1, so the inputs overlap and shadow each
// other; items are input entries.
void BM_SstMerge(benchmark::State& state) {
  constexpr u64 kKeys = 50'000;
  const u64 k = (u64)state.range(0);
  std::vector<std::shared_ptr<lsm::Sst>> inputs;
  for (u64 t = 0; t < k; ++t) {
    lsm::SstBuilder b;
    for (u64 i = 0; i < kKeys; ++i)
      b.add(sst_key(i * (t + 1)), ValueDesc{1024, i}, t * kKeys + i + 1,
            false);
    inputs.push_back(b.finish(t + 1));
  }
  for (auto _ : state) {
    u64 next_id = 1000;
    const auto out = lsm::merge_ssts(inputs, false, 16 * MiB, next_id);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (i64)(k * kKeys));
}
BENCHMARK(BM_SstMerge)->Arg(2)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator z(10'000'000, 0.99);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(z.next(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_Hash64(benchmark::State& state) {
  const std::string key(16, 'k');
  for (auto _ : state) benchmark::DoNotOptimize(hash64(key));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Hash64);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(4);
  for (auto _ : state) h.record(rng.below(10'000'000));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// Full run_workload with the time-sliced telemetry collector on (arg 1)
// vs off (arg 0): comparing the two bounds the observability overhead.
void BM_RunWorkloadTelemetry(benchmark::State& state) {
  for (auto _ : state) {
    harness::KvssdBedConfig cfg;
    cfg.dev = ssd::SsdConfig::small_device();
    harness::KvssdBed bed(cfg);
    wl::WorkloadSpec spec;
    spec.num_ops = 4000;
    spec.key_space = 2000;
    spec.key_bytes = 16;
    spec.value_bytes = 1024;
    spec.mix = {0.5, 0.0, 0.5, 0};
    spec.queue_depth = 16;
    harness::RunOptions opts;
    opts.drain_after = true;
    opts.telemetry = state.range(0) != 0;
    opts.telemetry_interval = kMs;
    const auto r = harness::run_workload(bed, spec, opts);
    benchmark::DoNotOptimize(r.ops);
  }
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_RunWorkloadTelemetry)->Arg(0)->Arg(1);

// --- smoke mode -------------------------------------------------------------

/// One timed steady-state run of the schedule->run cycle over `events`
/// events (after `warmup` untimed events to grow the slab pool).
struct SmokeResult {
  double events_per_sec;
  double ns_per_event;
  double allocs_per_event;
};

SmokeResult smoke_event_queue(u64 events, u64 warmup) {
  sim::EventQueue eq;
  u64 sink = 0;
  constexpr u64 kBatch = 1000;
  auto cycle = [&eq, &sink](u64 batches) {
    for (u64 b = 0; b < batches; ++b) {
      const TimeNs base = eq.now();
      for (u64 i = 0; i < kBatch; ++i)
        eq.schedule_at(base + (TimeNs)(kBatch - i), [&sink] { ++sink; });
      eq.run();
    }
  };
  cycle(warmup / kBatch + 1);
  const u64 batches = events / kBatch;
  const auto allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  cycle(batches);
  const auto t1 = std::chrono::steady_clock::now();
  const auto allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  const double wall_ns =
      (double)std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count();
  const double n = (double)(batches * kBatch);
  if (sink == 0) std::abort();  // keep the work observable
  return SmokeResult{n / (wall_ns * 1e-9), wall_ns / n, (double)allocs / n};
}

int smoke_main(const std::string& json_path, u64 events) {
  // Best of 3: the smoke gate runs inside CI on shared machines, so take
  // the least-noisy (fastest) run as the measurement.
  SmokeResult best{0, 0, 0};
  for (int rep = 0; rep < 3; ++rep) {
    const SmokeResult r = smoke_event_queue(events, /*warmup=*/100'000);
    if (r.events_per_sec > best.events_per_sec) best = r;
  }
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_sim_micro: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"event_queue_schedule_run\",\n"
               "  \"events\": %llu,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"ns_per_event\": %.3f,\n"
               "  \"allocs_per_event\": %.6f\n"
               "}\n",
               (unsigned long long)events, best.events_per_sec,
               best.ns_per_event, best.allocs_per_event);
  std::fclose(f);
  std::printf("event_queue_schedule_run: %.2fM events/s, %.1f ns/event, "
              "%.4f allocs/event -> %s\n",
              best.events_per_sec / 1e6, best.ns_per_event,
              best.allocs_per_event, json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  u64 events = 4'000'000;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kvsim_json=", 13) == 0) {
      json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--kvsim_events=", 15) == 0) {
      events = std::strtoull(argv[i] + 15, nullptr, 10);
    } else {
      argv[out++] = argv[i];  // leave the rest for google-benchmark
    }
  }
  if (!json_path.empty()) return smoke_main(json_path, events);
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
