#include "model/kvssd_model.h"

#include <algorithm>
#include <cmath>

namespace kvsim::model {

namespace {

double xfer_ns(const flash::FlashTiming& t, double bytes) {
  return bytes / t.channel_bytes_per_ns;
}

}  // namespace

double index_miss_probability(const ModelInput& in) {
  const auto& idx = in.ftl.index;
  const double entries = (double)in.kvp_count;
  const double segments = std::max(
      (double)idx.initial_segments, entries / idx.segment_split_threshold);
  const double cached = (double)idx.dram_bytes / idx.segment_bytes;
  if (segments <= cached) return 0.0;
  return 1.0 - cached / segments;
}

double gc_write_amplification(double fill, double update_fraction) {
  if (update_fraction <= 0.0 || fill <= 0.0) return 1.0;
  // Greedy GC steady state under uniform overwrites: victims retain
  // roughly u = fill (uniform invalidation); each reclaimed block rewrites
  // u of itself -> WAF = 1 / (1 - u), capped for near-full devices.
  const double u = std::min(0.93, fill) * std::min(1.0, update_fraction);
  return 1.0 / (1.0 - u);
}

ModelOutput predict(const ModelInput& in) {
  ModelOutput out;
  const auto& g = in.dev.geometry;
  const auto& t = in.dev.timing;
  const auto& ftl = in.ftl;

  const u32 slots = kvftl::slots_for_value(in.value_bytes, ftl.slot_bytes);
  const u32 chunks = kvftl::chunks_for_blob(slots, ftl.page_data_slots);
  const double dies = (double)g.total_dies();
  const double lanes = ftl.lanes ? ftl.lanes : dies;

  // Index behavior at this occupancy.
  out.index_miss_prob = index_miss_probability(in);
  const double segs =
      std::max((double)ftl.index.initial_segments,
               (double)in.kvp_count / ftl.index.segment_split_threshold);
  const double cached = (double)ftl.index.dram_bytes / ftl.index.segment_bytes;
  out.index_levels = 1;
  const u32 f = ftl.index.level_spill_factor;
  if (f && segs > cached * f) out.index_levels = 2;
  if (f && segs > cached * f * f * 8) out.index_levels = 3;
  out.waf = in.is_read
                ? 1.0
                : gc_write_amplification(in.fill_fraction, in.update_fraction);

  // --- per-op service demands at each station -----------------------------
  const u32 ncmds = nvme::kv_commands_for_key(in.nvme, in.key_bytes);
  // demand == residence unless a second argument distinguishes them.
  auto add = [&](const char* name, double demand, double residence = -1) {
    out.stations.push_back(
        StationDemand{name, demand, residence < 0 ? demand : residence});
  };

  add("nvme-cmd-proc",
      (double)ncmds * ((double)in.nvme.device_fetch_ns +
                       (double)in.nvme.command_bytes / in.nvme.bus_bytes_per_ns));
  add("pcie-link", (double)(in.key_bytes + in.value_bytes) /
                       in.nvme.bus_bytes_per_ns);
  add("kv-core", (double)in.dev.firmware_dispatch_ns);
  // Managers are a pool: demand spreads over them, but one op still holds
  // a manager for the full key-handling time.
  add("index-managers",
      (double)ftl.key_handling_ns / std::max<u32>(1, ftl.index_managers),
      (double)ftl.key_handling_ns);

  // Index flash reads in the critical path (per miss, serial levels).
  const double index_read_ns =
      t.read_page_ns + xfer_ns(t, ftl.index.segment_bytes);
  const double index_dies = std::min(8.0, dies / 4.0);  // index block spread
  add("index-region",
      out.index_miss_prob * out.index_levels * index_read_ns / index_dies,
      out.index_miss_prob * out.index_levels * index_read_ns);

  if (in.is_read) {
    // Blob chunks read in parallel across dies; demand is per-die time.
    const double pages = chunks;
    const double per_page_ns =
        t.read_page_ns + xfer_ns(t, (double)slots * ftl.slot_bytes / pages);
    // Chunks read in parallel: latency sees one page, demand sees all.
    add("flash-read-dies", pages * per_page_ns / dies, per_page_ns);
  } else {
    // Packing + program demand, inflated by GC (which also packs/programs).
    const double ops_per_page =
        std::max(1.0, (double)ftl.page_data_slots / slots);
    add("packer", (double)ftl.pack_page_ns / ops_per_page +
                      (double)(chunks - 1) * ftl.split_chunk_ns);
    const double pages_per_op = (double)slots / ftl.page_data_slots;
    const double program_ns =
        xfer_ns(t, g.page_bytes) + (double)t.program_page_ns;
    // Writes acknowledge from the device buffer: programs consume lane
    // bandwidth (demand) but are off the latency path (residence 0).
    add("flash-program-lanes", pages_per_op * program_ns * out.waf / lanes,
        0.0);
    // GC migration also re-reads victims.
    if (out.waf > 1.0)
      add("gc-read-dies",
          (out.waf - 1.0) * pages_per_op * (double)t.read_page_ns / dies,
          0.0);
  }

  // --- asymptotic bounds ----------------------------------------------------
  double sum_res = 0, worst = 0;
  const char* worst_name = "";
  for (const auto& s : out.stations) {
    sum_res += s.residence_ns;
    if (s.service_ns > worst) {
      worst = s.service_ns;
      worst_name = s.name;
    }
  }
  out.sum_residence_ns = sum_res;
  out.bottleneck_service_ns = worst;
  out.bottleneck = worst_name;

  const double n = std::max<u32>(1, in.queue_depth);
  const double x = std::min(1.0 / worst, n / sum_res);  // ops per ns
  out.throughput_ops_per_sec = x * 1e9;
  out.mean_latency_ns = n / x;
  return out;
}

}  // namespace kvsim::model
