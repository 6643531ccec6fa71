// Endurance characterization: write several drive-fills of random 4 KiB
// data through each firmware and compare lifetime-relevant telemetry —
// write amplification (host TBW multiplier) and erase-count spread
// (wear leveling quality). Not a paper figure, but the S.M.A.R.T.-style
// lifetime view any characterization study of these firmwares needs:
// the KV-FTL's padding and GC behavior translate directly into flash
// wear, which is the device-lifetime cost of the behaviors in Figs. 5-7.
#include "bench_util.h"

namespace kvbench {
namespace {

struct WearResult {
  double waf;
  u32 max_erase;
  double mean_erase;
  u64 erases;
};

WearResult wear_kvssd(double fill, u64 rewrites) {
  harness::KvssdBed bed(kvssd_cfg(device_gib(1), 400'000));
  const u64 keys =
      (u64)((double)bed.ftl().max_kvp_capacity() * fill) / 4;
  (void)harness::fill_stack(bed, keys, 16, 4 * KiB, 128);
  wl::WorkloadSpec spec;
  spec.num_ops = keys * rewrites;
  spec.key_space = keys;
  spec.key_bytes = 16;
  spec.value_bytes = 4 * KiB;
  spec.pattern = wl::Pattern::kUniform;
  spec.mix = wl::OpMix::update_only();
  spec.queue_depth = 64;
  report().add_run("kvssd/fill" + std::to_string((int)(fill * 100)) + "pct",
                   run_workload(bed, spec, {.drain_after = true}));
  report().add_device(bed);
  const auto& alloc = bed.ftl().allocator();
  return WearResult{bed.ftl().stats().waf(), alloc.max_erase_count(),
                    alloc.mean_erase_count(),
                    bed.flash().stats().block_erases};
}

WearResult wear_block(double fill, u64 rewrites) {
  harness::BlockBedConfig cfg;
  cfg.dev = device_gib(1);
  harness::BlockDirectBed bed(cfg);
  const u64 slots =
      (u64)((double)bed.device().capacity_bytes() * fill) / (4 * KiB);
  harness::BlockRunSpec w;
  w.num_ops = slots;
  w.io_bytes = 4 * KiB;
  w.span_bytes = slots * 4 * KiB;
  w.sequential = true;
  w.queue_depth = 128;
  const std::string tag = "block/fill" + std::to_string((int)(fill * 100)) +
                          "pct";
  report().add_run(tag + "/seqfill",
                   run_block(bed.eq(), bed.device(), w, true));
  w.sequential = false;
  w.num_ops = slots * rewrites;
  w.seed = 3;
  report().add_run(tag, run_block(bed.eq(), bed.device(), w, true));
  report().add_device("block-SSD", &bed.ftl().stats(), &bed.flash());
  const auto& alloc = bed.ftl().allocator();
  return WearResult{bed.ftl().stats().waf(), alloc.max_erase_count(),
                    alloc.mean_erase_count(),
                    bed.flash().stats().block_erases};
}

}  // namespace
}  // namespace kvbench

int main() {
  using namespace kvbench;
  print_header("Wear", "endurance: WAF and erase-count spread per firmware");
  report_init("wear_endurance");
  std::printf("1 GiB devices, 70%% fill, 3 rewrites of the working set, "
              "random 4 KiB\n");

  const WearResult kv = wear_kvssd(0.7, 3);
  const WearResult blk = wear_block(0.7, 3);

  Table t({"firmware", "WAF", "erases", "max erase", "mean erase",
           "wear spread (max/mean)"});
  auto row = [&](const char* name, const WearResult& r) {
    t.add_row({name, Table::num(r.waf, 2), std::to_string(r.erases),
               std::to_string(r.max_erase), Table::num(r.mean_erase, 2),
               Table::num(r.mean_erase > 0 ? r.max_erase / r.mean_erase : 0,
                          2)});
  };
  row("KV-SSD", kv);
  row("block-SSD", blk);
  std::printf("%s", t.render().c_str());
  save_csv("wear_endurance", t);

  std::printf(
      "\nReading: the KV firmware burns more erases per host byte "
      "(padding + GC of log-packed blobs), i.e. the space-amplification "
      "behaviors of Figs. 5-7 are also an endurance tax; wear leveling "
      "keeps the hottest block within a small factor of the mean on both "
      "firmwares.\n\n");
  check_shape(kv.waf >= blk.waf * 0.9,
              "KV firmware wears flash at least as fast per host byte");
  check_shape(kv.mean_erase > 0.5 && blk.mean_erase > 0.5,
              "both devices saw real erase churn");
  check_shape(kv.max_erase < kv.mean_erase * 5 + 5,
              "KV-SSD wear spread bounded");
  check_shape(blk.max_erase < blk.mean_erase * 5 + 5,
              "block-SSD wear spread bounded");
  save_report();
  return shape_exit();
}
