#include "harness/stacks.h"

namespace kvsim::harness {

KvssdBed::KvssdBed(const KvssdBedConfig& cfg0) : retry_(cfg0.retry) {
  retry_budget_.configure(retry_, ssd::FaultPlan{}.seed);
  KvssdBedConfig cfg = cfg0;
  if (cfg.crash_tracking) cfg.ftl.crash_tracking = true;
  crash_on_ = cfg.ftl.crash_tracking;
  flash_ = std::make_unique<flash::FlashController>(eq_, cfg.dev.geometry,
                                                    cfg.dev.timing);
  ftl_ = std::make_unique<kvftl::KvFtl>(eq_, *flash_, cfg.dev, cfg.ftl);
  link_ = std::make_unique<nvme::NvmeLink>(eq_, cfg.nvme);
  dev_ = std::make_unique<kvapi::KvsDevice>(eq_, *link_, *ftl_, cfg.api);
}

CrashOutcome KvssdBed::simulate_crash() {
  CrashOutcome out;
  if (!crash_on_) return out;
  const TimeNs cut = eq_.now();
  out.crash_time = cut;
  out.discarded_events = eq_.discard_pending();
  inflight_.reset();
  link_->power_cycle(cut);
  kvftl::KvFtl::DeviceRecovery dr;
  ftl_->power_fail_and_recover(dr, [] {});
  eq_.run();  // mount-time OOB scan + index rebuild, on the bed's clock
  out.recovery_ns = eq_.now() - cut;
  out.rebuild_pages_read = dr.rebuild_pages_read;
  out.torn_pages = dr.torn_pages;
  out.recovered_units = dr.recovered_units;
  out.lost_units = dr.lost_units;
  return out;
}

BlockDirectBed::BlockDirectBed(const BlockBedConfig& cfg) {
  flash_ = std::make_unique<flash::FlashController>(eq_, cfg.dev.geometry,
                                                    cfg.dev.timing);
  ftl_ = std::make_unique<blockftl::BlockFtl>(eq_, *flash_, cfg.dev, cfg.ftl);
  link_ = std::make_unique<nvme::NvmeLink>(eq_, cfg.nvme);
  dev_ =
      std::make_unique<blockapi::BlockDevice>(eq_, *link_, *ftl_, cfg.api);
}

LsmBed::LsmBed(const LsmBedConfig& cfg0) : retry_(cfg0.retry) {
  retry_budget_.configure(retry_, ssd::FaultPlan{}.seed);
  LsmBedConfig cfg = cfg0;
  if (cfg.crash_tracking) {
    cfg.ftl.crash_tracking = true;
    cfg.fs.crash_tracking = true;
    cfg.lsm.crash_tracking = true;
  }
  // Recovery needs every layer's ledger: a partially-instrumented bed
  // cannot answer durability probes, so crash support is all-or-nothing.
  crash_on_ = cfg.ftl.crash_tracking && cfg.fs.crash_tracking &&
              cfg.lsm.crash_tracking;
  flash_ = std::make_unique<flash::FlashController>(eq_, cfg.dev.geometry,
                                                    cfg.dev.timing);
  ftl_ = std::make_unique<blockftl::BlockFtl>(eq_, *flash_, cfg.dev, cfg.ftl);
  link_ = std::make_unique<nvme::NvmeLink>(eq_, cfg.nvme);
  dev_ =
      std::make_unique<blockapi::BlockDevice>(eq_, *link_, *ftl_, cfg.api);
  fs_ = std::make_unique<fs::FileSystem>(eq_, *dev_, cfg.fs);
  store_ = std::make_unique<lsm::LsmStore>(eq_, *fs_, cfg.lsm);
}

void LsmBed::drain(sim::Task done) {
  // An op parked in a retry-backoff window is invisible to the store and
  // device drains; wait out the host side first.
  inflight_.when_idle([this, done = std::move(done)]() mutable {
    auto shared = std::make_shared<sim::Task>(std::move(done));
    store_->drain(
        [this, shared] { ftl_->flush([shared] { (*shared)(); }); });
  });
}

CrashOutcome LsmBed::simulate_crash() {
  CrashOutcome out;
  if (!crash_on_) return out;
  const TimeNs cut = eq_.now();
  out.crash_time = cut;
  out.discarded_events = eq_.discard_pending();
  inflight_.reset();
  link_->power_cycle(cut);
  dev_->power_cycle();
  // Device mounts first (rebuilds its map synchronously from OOB), so the
  // host recovery's durability probes see post-cut flash truth.
  blockftl::BlockFtl::DeviceRecovery dr;
  ftl_->power_fail_and_recover(dr, [] {});
  lsm::LsmStore::HostRecovery hr;
  store_->power_fail_and_recover(hr, [] {});
  eq_.run();
  out.recovery_ns = eq_.now() - cut;
  out.rebuild_pages_read = dr.rebuild_pages_read;
  out.torn_pages = dr.torn_pages;
  out.recovered_units = dr.recovered_slots;
  out.lost_units = dr.lost_slots;
  out.wal_records_replayed = hr.wal_records_replayed;
  out.wal_records_lost = hr.wal_records_lost;
  return out;
}

HashKvBed::HashKvBed(const HashKvBedConfig& cfg0) : retry_(cfg0.retry) {
  retry_budget_.configure(retry_, ssd::FaultPlan{}.seed);
  HashKvBedConfig cfg = cfg0;
  if (cfg.crash_tracking) {
    cfg.ftl.crash_tracking = true;
    cfg.store.crash_tracking = true;
  }
  crash_on_ = cfg.ftl.crash_tracking && cfg.store.crash_tracking;
  flash_ = std::make_unique<flash::FlashController>(eq_, cfg.dev.geometry,
                                                    cfg.dev.timing);
  ftl_ = std::make_unique<blockftl::BlockFtl>(eq_, *flash_, cfg.dev, cfg.ftl);
  link_ = std::make_unique<nvme::NvmeLink>(eq_, cfg.nvme);
  dev_ =
      std::make_unique<blockapi::BlockDevice>(eq_, *link_, *ftl_, cfg.api);
  store_ = std::make_unique<hashkv::HashKvStore>(eq_, *dev_, cfg.store);
}

CrashOutcome HashKvBed::simulate_crash() {
  CrashOutcome out;
  if (!crash_on_) return out;
  const TimeNs cut = eq_.now();
  out.crash_time = cut;
  out.discarded_events = eq_.discard_pending();
  inflight_.reset();
  link_->power_cycle(cut);
  dev_->power_cycle();
  blockftl::BlockFtl::DeviceRecovery dr;
  ftl_->power_fail_and_recover(dr, [] {});
  hashkv::HashKvStore::HostRecovery hr;
  store_->power_fail_and_recover(hr, [] {});
  eq_.run();
  out.recovery_ns = eq_.now() - cut;
  out.rebuild_pages_read = dr.rebuild_pages_read;
  out.torn_pages = dr.torn_pages;
  out.recovered_units = hr.recovered_records;
  out.lost_units = hr.lost_records;
  out.log_blocks_scanned = hr.log_blocks_scanned;
  return out;
}

}  // namespace kvsim::harness
