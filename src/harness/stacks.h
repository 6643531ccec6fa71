// Experiment testbeds: the three stacks the paper compares, behind one
// KvStack interface so the runner can drive any of them.
//
//   KvssdBed   — KV API -> NVMe KV commands -> KV-FTL        (KV-SSD)
//   LsmBed     — mini-RocksDB -> ext4-like fs -> block-SSD   (RDB)
//   HashKvBed  — mini-Aerospike -> direct I/O -> block-SSD   (AS)
//
// Each bed owns a private event queue, flash substrate, and device, so
// beds are independent "machines" (the paper used two identical servers).
// BlockDirectBed exposes the raw block device for the direct-I/O
// experiments (Figs. 3-5).
//
// When a fault plan is active, beds wrap each command in the config's
// RetryPolicy: retryable device errors (media/busy/timeout) are re-driven
// after backoff, and the re-drive count is reported via host_retries().
// With faults off the wrapper is bypassed entirely, so fault-free runs
// execute the exact pre-fault command path.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "blockapi/block_device.h"
#include "fs/file_system.h"
#include "harness/stack_iface.h"
#include "hashkv/hash_store.h"
#include "kvapi/kvs_device.h"
#include "lsm/lsm_store.h"

#include "common/thread_annotations.h"

namespace kvsim::harness {

struct KvssdBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  kvftl::KvFtlConfig ftl;
  nvme::NvmeConfig nvme;
  kvapi::KvsApiConfig api;
  RetryPolicy retry;
  /// Convenience master switch: turns on crash tracking in every layer of
  /// the bed so simulate_crash() is available.
  bool crash_tracking = false;
};

class KvssdBed final : public KvStack {
 public:
  KVSIM_THREAD_CONFINED;
  explicit KvssdBed(const KvssdBedConfig& cfg = {});

  void store(std::string_view key, ValueDesc v, StoreDone done) override {
    store_as(TenantCtx{}, key, v, std::move(done));
  }
  void retrieve(std::string_view key, RetrieveDone done) override {
    retrieve_as(TenantCtx{}, key, std::move(done));
  }
  void remove(std::string_view key, RemoveDone done) override {
    remove_as(TenantCtx{}, key, std::move(done));
  }
  // KV-SSD tenancy is native: the device command carries the namespace
  // (isolated keyspace in the KV-FTL) and posts to the tenant's SQ. The
  // default ctx is the exact pre-tenancy path.
  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    auto tracked = inflight_.track(std::move(done));
    if (!faults_on_) {
      dev_->store(key, v, std::move(tracked), /*stream=*/0, t.nsid, t.queue);
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, key = std::string(key), v, t](u32 attempt, auto cb) {
          // Re-drives carry the attempt number as the stream hint so the
          // FTL may steer the retry to a different write point.
          dev_->store(key, v, std::move(cb), /*stream=*/(u8)attempt, t.nsid,
                      t.queue);
        },
        std::move(tracked));
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    auto tracked = inflight_.track(std::move(done));
    if (!faults_on_) {
      dev_->retrieve(key, std::move(tracked), t.nsid, t.queue);
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, key = std::string(key), t](u32, auto cb) {
          dev_->retrieve(key, std::move(cb), t.nsid, t.queue);
        },
        std::move(tracked));
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    auto tracked = inflight_.track(std::move(done));
    if (!faults_on_) {
      dev_->remove(key, std::move(tracked), t.nsid, t.queue);
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, key = std::string(key), t](u32, auto cb) {
          dev_->remove(key, std::move(cb), t.nsid, t.queue);
        },
        std::move(tracked));
  }
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return link_.get();
  }
  void drain(sim::Task done) override {
    // An op parked in a retry-backoff window is invisible to the device
    // flush; wait out the host side before asking the device to quiesce.
    inflight_.when_idle([this, done = std::move(done)]() mutable {
      dev_->flush(std::move(done));
    });
  }
  [[nodiscard]] u64 host_cpu_ns() const override { return dev_->host_cpu_ns(); }
  [[nodiscard]] u64 device_bytes_used() const override {
    return ftl_->device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return ftl_->app_bytes_live();
  }
  [[nodiscard]] const char* name() const override { return "KV-SSD"; }

  sim::EventQueue& eq() override { return eq_; }
  kvapi::KvsDevice& device() { return *dev_; }
  kvftl::KvFtl& ftl() { return *ftl_; }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return &ftl_->stats();
  }
  flash::FlashController& flash() { return *flash_; }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return flash_.get();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return ftl_->buffer_stalls();
  }
  void apply_fault_plan(const ssd::FaultPlan& plan) override {
    ftl_->set_fault_plan(plan);
    faults_on_ = plan.enabled;
    // Re-derive the retry budget's bucket and jitter stream from the
    // plan's seed so fault runs are reproducible from one knob.
    retry_budget_.configure(retry_, plan.seed);
  }
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const override {
    return ftl_->fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override { return host_retries_; }
  [[nodiscard]] bool crash_supported() const override { return crash_on_; }
  CrashOutcome simulate_crash() override;
  [[nodiscard]] u64 inflight_host_ops() const override {
    return inflight_.count();
  }

 private:
  sim::EventQueue eq_;
  std::unique_ptr<flash::FlashController> flash_;
  std::unique_ptr<kvftl::KvFtl> ftl_;
  std::unique_ptr<nvme::NvmeLink> link_;
  std::unique_ptr<kvapi::KvsDevice> dev_;
  RetryPolicy retry_;
  detail::RetryBudget retry_budget_;
  bool faults_on_ = false;
  bool crash_on_ = false;
  u64 host_retries_ = 0;
  detail::InflightOps inflight_;
};

struct BlockBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
};

/// Raw block device bed (direct I/O experiments).
class BlockDirectBed {
 public:
  KVSIM_THREAD_CONFINED;
  explicit BlockDirectBed(const BlockBedConfig& cfg = {});

  sim::EventQueue& eq() { return eq_; }
  blockapi::BlockDevice& device() { return *dev_; }
  blockftl::BlockFtl& ftl() { return *ftl_; }
  flash::FlashController& flash() { return *flash_; }

 private:
  sim::EventQueue eq_;
  std::unique_ptr<flash::FlashController> flash_;
  std::unique_ptr<blockftl::BlockFtl> ftl_;
  std::unique_ptr<nvme::NvmeLink> link_;
  std::unique_ptr<blockapi::BlockDevice> dev_;
};

struct LsmBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
  fs::FsConfig fs;
  lsm::LsmConfig lsm;
  RetryPolicy retry;
  /// Convenience master switch: turns on crash tracking in every layer of
  /// the bed so simulate_crash() is available.
  bool crash_tracking = false;
};

class LsmBed final : public KvStack {
 public:
  KVSIM_THREAD_CONFINED;
  explicit LsmBed(const LsmBedConfig& cfg = {});

  void store(std::string_view key, ValueDesc v, StoreDone done) override {
    store_as(TenantCtx{}, key, v, std::move(done));
  }
  void retrieve(std::string_view key, RetrieveDone done) override {
    retrieve_as(TenantCtx{}, key, std::move(done));
  }
  void remove(std::string_view key, RemoveDone done) override {
    remove_as(TenantCtx{}, key, std::move(done));
  }
  // No device namespaces on the block path: keyspace isolation is a
  // host-side key prefix (TenantKey), and the tenant's queue is a sticky
  // hint on the block device — I/O the store issues while serving this op
  // (including flushes/compaction it triggers) rides the tenant's SQ.
  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    auto tracked = inflight_.track(std::move(done));
    dev_->set_queue(t.queue);
    const TenantKey tk(t.nsid, key);
    if (!faults_on_) {
      store_->put(tk.view(), v, std::move(tracked));
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, k = std::string(tk.view()), v](u32, auto cb) {
          store_->put(k, v, std::move(cb));
        },
        std::move(tracked));
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    auto tracked = inflight_.track(std::move(done));
    dev_->set_queue(t.queue);
    const TenantKey tk(t.nsid, key);
    if (!faults_on_) {
      store_->get(tk.view(), std::move(tracked), t.queue);
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, k = std::string(tk.view()), q = t.queue](u32, auto cb) {
          store_->get(k, std::move(cb), q);
        },
        std::move(tracked));
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    auto tracked = inflight_.track(std::move(done));
    dev_->set_queue(t.queue);
    const TenantKey tk(t.nsid, key);
    if (!faults_on_) {
      store_->del(tk.view(), std::move(tracked));
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, k = std::string(tk.view())](u32, auto cb) {
          store_->del(k, std::move(cb));
        },
        std::move(tracked));
  }
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return link_.get();
  }
  void drain(sim::Task done) override;
  [[nodiscard]] u64 host_cpu_ns() const override {
    return store_->host_cpu_ns() + fs_->host_cpu_ns() + dev_->host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return fs_->used_bytes();
  }
  [[nodiscard]] u64 app_bytes_live() const override { return app_bytes_; }
  void add_app_bytes(i64 delta) override {
    app_bytes_ = (u64)((i64)app_bytes_ + delta);
  }
  [[nodiscard]] const char* name() const override {
    return "RocksDB/ext4/block-SSD";
  }

  sim::EventQueue& eq() override { return eq_; }
  lsm::LsmStore& store() { return *store_; }
  fs::FileSystem& fs() { return *fs_; }
  blockapi::BlockDevice& device() { return *dev_; }
  blockftl::BlockFtl& ftl() { return *ftl_; }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return &ftl_->stats();
  }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return flash_.get();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return ftl_->buffer_stalls();
  }
  void apply_fault_plan(const ssd::FaultPlan& plan) override {
    ftl_->set_fault_plan(plan);
    faults_on_ = plan.enabled;
    // Re-derive the retry budget's bucket and jitter stream from the
    // plan's seed so fault runs are reproducible from one knob.
    retry_budget_.configure(retry_, plan.seed);
  }
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const override {
    return ftl_->fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override { return host_retries_; }
  [[nodiscard]] bool crash_supported() const override { return crash_on_; }
  CrashOutcome simulate_crash() override;
  [[nodiscard]] u64 inflight_host_ops() const override {
    return inflight_.count();
  }

 private:
  sim::EventQueue eq_;
  std::unique_ptr<flash::FlashController> flash_;
  std::unique_ptr<blockftl::BlockFtl> ftl_;
  std::unique_ptr<nvme::NvmeLink> link_;
  std::unique_ptr<blockapi::BlockDevice> dev_;
  std::unique_ptr<fs::FileSystem> fs_;
  std::unique_ptr<lsm::LsmStore> store_;
  u64 app_bytes_ = 0;
  RetryPolicy retry_;
  detail::RetryBudget retry_budget_;
  bool faults_on_ = false;
  bool crash_on_ = false;
  u64 host_retries_ = 0;
  detail::InflightOps inflight_;
};

struct HashKvBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
  hashkv::HashKvConfig store;
  RetryPolicy retry;
  /// Convenience master switch: turns on crash tracking in every layer of
  /// the bed so simulate_crash() is available.
  bool crash_tracking = false;
};

class HashKvBed final : public KvStack {
 public:
  KVSIM_THREAD_CONFINED;
  explicit HashKvBed(const HashKvBedConfig& cfg = {});

  void store(std::string_view key, ValueDesc v, StoreDone done) override {
    store_as(TenantCtx{}, key, v, std::move(done));
  }
  void retrieve(std::string_view key, RetrieveDone done) override {
    retrieve_as(TenantCtx{}, key, std::move(done));
  }
  void remove(std::string_view key, RemoveDone done) override {
    remove_as(TenantCtx{}, key, std::move(done));
  }
  // Same host-side tenancy as LsmBed: key-prefix keyspaces plus a sticky
  // queue hint on the direct-I/O block device.
  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    auto tracked = inflight_.track(std::move(done));
    dev_->set_queue(t.queue);
    const TenantKey tk(t.nsid, key);
    if (!faults_on_) {
      store_->put(tk.view(), v, std::move(tracked));
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, k = std::string(tk.view()), v](u32, auto cb) {
          store_->put(k, v, std::move(cb));
        },
        std::move(tracked));
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    auto tracked = inflight_.track(std::move(done));
    dev_->set_queue(t.queue);
    const TenantKey tk(t.nsid, key);
    if (!faults_on_) {
      store_->get(tk.view(), std::move(tracked));
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, k = std::string(tk.view())](u32, auto cb) {
          store_->get(k, std::move(cb));
        },
        std::move(tracked));
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    auto tracked = inflight_.track(std::move(done));
    dev_->set_queue(t.queue);
    const TenantKey tk(t.nsid, key);
    if (!faults_on_) {
      store_->del(tk.view(), std::move(tracked));
      return;
    }
    detail::run_with_retry(
        eq_, retry_, host_retries_, retry_budget_,
        [this, k = std::string(tk.view())](u32, auto cb) {
          store_->del(k, std::move(cb));
        },
        std::move(tracked));
  }
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return link_.get();
  }
  void drain(sim::Task done) override {
    // Same drain-vs-retry gate as the other beds: a backoff timer can
    // hold an op the store has never seen (or will see again).
    inflight_.when_idle([this, done = std::move(done)]() mutable {
      store_->drain(std::move(done));
    });
  }
  [[nodiscard]] u64 host_cpu_ns() const override {
    return store_->host_cpu_ns() + dev_->host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return store_->device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return store_->app_bytes_live();
  }
  [[nodiscard]] const char* name() const override {
    return "Aerospike/block-SSD";
  }

  sim::EventQueue& eq() override { return eq_; }
  hashkv::HashKvStore& store() { return *store_; }
  blockapi::BlockDevice& device() { return *dev_; }
  blockftl::BlockFtl& ftl() { return *ftl_; }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return &ftl_->stats();
  }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return flash_.get();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return ftl_->buffer_stalls();
  }
  void apply_fault_plan(const ssd::FaultPlan& plan) override {
    ftl_->set_fault_plan(plan);
    faults_on_ = plan.enabled;
    // Re-derive the retry budget's bucket and jitter stream from the
    // plan's seed so fault runs are reproducible from one knob.
    retry_budget_.configure(retry_, plan.seed);
  }
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const override {
    return ftl_->fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override { return host_retries_; }
  [[nodiscard]] bool crash_supported() const override { return crash_on_; }
  CrashOutcome simulate_crash() override;
  [[nodiscard]] u64 inflight_host_ops() const override {
    return inflight_.count();
  }

 private:
  sim::EventQueue eq_;
  std::unique_ptr<flash::FlashController> flash_;
  std::unique_ptr<blockftl::BlockFtl> ftl_;
  std::unique_ptr<nvme::NvmeLink> link_;
  std::unique_ptr<blockapi::BlockDevice> dev_;
  std::unique_ptr<hashkv::HashKvStore> store_;
  RetryPolicy retry_;
  detail::RetryBudget retry_budget_;
  bool faults_on_ = false;
  bool crash_on_ = false;
  u64 host_retries_ = 0;
  detail::InflightOps inflight_;
};

}  // namespace kvsim::harness
