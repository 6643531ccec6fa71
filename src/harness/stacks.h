// Experiment testbeds: the three stacks the paper compares, behind one
// KvStack interface so the runner can drive any of them.
//
//   KvssdBed   — KV API -> NVMe KV commands -> KV-FTL        (KV-SSD)
//   LsmBed     — mini-RocksDB -> ext4-like fs -> block-SSD   (RDB)
//   HashKvBed  — mini-Aerospike -> direct I/O -> block-SSD   (AS)
//
// Each bed owns a private Drive (event queue, flash substrate, FTL, NVMe
// link and device API), so beds are independent "machines" (the paper
// used two identical servers). BlockDirectBed is a bare block Drive for
// the direct-I/O experiments (Figs. 3-5).
//
// Bed<Ftl, Dev> is the scaffold the three share. Every host op, with or
// without a fault plan, lives in one pooled HostOp record from issue to
// final completion; the config's RetryPolicy decides whether a failed
// attempt is re-driven after a backoff (retryable errors only come from
// injected faults, so a fault-free run never re-drives). A bed supplies
// its store path (issue), the part of drain and crash recovery above the
// drive, and its name, CPU and space accounting.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "blockapi/block_device.h"
#include "common/inline_key.h"
#include "common/slot_pool.h"
#include "fs/file_system.h"
#include "harness/stack_iface.h"
#include "hashkv/hash_store.h"
#include "kvapi/kvs_device.h"
#include "lsm/lsm_store.h"

#include "common/thread_annotations.h"

namespace kvsim::harness {

/// One simulated drive, built in order: event queue, flash substrate,
/// FTL, NVMe link, device API. `crash_tracking` is the drive's one crash
/// switch: it is set on the flash controller before the FTL is built,
/// and every layer above reads its own from the layer below.
template <typename Ftl, typename Dev>
class Drive {
 public:
  KVSIM_THREAD_CONFINED;
  template <typename FtlConfig, typename ApiConfig>
  Drive(const ssd::SsdConfig& dev, const FtlConfig& ftl,
        const nvme::NvmeConfig& nvme, const ApiConfig& api,
        bool crash_tracking = false)
      : flash_([&] {
          auto f = std::make_unique<flash::FlashController>(eq_, dev.geometry,
                                                            dev.timing);
          f->set_crash_tracking(crash_tracking);
          return f;
        }()),
        ftl_(std::make_unique<Ftl>(eq_, *flash_, dev, ftl)),
        link_(std::make_unique<nvme::NvmeLink>(eq_, nvme)),
        dev_(std::make_unique<Dev>(eq_, *link_, *ftl_, api)) {}
  Drive(const Drive&) = delete;  // every layer holds the queue's address
  Drive& operator=(const Drive&) = delete;

  sim::EventQueue& eq() { return eq_; }
  Dev& device() { return *dev_; }
  Ftl& ftl() { return *ftl_; }
  flash::FlashController& flash() { return *flash_; }
  [[nodiscard]] const Dev& device() const { return *dev_; }
  [[nodiscard]] const Ftl& ftl() const { return *ftl_; }
  [[nodiscard]] const flash::FlashController& flash() const {
    return *flash_;
  }
  [[nodiscard]] const nvme::NvmeLink& link() const { return *link_; }

 protected:
  /// Power loss at `cut`: the link and the device API drop every command
  /// they hold. The FTL's mount is the bed's to run (its counters differ).
  void power_cut(TimeNs cut) {
    link_->power_cycle(cut);
    if constexpr (requires { dev_->power_cycle(); }) dev_->power_cycle();
  }

 private:
  sim::EventQueue eq_;
  std::unique_ptr<flash::FlashController> flash_;
  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<nvme::NvmeLink> link_;
  std::unique_ptr<Dev> dev_;
};

/// A bed's state for one host op, from issue to final completion: the
/// caller's callback, the key as the store sees it, the value, the tenant
/// and the attempt number.
struct HostOp {
  enum Kind : u8 { kStore, kRetrieve, kRemove };

  KvStack::StoreDone done;    ///< store, remove
  KvStack::RetrieveDone got;  ///< retrieve
  ValueDesc value;
  TenantCtx ctx;
  u32 attempt = 0;
  Kind kind = kStore;
  InlineKey key_buf;

  [[nodiscard]] std::string_view key() const { return key_buf.view(); }

  /// Copy `key` in. A nonzero `tag_nsid` prefixes the 2-byte namespace
  /// tag that isolates keyspaces on beds without device namespaces:
  /// workload keys start with 'k' and tags with 'A'-'P', so tagged
  /// keyspaces are disjoint from each other and from namespace 0.
  void set_key(u8 tag_nsid, std::string_view key) {
    const size_t tag = tag_nsid != 0 ? 2 : 0;
    char* p = key_buf.resize(tag + key.size());
    if (tag != 0) {
      p[0] = (char)('A' + (tag_nsid >> 4));
      p[1] = (char)('A' + (tag_nsid & 0xf));
    }
    key.copy(p + tag, key.size());
  }
};

/// The scaffold every KvStack bed shares: the drive, the host-op pool,
/// the retry path, the drain gate, the power cut and the accessors.
///
/// A completion either re-drives the op (RetryPolicy says so and the
/// budget has a token) or runs the caller's callback and then releases
/// the record; drain waiters run once no op is live. A callback may issue
/// new ops and grow the pool, and a store may complete inside the call
/// that issued to it, so a HostOp& is never held across a call out.
template <typename Ftl, typename Dev>
class Bed : public KvStack, public Drive<Ftl, Dev> {
 public:
  KVSIM_THREAD_CONFINED;
  using Drive<Ftl, Dev>::device;
  using Drive<Ftl, Dev>::ftl;
  using Drive<Ftl, Dev>::flash;

  void store_as(const TenantCtx& t, std::string_view key, ValueDesc v,
                StoreDone done) override {
    const u32 slot = start(HostOp::kStore, t, key, v);
    ops_[slot].done = std::move(done);
    issue(slot);
  }
  void retrieve_as(const TenantCtx& t, std::string_view key,
                   RetrieveDone done) override {
    const u32 slot = start(HostOp::kRetrieve, t, key, ValueDesc{});
    ops_[slot].got = std::move(done);
    issue(slot);
  }
  void remove_as(const TenantCtx& t, std::string_view key,
                 RemoveDone done) override {
    const u32 slot = start(HostOp::kRemove, t, key, ValueDesc{});
    ops_[slot].done = std::move(done);
    issue(slot);
  }

  /// An op parked in a retry backoff window is invisible to the layers'
  /// own drains, so the bed's quiesce waits until no host op is live.
  void drain(sim::Task done) override {
    if (ops_.usage().live == 0) {
      quiesce(std::move(done));
      return;
    }
    waiters_.push_back(std::move(done));
  }

  sim::EventQueue& eq() override { return Drive<Ftl, Dev>::eq(); }
  [[nodiscard]] const nvme::NvmeLink* nvme_link() const override {
    return &this->link();
  }
  [[nodiscard]] const ssd::FtlStats* ftl_stats() const override {
    return &ftl().stats();
  }
  [[nodiscard]] const flash::FlashController* flash_ctrl() const override {
    return &flash();
  }
  [[nodiscard]] u64 buffer_stall_events() const override {
    return ftl().buffer_stalls();
  }

  void apply_fault_plan(const ssd::FaultPlan& plan) override {
    ftl().set_fault_plan(plan);
    // The plan's seed re-derives the retry budget's bucket and jitter
    // stream, so a fault run is reproducible from one knob.
    budget_.configure(retry_, plan.seed);
  }
  [[nodiscard]] const ssd::FaultInjector* fault_injector() const override {
    return ftl().fault_injector();
  }
  [[nodiscard]] u64 host_retries() const override { return host_retries_; }

  [[nodiscard]] bool crash_supported() const override {
    return ftl().crash_tracking();
  }
  /// The mount ends when the device's and the host's continuations have
  /// both fired; recovery_ns stops there, and work the mount queued runs
  /// on after the caller resumes.
  ssd::CrashOutcome simulate_crash() override {
    ssd::CrashOutcome out;
    if (!crash_supported()) return out;
    sim::EventQueue& q = eq();
    const TimeNs cut = q.now();
    out.crash_time_ns = cut;
    out.discarded_events = q.discard_pending();
    ops_.clear();  // the callbacks die unrun with their ops
    waiters_.clear();
    this->power_cut(cut);
    // The device mounts first (it rebuilds its map synchronously from
    // OOB), so the host layers' recovery probes see post-cut flash truth.
    int mounting = 2;
    ftl().power_fail_and_recover(out, [&mounting] { --mounting; });
    remount(out, [&mounting] { --mounting; });
    while (mounting > 0)
      if (!q.step())
        throw std::logic_error(std::string("simulate_crash: ") + name() +
                               " ran out of events before its mount ended");
    out.recovery_ns = q.now() - cut;
    return out;
  }
  [[nodiscard]] u64 inflight_host_ops() const override {
    return ops_.usage().live;
  }

 protected:
  template <typename Config>
  explicit Bed(const Config& cfg)
      : Drive<Ftl, Dev>(cfg.dev, cfg.ftl, cfg.nvme, cfg.api,
                        cfg.crash_tracking),
        retry_(cfg.retry) {
    retry_.validate();
    budget_.configure(retry_, ssd::FaultPlan{}.seed);
  }

  /// Issue (or re-drive) the op in `slot` on the bed's store path, with
  /// on_status(slot) / on_value(slot) as the store's completion.
  virtual void issue(u32 slot) = 0;
  /// Drain everything above the host-op gate; `done` runs when quiet.
  virtual void quiesce(sim::Task done) = 0;
  /// After a power cut and the device's mount: start the recovery of the
  /// host layers above it, fill in their counters, and run `done` when
  /// their mount ends. A bed with no host layer is done at once.
  virtual void remount(ssd::CrashOutcome& /*out*/, sim::Task done) {
    done();
  }

  [[nodiscard]] const HostOp& host_op(u32 slot) const { return ops_[slot]; }
  auto on_status(u32 slot) {
    return [this, slot](Status s) { complete(slot, s, ValueDesc{}); };
  }
  auto on_value(u32 slot) {
    return [this, slot](Status s, ValueDesc v) { complete(slot, s, v); };
  }

 private:
  /// Block beds isolate tenants by tagging keys; the KV device carries
  /// the namespace in the command instead.
  static constexpr bool kTagKeys = !std::is_same_v<Dev, kvapi::KvsDevice>;

  u32 start(HostOp::Kind kind, const TenantCtx& t, std::string_view key,
            ValueDesc v) {
    const u32 slot = ops_.acquire();
    HostOp& op = ops_[slot];
    op.kind = kind;
    op.ctx = t;
    op.value = v;
    op.attempt = 0;
    op.set_key(kTagKeys ? t.nsid : 0, key);
    return slot;
  }

  void complete(u32 slot, Status s, ValueDesc v) {
    HostOp& op = ops_[slot];
    if (retry_.should_retry(s, op.attempt) &&
        budget_.try_consume(eq().now())) {
      ++host_retries_;
      ++op.attempt;
      eq().schedule_after(budget_.jittered(retry_.backoff_for(op.attempt)),
                          [this, slot] { issue(slot); });
      return;
    }
    // The op stays live while its callback runs; the callback is moved
    // out first because it may issue ops that grow the pool.
    if (op.kind == HostOp::kRetrieve) {
      RetrieveDone got = std::move(op.got);
      got(s, v);
    } else {
      StoreDone done = std::move(op.done);
      done(s);
    }
    ops_.release(slot);
    if (ops_.usage().live != 0 || waiters_.empty()) return;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (sim::Task& w : waiters) quiesce(std::move(w));
  }

  RetryPolicy retry_;
  detail::RetryBudget budget_;
  SlotPool<HostOp> ops_;
  std::vector<sim::Task> waiters_;
  u64 host_retries_ = 0;
};

struct KvssdBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  kvftl::KvFtlConfig ftl;
  nvme::NvmeConfig nvme;
  kvapi::KvsApiConfig api;
  RetryPolicy retry;
  /// The bed's one crash switch: every layer keeps its crash ledger (the
  /// flash its OOB, each host layer its durability records), so
  /// simulate_crash() is available.
  bool crash_tracking = false;
};

/// KV-SSD tenancy is native: the device command carries the namespace
/// (an isolated keyspace in the KV-FTL) and posts to the tenant's SQ.
class KvssdBed final : public Bed<kvftl::KvFtl, kvapi::KvsDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit KvssdBed(const KvssdBedConfig& cfg = {}) : Bed(cfg) {}

  [[nodiscard]] u64 host_cpu_ns() const override {
    return device().host_cpu_ns();
  }
  [[nodiscard]] u64 device_bytes_used() const override {
    return ftl().device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return ftl().app_bytes_live();
  }
  [[nodiscard]] const char* name() const override { return "KV-SSD"; }

 private:
  void issue(u32 slot) override;
  void quiesce(sim::Task done) override { device().flush(std::move(done)); }
};

struct BlockBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
};

/// Raw block device bed (direct I/O experiments).
class BlockDirectBed final
    : public Drive<blockftl::BlockFtl, blockapi::BlockDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit BlockDirectBed(const BlockBedConfig& cfg = {})
      : Drive(cfg.dev, cfg.ftl, cfg.nvme, cfg.api) {}
};

struct LsmBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
  fs::FsConfig fs;
  lsm::LsmConfig lsm;
  RetryPolicy retry;
  /// The bed's one crash switch: every layer keeps its crash ledger (the
  /// flash its OOB, each host layer its durability records), so
  /// simulate_crash() is available.
  bool crash_tracking = false;
};

/// No device namespaces on the block path: keyspaces are tagged keys, and
/// the tenant's queue is a sticky hint on the block device:
///  - an op's get reads, and the WAL appends written while serving it,
///    ride its tenant's SQ;
///  - SST appends and compaction reads ride queue 0 (the store sets it
///    before each);
///  - the TRIMs and journal writes of the files an install deletes run in
///    a completion event, so they ride whichever queue the latest op set.
class LsmBed final : public Bed<blockftl::BlockFtl, blockapi::BlockDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit LsmBed(const LsmBedConfig& cfg = {});

  using KvStack::store;
  [[nodiscard]] u64 host_cpu_ns() const override;
  [[nodiscard]] u64 device_bytes_used() const override {
    return fs_.used_bytes();
  }
  [[nodiscard]] u64 app_bytes_live() const override { return app_bytes_; }
  void add_app_bytes(i64 delta) override {
    app_bytes_ = (u64)((i64)app_bytes_ + delta);
  }
  [[nodiscard]] const char* name() const override {
    return "RocksDB/ext4/block-SSD";
  }

  lsm::LsmStore& store() { return store_; }
  fs::FileSystem& fs() { return fs_; }

 private:
  void issue(u32 slot) override;
  void quiesce(sim::Task done) override;
  void remount(ssd::CrashOutcome& out, sim::Task done) override {
    store_.power_fail_and_recover(out, std::move(done));
  }

  fs::FileSystem fs_;
  lsm::LsmStore store_;
  u64 app_bytes_ = 0;
};

struct HashKvBedConfig {
  ssd::SsdConfig dev = ssd::SsdConfig::standard_device();
  blockftl::BlockFtlConfig ftl;
  nvme::NvmeConfig nvme;
  blockapi::BlockApiConfig api;
  hashkv::HashKvConfig store;
  RetryPolicy retry;
  /// The bed's one crash switch: every layer keeps its crash ledger (the
  /// flash its OOB, each host layer its durability records), so
  /// simulate_crash() is available.
  bool crash_tracking = false;
};

/// Same host-side tenancy as LsmBed, over direct I/O. The store's flushes
/// and defrag I/O ride whichever queue the latest op set.
class HashKvBed final : public Bed<blockftl::BlockFtl, blockapi::BlockDevice> {
 public:
  KVSIM_THREAD_CONFINED;
  explicit HashKvBed(const HashKvBedConfig& cfg = {});

  using KvStack::store;
  [[nodiscard]] u64 host_cpu_ns() const override;
  [[nodiscard]] u64 device_bytes_used() const override {
    return store_.device_bytes_used();
  }
  [[nodiscard]] u64 app_bytes_live() const override {
    return store_.app_bytes_live();
  }
  [[nodiscard]] const char* name() const override {
    return "Aerospike/block-SSD";
  }

  hashkv::HashKvStore& store() { return store_; }

 private:
  void issue(u32 slot) override;
  void quiesce(sim::Task done) override { store_.drain(std::move(done)); }
  void remount(ssd::CrashOutcome& out, sim::Task done) override {
    store_.power_fail_and_recover(out, std::move(done));
  }

  hashkv::HashKvStore store_;
};

}  // namespace kvsim::harness
