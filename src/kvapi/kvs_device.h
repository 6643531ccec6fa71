// SNIA-flavored KV Storage API (the paper's "KV API" box in Fig. 1).
//
// Thin host-side library over the NVMe KV command set: validates
// arguments, builds the vendor-specific commands (one or two per op
// depending on key length), and forwards to the KV-FTL. All operations
// are asynchronous (callback-based), matching the KDD async path used
// throughout the paper; synchronous behavior is queue-depth-1 issuance.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/inline_key.h"
#include "common/slot_pool.h"
#include "kvftl/kv_ftl.h"
#include "nvme/nvme_link.h"

#include "common/thread_annotations.h"

namespace kvsim::kvapi {

struct KvsApiConfig {
  /// Host CPU work per API call (argument marshalling, context setup).
  TimeNs api_call_ns = 1000;
};

class KvsDevice {
 public:
  KVSIM_THREAD_CONFINED;
  using StoreDone = kvftl::KvFtl::StoreDone;
  using RetrieveDone = kvftl::KvFtl::RetrieveDone;
  using ExistDone = kvftl::KvFtl::ExistDone;

  KvsDevice(sim::EventQueue& eq, nvme::NvmeLink& link, kvftl::KvFtl& ftl,
            const KvsApiConfig& cfg = {})
      : eq_(eq), link_(link), ftl_(ftl), cfg_(cfg) {}

  /// kvs_store_tuple: insert or overwrite. `stream` is an optional
  /// placement/hotness hint (extension; see KvFtlConfig::write_streams);
  /// `nsid` selects the key space (SNIA container semantics: key spaces
  /// are fully isolated); `qid` selects the NVMe submission queue the
  /// command posts to (multi-queue tenancy; see nvme/nvme_link.h).
  void store(std::string_view key, ValueDesc value, StoreDone done,
             u8 stream = 0, u8 nsid = 0, u32 qid = 0);
  /// kvs_retrieve_tuple: point lookup.
  void retrieve(std::string_view key, RetrieveDone done, u8 nsid = 0,
                u32 qid = 0);
  /// kvs_delete_tuple.
  void remove(std::string_view key, StoreDone done, u8 nsid = 0,
              u32 qid = 0);
  /// kvs_exist_tuples (single key).
  void exist(std::string_view key, ExistDone done, u8 nsid = 0, u32 qid = 0);
  /// KVPs stored in one key space.
  [[nodiscard]] u64 kvp_count_in(u8 nsid) const {
    return ftl_.kvp_count_in(nsid);
  }
  /// kvs_delete_key_space: remove every key of a namespace (requires the
  /// device's iterator key tracking; completes after the last delete).
  void delete_namespace(u8 nsid, std::function<void(u64 removed)> done);
  /// Iterator: bucket group ids and per-group key listing.
  [[nodiscard]] std::vector<u32> iterator_bucket_ids() const {
    return ftl_.iterator_bucket_ids();
  }
  void iterate_bucket(u32 bucket,
                      std::function<void(std::vector<std::string>)> done) {
    ftl_.iterate_bucket(bucket, std::move(done));
  }

  void flush(sim::Task done) { ftl_.flush(std::move(done)); }

  /// Power cut: commands in flight die with the event queue (their
  /// completions were discarded), so their records go too.
  void power_cycle() { cmds_.clear(); }
  /// Occupancy of the pooled per-command state (crash-recovery checks).
  [[nodiscard]] PoolUsage command_pool_usage() const {
    return cmds_.usage();
  }

  /// Host CPU consumed by the API + driver (submission + completions).
  [[nodiscard]] u64 host_cpu_ns() const {
    return api_cpu_ns_ + link_.host_cpu_ns();
  }
  kvftl::KvFtl& ftl() { return ftl_; }
  [[nodiscard]] const kvftl::KvFtl& ftl() const { return ftl_; }

 private:
  /// One command between submission and host completion: what the NVMe
  /// command carries (the key is copied, since callers pass temporaries)
  /// and the FTL's answer for the return leg. Exactly one callback is set.
  struct Cmd {
    InlineKey key;
    ValueDesc value;  ///< store: the value; retrieve: the FTL's value
    StoreDone done;   ///< store, remove
    RetrieveDone got;
    ExistDone answered;
    Status st = Status::kOk;
    bool found = false;
    u8 stream = 0;
    u8 nsid = 0;
    u32 qid = 0;
  };

  /// A delete_namespace in progress: the namespace's keys as the call
  /// found them, removed one at a time. Each remove's callback owns the
  /// record and hands it to the next.
  struct NsDelete {
    u8 nsid = 0;
    std::vector<std::string> keys;
    size_t next = 0;  // the next key to remove
    u64 removed = 0;
    std::function<void(u64 removed)> done;
  };
  void delete_next(std::unique_ptr<NsDelete> del);

  /// Charge the API call and open a record for `key`.
  u32 start(std::string_view key, u8 nsid, u32 qid);
  /// The FTL finished command `slot`: post its completion (`v.size` bytes
  /// of read data ride back over the link) on the command's queue.
  void complete(u32 slot, Status s, ValueDesc v = {}, bool found = false);
  /// Deliver the completion: release the record, then run the callback,
  /// which may issue more commands.
  void finish(u32 slot);

  [[nodiscard]] u32 key_cmds(std::string_view key) const {
    return nvme::kv_commands_for_key(link_.config(), (u32)key.size());
  }

  sim::EventQueue& eq_;
  nvme::NvmeLink& link_;
  kvftl::KvFtl& ftl_;
  KvsApiConfig cfg_;
  u64 api_cpu_ns_ = 0;
  SlotPool<Cmd> cmds_;
};

}  // namespace kvsim::kvapi
