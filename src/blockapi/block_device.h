// Host-side block device: the NVMe block command path over the block FTL
// (direct I/O — no page cache, matching the paper's methodology).
#pragma once

#include "blockftl/block_ftl.h"
#include "common/slot_pool.h"
#include "nvme/nvme_link.h"

#include "common/thread_annotations.h"

namespace kvsim::blockapi {

struct BlockApiConfig {
  /// Host CPU work per I/O syscall (io_submit / pread on a raw device).
  TimeNs syscall_ns = 1800;
};

class BlockDevice {
 public:
  KVSIM_THREAD_CONFINED;
  using Done = blockftl::BlockFtl::Done;
  using ReadDone = blockftl::BlockFtl::ReadDone;

  BlockDevice(sim::EventQueue& eq, nvme::NvmeLink& link,
              blockftl::BlockFtl& ftl, const BlockApiConfig& cfg = {})
      : eq_(eq), link_(link), ftl_(ftl), cfg_(cfg) {}

  /// Sticky submission-queue hint: subsequent I/Os post to NVMe queue
  /// `qid` until changed (how a multi-tenant block bed pins each tenant's
  /// syscalls to its own SQ; default queue 0).
  void set_queue(u32 qid) { qid_ = qid; }
  [[nodiscard]] u32 queue() const { return qid_; }

  void write(Lba lba, u32 bytes, u64 fp_base, Done done) {
    const u32 slot = start(lba, bytes, fp_base, std::move(done), nullptr);
    link_.submit_on(qid_, 1, bytes, [this, slot] {
      const Cmd& c = cmds_[slot];
      ftl_.write(c.lba, (u32)c.bytes, c.fp_base,
                 [this, slot](Status s) { complete(slot, s, 0, 0); });
    });
  }

  void read(Lba lba, u32 bytes, ReadDone done) {
    const u32 slot = start(lba, bytes, 0, nullptr, std::move(done));
    link_.submit_on(qid_, 1, 0, [this, slot] {
      const Cmd& c = cmds_[slot];
      ftl_.read(c.lba, (u32)c.bytes, [this, slot](Status s, u64 fp) {
        complete(slot, s, fp, cmds_[slot].bytes);
      });
    });
  }

  void trim(Lba lba, u64 bytes, Done done) {
    const u32 slot = start(lba, bytes, 0, std::move(done), nullptr);
    link_.submit_on(qid_, 1, 0, [this, slot] {
      const Cmd& c = cmds_[slot];
      ftl_.trim(c.lba, c.bytes,
                [this, slot](Status s) { complete(slot, s, 0, 0); });
    });
  }

  /// Power cut: commands in flight die with the event queue (their
  /// completions were discarded), so their records go too.
  void power_cycle() { cmds_.clear(); }
  /// Occupancy of the pooled per-command state (crash-recovery checks).
  [[nodiscard]] PoolUsage command_pool_usage() const {
    return cmds_.usage();
  }

  void flush(sim::Task done) { ftl_.flush(std::move(done)); }

  [[nodiscard]] u64 capacity_bytes() const { return ftl_.exported_bytes(); }
  [[nodiscard]] u64 host_cpu_ns() const {
    return api_cpu_ns_ + link_.host_cpu_ns();
  }
  blockftl::BlockFtl& ftl() { return ftl_; }
  [[nodiscard]] const blockftl::BlockFtl& ftl() const { return ftl_; }

 private:
  /// One command between submission and host completion. Exactly one of
  /// the callbacks is set.
  struct Cmd {
    Lba lba = 0;
    u64 bytes = 0;
    u64 fp_base = 0;
    u32 qid = 0;
    Status st = Status::kOk;
    u64 fp = 0;
    Done done;
    ReadDone read_done;
  };

  u32 start(Lba lba, u64 bytes, u64 fp_base, Done done, ReadDone read_done) {
    ftl_.prefetch(lba);
    api_cpu_ns_ += cfg_.syscall_ns;
    const u32 slot = cmds_.acquire();
    Cmd& c = cmds_[slot];
    c.lba = lba;
    c.bytes = bytes;
    c.fp_base = fp_base;
    c.qid = qid_;
    c.done = std::move(done);
    c.read_done = std::move(read_done);
    return slot;
  }

  /// The FTL finished the command: post its completion (`payload` bytes
  /// of read data ride back over the link) on the command's queue.
  void complete(u32 slot, Status s, u64 fp, u64 payload) {
    Cmd& c = cmds_[slot];
    c.st = s;
    c.fp = fp;
    link_.complete_on(c.qid, payload, [this, slot] {
      Cmd& c = cmds_[slot];
      Done done = std::move(c.done);
      ReadDone read_done = std::move(c.read_done);
      const Status st = c.st;
      const u64 fp = c.fp;
      cmds_.release(slot);  // before the callback, which may issue more I/O
      if (read_done) {
        read_done(st, fp);
      } else {
        done(st);
      }
    });
  }

  sim::EventQueue& eq_;
  nvme::NvmeLink& link_;
  blockftl::BlockFtl& ftl_;
  BlockApiConfig cfg_;
  u32 qid_ = 0;
  u64 api_cpu_ns_ = 0;
  SlotPool<Cmd> cmds_;
};

}  // namespace kvsim::blockapi
