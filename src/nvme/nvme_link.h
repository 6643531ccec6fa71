// Vendor-specific NVMe command-set model for the KV interface (Sec. IV,
// "Impact of new host-side software stack", Fig. 8).
//
// Every KV API request becomes one or more fixed-size 64 B NVMe commands:
// a command carries at most 16 B of key inline, so keys longer than 16 B
// need a second command just to deliver the key. Each command costs
// host-side submission work and device-side fetch/parse work (serialized
// on the device's command processor); payloads move over a shared PCIe
// link. The HotStorage'19 compound-command proposal the paper cites is
// available as an ablation flag (`compound_commands`), which collapses
// multi-command operations back to one.
//
// Multi-queue front-end (docs/API.md "Multi-queue & tenancy"): the link
// exposes `num_queues` submission/completion queue pairs, and one queue
// takes the same path as many. Submissions park in bounded per-queue
// FIFOs and a weighted-round-robin arbiter (wrr_arbiter.h) fetches one
// command at a time into the shared command processor; completion DMA is
// not arbitrated (matching NVMe, where arbitration governs
// submission-queue fetch only). Per-queue stats split every command's
// life into queue wait vs device service via the sim::Resource Grant
// accounting.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/counters.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "nvme/wrr_arbiter.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace kvsim::nvme {

struct NvmeConfig {
  u32 command_bytes = 64;
  u32 inline_key_bytes = 16;
  /// Host CPU work to build + ring one submission-queue entry.
  TimeNs host_submit_ns = 800;
  /// Device command fetch/parse work per command (serialized on the
  /// device's command processor; this is what makes the second command of
  /// a >16 B-key operation expensive, Fig. 8).
  TimeNs device_fetch_ns = 2000;
  /// Completion-path work (CQ entry + interrupt amortization).
  TimeNs completion_ns = 500;
  /// PCIe gen3 x4 effective payload rate (bytes per ns).
  double bus_bytes_per_ns = 3.2;
  /// Ablation: compound commands (one command regardless of key size).
  bool compound_commands = false;

  // --- multi-queue front-end ---------------------------------------------
  /// Submission/completion queue pairs, all fetched through the arbiter.
  u32 num_queues = 1;
  /// Bounded per-queue submission depth. Posting past this depth means
  /// the host spun on a full doorbell; order is preserved, the overflow
  /// is counted per queue (`sq_full_stalls`).
  u32 sq_depth = 1024;
  /// WRR credit multiplier: a round grants queue q
  /// `queue_weights[q] * arbitration_burst` command fetches.
  u32 arbitration_burst = 4;
  /// Per-queue WRR weights. Empty = weight 1 everywhere; otherwise must
  /// hold exactly `num_queues` entries, each >= 1.
  std::vector<u32> queue_weights;
  /// Queues in the strict-priority urgent class: fetched ahead of the WRR
  /// rounds, bounded by `urgent_credit_cap` priority fetches per round
  /// (see WrrArbiter). Empty = no urgent class (the plain WRR model).
  /// Derivable from a tenant mix via TenantMix::urgent_queues().
  std::vector<u32> urgent_queues;
  /// Starvation bound for the urgent class: priority fetches per credit
  /// round; past it urgent queues compete through WRR like everyone else.
  u32 urgent_credit_cap = 8;
  /// Doorbell re-poll delay charged to a post that finds its SQ full: the
  /// entry joins the queue only after this many ns (per-queue FIFO order
  /// preserved), so sq_full_stalls show up in queue-wait telemetry
  /// instead of being a free counter. 0 = the pre-repoll model (the
  /// overflow entry is parked immediately).
  TimeNs sq_repoll_ns = 1000;

  /// Throws std::invalid_argument on nonsense (zero rates, zero depths,
  /// weight-vector shape mismatches). Called by NvmeLink's constructor.
  void validate() const {
    auto fail = [](const char* what) {
      throw std::invalid_argument(std::string("NvmeConfig: ") + what);
    };
    if (command_bytes == 0) fail("command_bytes must be > 0");
    if (!(bus_bytes_per_ns > 0.0) ||
        !std::isfinite(bus_bytes_per_ns))
      fail("bus_bytes_per_ns must be finite and > 0");
    if (num_queues == 0) fail("num_queues must be >= 1");
    if (sq_depth == 0) fail("sq_depth must be >= 1");
    if (arbitration_burst == 0) fail("arbitration_burst must be >= 1");
    if (!queue_weights.empty()) {
      if (queue_weights.size() != num_queues)
        fail("queue_weights must be empty or hold num_queues entries");
      for (u32 w : queue_weights)
        if (w == 0) fail("queue weights must be >= 1");
    }
    if (!urgent_queues.empty()) {
      if (urgent_credit_cap == 0)
        fail("urgent class requires urgent_credit_cap >= 1");
      for (u32 q : urgent_queues)
        if (q >= num_queues) fail("urgent queue id out of range");
    }
  }
};

/// Commands needed to ship a KV operation's key.
constexpr u32 kv_commands_for_key(const NvmeConfig& cfg, u32 key_bytes) {
  if (cfg.compound_commands) return 1;
  return key_bytes <= cfg.inline_key_bytes ? 1u : 2u;
}

/// Per-queue counters, maintained by NvmeLink. The wait/service split
/// comes from the command processor's Grant: wait is posted-to-fetch-start
/// (queueing + arbitration), service is fetch work plus the payload's bus
/// transfer.
#define KVSIM_NVME_QUEUE_STATS(X)                                         \
  X(submissions)        /* host ops posted to this queue */               \
  X(commands)           /* SQ entries (>= submissions; Fig. 8 keys) */    \
  X(payload_bytes)      /* host-to-device payload over the bus */         \
  X(completions)        /* CQ entries delivered */                        \
  X(completion_bytes)   /* device-to-host payload over the bus */         \
  X(queue_wait_ns)      /* sum of posted -> fetch-start */                \
  X(service_ns)         /* sum of fetch + payload transfer */             \
  X(sq_full_stalls)     /* posts that found the SQ at sq_depth */         \
  X(arbitration_stalls) /* passed over with work but no credits */        \
  X(max_occupancy)      /* high-water SQ depth */

struct NvmeQueueStats {
  KVSIM_COUNTERS(KVSIM_NVME_QUEUE_STATS)
};

class NvmeLink {
 public:
  KVSIM_THREAD_CONFINED;
  NvmeLink(sim::EventQueue& eq, const NvmeConfig& cfg)
      : eq_(eq), cfg_(cfg), arb_(arbiter_for(cfg)),
        queues_(cfg.num_queues) {}

  /// Deliver an operation to the device on queue `qid` (clamped to the
  /// configured queue count): `ncmds` command fetches plus
  /// `payload_bytes` over the bus; `at_device` runs when the device may
  /// begin executing it. Host submission work is accounted to
  /// host_cpu_ns().
  void submit_on(u32 qid, u32 ncmds, u64 payload_bytes, sim::Task at_device) {
    host_cpu_ns_ += (u64)ncmds * cfg_.host_submit_ns;
    commands_issued_ += ncmds;
    Queue& q = queue(qid);
    ++q.stats.submissions;
    q.stats.commands += ncmds;
    q.stats.payload_bytes += payload_bytes;
    const TimeNs now = eq_.now();
    if (q.sq.size() >= cfg_.sq_depth || q.deferred > 0) {
      // Doorbell full (or earlier posts from this queue still spinning on
      // it): the host re-polls after sq_repoll_ns and the entry joins the
      // SQ only then, so the stall has a latency consequence that lands
      // in queue-wait telemetry (`posted` keeps the original post time).
      // The defer-tail chain preserves per-queue FIFO order, and the
      // entry is parked even if the queue is still at depth when the
      // re-poll fires — posts are never dropped, matching the old
      // overflow-tolerated semantics.
      ++q.stats.sq_full_stalls;
      const TimeNs at = std::max(now + cfg_.sq_repoll_ns, q.defer_tail);
      q.defer_tail = at;
      ++q.deferred;
      const u32 qi =
          qid < (u32)queues_.size() ? qid : (u32)queues_.size() - 1;
      eq_.schedule_at(
          at, sim::Task([this, qi,
                         e = SqEntry{ncmds, payload_bytes, now,
                                     std::move(at_device)}]() mutable {
            Queue& dq = queues_[qi];
            --dq.deferred;
            park(dq, std::move(e));
          }));
      return;
    }
    park(q, SqEntry{ncmds, payload_bytes, now, std::move(at_device)});
  }

  /// Deliver a completion (optionally with read payload) back to the host
  /// on completion queue `qid`. CQ delivery is device-initiated DMA and
  /// is not arbitrated (NVMe arbitration governs SQ fetch only); the
  /// payload still shares the PCIe link with submissions.
  void complete_on(u32 qid, u64 payload_bytes, sim::Task at_host) {
    host_cpu_ns_ += cfg_.completion_ns;
    Queue& q = queue(qid);
    ++q.stats.completions;
    q.stats.completion_bytes += payload_bytes;
    TimeNs t = eq_.now();
    if (payload_bytes > 0) t = bus_.reserve(t, xfer_ns(payload_bytes));
    eq_.schedule_at(t, std::move(at_host));
  }

  /// Power cut: queued commands and in-flight transfers vanish with the
  /// submission queues; the link itself is stateless across the cycle.
  /// Counters survive (telemetry, not device state).
  void power_cycle(TimeNs now) {
    cmd_proc_.power_cycle(now);
    bus_.power_cycle(now);
    for (Queue& q : queues_) {
      q.sq.clear();
      q.deferred = 0;  // the landing events died with the event queue
      q.defer_tail = 0;
    }
    fetch_armed_ = false;
  }

  [[nodiscard]] const NvmeConfig& config() const { return cfg_; }
  [[nodiscard]] u64 host_cpu_ns() const { return host_cpu_ns_; }
  [[nodiscard]] u64 commands_issued() const { return commands_issued_; }
  [[nodiscard]] u32 num_queues() const { return (u32)queues_.size(); }
  /// Commands currently parked in queue `qid`.
  [[nodiscard]] u64 queue_backlog(u32 qid) const {
    return queues_[qid].sq.size();
  }
  /// Per-queue counters; arbitration stalls merge in from the arbiter.
  [[nodiscard]] NvmeQueueStats queue_stats(u32 qid) const {
    NvmeQueueStats s = queues_[qid].stats;
    s.arbitration_stalls = arb_.stalls(qid);
    return s;
  }
  /// WRR credit-window replenishes since start.
  [[nodiscard]] u64 arbitration_rounds() const { return arb_.rounds(); }
  /// Command fetches granted through the urgent-class fast path (0 when
  /// no queue is urgent).
  [[nodiscard]] u64 urgent_fetches() const { return arb_.urgent_fetches(); }

  /// Bus transfer time for `bytes`, rounded *up* to the next nanosecond.
  /// Truncating toward zero undercharged every transfer by up to 1 ns,
  /// compounding over millions of ops.
  [[nodiscard]] TimeNs xfer_ns(u64 bytes) const {
    return (TimeNs)std::ceil((double)bytes / cfg_.bus_bytes_per_ns);
  }

 private:
  /// One parked submission.
  struct SqEntry {
    u32 ncmds;
    u64 payload_bytes;
    TimeNs posted;
    sim::Task at_device;
  };
  /// A submission queue's parked entries: a FIFO ring that doubles when
  /// full and keeps its capacity, so a warm queue parks and fetches
  /// without allocating.
  class SqRing {
   public:
    [[nodiscard]] u64 size() const { return size_; }
    void push_back(SqEntry&& e) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(e);
      ++size_;
    }
    /// The oldest entry, in place; pop_front() then drops it (its task
    /// moved out or not, the slot's next push_back replaces it).
    [[nodiscard]] SqEntry& front() { return slots_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }
    /// Drop every entry, destroying its task.
    void clear() {
      for (; size_ > 0; pop_front()) front().at_device = nullptr;
    }

   private:
    void grow() {
      std::vector<SqEntry> bigger(std::max<size_t>(8, slots_.size() * 2));
      for (u64 i = 0; i < size_; ++i)
        bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
      slots_.swap(bigger);
      head_ = 0;
    }
    std::vector<SqEntry> slots_;  // a power-of-two count
    u64 head_ = 0;
    u64 size_ = 0;
  };
  struct Queue {
    SqRing sq;
    NvmeQueueStats stats;
    u64 deferred = 0;       ///< posts waiting out a doorbell re-poll
    TimeNs defer_tail = 0;  ///< landing time of the latest deferred post
  };

  /// The arbiter `cfg` describes (validating `cfg` first): weight 1
  /// where `cfg` gives none, and its urgent queues flagged.
  static WrrArbiter arbiter_for(const NvmeConfig& cfg) {
    cfg.validate();
    std::vector<u32> weights = cfg.queue_weights;
    if (weights.empty()) weights.assign(cfg.num_queues, 1);
    std::vector<u8> urgent;
    if (!cfg.urgent_queues.empty()) {
      urgent.assign(cfg.num_queues, 0);
      for (u32 q : cfg.urgent_queues) urgent[q] = 1;
    }
    return WrrArbiter(std::move(weights), cfg.arbitration_burst,
                      std::move(urgent), cfg.urgent_credit_cap);
  }

  Queue& queue(u32 qid) {
    return queues_[qid < queues_.size() ? qid : (u32)queues_.size() - 1];
  }

  /// Land an entry in the SQ. An idle command processor fetches at once;
  /// a busy one gets a fetch armed for when it frees up, unless one is
  /// armed already.
  void park(Queue& q, SqEntry&& e) {
    q.sq.push_back(std::move(e));
    if (q.sq.size() > q.stats.max_occupancy)
      q.stats.max_occupancy = q.sq.size();
    if (fetch_armed_) return;
    if (cmd_proc_.free_at() <= eq_.now()) {
      fetch();
    } else {
      arm_fetch(cmd_proc_.free_at());
    }
  }

  void arm_fetch(TimeNs at) {
    fetch_armed_ = true;
    eq_.schedule_at(at, sim::Task([this] { fetch(); }));
  }

  /// Fetch/parse plus the 64 B command header's own bus time.
  [[nodiscard]] TimeNs command_cost_ns() const {
    return cfg_.device_fetch_ns + xfer_ns(cfg_.command_bytes);
  }

  /// Fetch the command the WRR arbiter picks into the command processor.
  /// The device pulls one SQ entry at a time, which is what makes
  /// per-queue weights meaningful at saturation. While an SQ still holds
  /// an entry, the next fetch is armed at the processor's free time, so
  /// the arbiter decides among what the queues hold then.
  void fetch() {
    fetch_armed_ = false;
    const int pick =
        arb_.pick([this](u32 q) { return queues_[q].sq.size(); });
    if (pick < 0) return;
    Queue& q = queues_[(u32)pick];
    SqEntry& e = q.sq.front();
    const sim::Resource::Grant g = cmd_proc_.reserve(
        eq_.now(), (TimeNs)e.ncmds * command_cost_ns());
    TimeNs t = g.done;
    if (e.payload_bytes > 0) t = bus_.reserve(t, xfer_ns(e.payload_bytes));
    q.stats.queue_wait_ns += g.start - e.posted;
    q.stats.service_ns += t - g.start;
    eq_.schedule_at(t, std::move(e.at_device));
    q.sq.pop_front();
    for (const Queue& other : queues_)
      if (other.sq.size() != 0) {
        arm_fetch(g.done);
        return;
      }
  }

  sim::EventQueue& eq_;
  NvmeConfig cfg_;
  sim::Resource cmd_proc_;  // device command fetch/parse
  sim::Resource bus_;       // PCIe payload link
  WrrArbiter arb_;
  std::vector<Queue> queues_;
  bool fetch_armed_ = false;  // a fetch event is on the queue
  u64 host_cpu_ns_ = 0;
  u64 commands_issued_ = 0;
};

}  // namespace kvsim::nvme
