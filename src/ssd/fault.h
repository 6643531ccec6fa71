// Seeded, deterministic device fault injection (the "unhealthy drive"
// counterpart of the paper's healthy-device experiments).
//
// A FaultPlan describes *what media degradation looks like*: a per-block
// raw-bit-error rate that grows with P/E cycles (ending in uncorrectable
// reads once the ECC retry table is exhausted), hard program/erase
// failures that turn into grown bad blocks, and transient die stalls that
// surface as timeout-shaped latency spikes plus a device-busy window at
// the command front end. A FaultInjector draws those faults from one
// seeded Rng, per flash command, in charge order — so a given (plan,
// workload) pair replays bit-identically.
//
// Recovery is NOT implemented here. The injector only decides what the
// NAND does; each FTL reacts with its own firmware policy (remap lists,
// re-programs, blob re-placement, GC that skips retired blocks) and
// counts every action in FtlStats. When a plan is disabled no injector is
// constructed at all, the controller's fault pointer stays null, and the
// hot path is byte-identical to a build without this subsystem.
#pragma once

#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "flash/fault.h"
#include "flash/geometry.h"
#include "sim/event_queue.h"

namespace kvsim::ssd {

/// Knobs of one deterministic fault scenario. Probabilities are per flash
/// command (per page for reads/programs, per block for erases).
struct FaultPlan {
  bool enabled = false;  ///< master switch; false means "no injector at all"
  u64 seed = 0xfa17'fa17'fa17'fa17ull;  ///< fault-draw stream seed

  // --- uncorrectable reads (wear-dependent UBER) -------------------------
  /// Probability a page read is uncorrectable on a fresh (0 P/E) block.
  double read_uber_base = 0.0;
  /// Added per P/E cycle of the page's block: media wears out.
  double read_uber_per_pe = 0.0;
  /// Ceiling on the per-read probability.
  double read_uber_max = 0.02;
  /// ECC retry rounds charged before the read is declared uncorrectable
  /// (latency of walking the retry voltage table + hard-decode).
  u32 read_retry_rounds = 4;

  // --- program / erase failures (grown bad blocks) -----------------------
  double program_fail_prob = 0.0;  ///< per page program
  double erase_fail_prob = 0.0;    ///< per block erase

  // --- transient stalls / timeouts ---------------------------------------
  double stall_prob = 0.0;     ///< per command: die stalls for `stall_ns`
  TimeNs stall_ns = 2 * kMs;   ///< extra array time of one stall
  /// While a stall is in progress the command front end reports
  /// kDeviceBusy for this long (0 = stalls never bounce host commands).
  TimeNs busy_window_ns = 0;
  /// End-to-end flash-op deadline; slower ops report kTimeout (0 = off).
  TimeNs op_timeout_ns = 0;

  /// Throws std::invalid_argument on out-of-range knobs (probabilities
  /// outside [0, 1], a zero retry budget with a nonzero UBER, ...).
  void validate() const;
};

#define KVSIM_FAULT_KINDS(X)                                             \
  X(read_uncorrectable) /* reads declared uncorrectable */               \
  X(program_fails)                                                       \
  X(erase_fails)                                                         \
  X(stalls)             /* transient die stalls injected */

#define KVSIM_FAULT_STATS(X) \
  KVSIM_FAULT_KINDS(X) X(injected_retry_rounds) /* ECC rounds added */

/// Everything the injector did, for reports and assertions. Device-side
/// *recovery* actions are counted by the FTLs in FtlStats instead.
struct FaultStats {
  KVSIM_COUNTERS(KVSIM_FAULT_STATS)
  KVSIM_COUNTER_VISITOR(visit_faults, KVSIM_FAULT_KINDS)

  /// Faults injected, of every kind (retry rounds are their cost).
  [[nodiscard]] u64 total_faults() const {
    u64 n = 0;
    visit_faults([&n](const char*, u64 v) { n += v; }, *this);
    return n;
  }
};

/// Draws faults for the FlashController and tracks the state that makes
/// them wear-dependent (per-block P/E counts) and bursty (the busy
/// window). One injector serves exactly one flash substrate.
class FaultInjector final : public flash::FaultModel {
 public:
  KVSIM_THREAD_CONFINED;
  FaultInjector(const FaultPlan& plan, const flash::FlashGeometry& geom,
                const sim::EventQueue& eq);

  // flash::FaultModel
  flash::ReadFault on_read(flash::PageId p) override;
  flash::ProgramFault on_program(flash::PageId p) override;
  flash::EraseFault on_erase(flash::BlockId b) override;
  [[nodiscard]] TimeNs op_deadline_ns() const override {
    return plan_.op_timeout_ns;
  }

  /// Command-front-end gate: true while a recent stall keeps the firmware
  /// from accepting new host commands (FTLs answer kDeviceBusy).
  [[nodiscard]] bool host_busy() const { return eq_.now() < busy_until_; }

  /// Current uncorrectable-read probability of block `b` (test hook for
  /// the wear model).
  [[nodiscard]] double read_uber(flash::BlockId b) const;
  /// Completed erase count of block `b` (the injector's wear clock).
  [[nodiscard]] u32 pe_cycles(flash::BlockId b) const {
    return pe_cycles_[b];
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  void maybe_stall(TimeNs& stall_ns_out);

  FaultPlan plan_;
  const sim::EventQueue& eq_;
  Rng rng_;
  std::vector<u32> pe_cycles_;  ///< per block, incremented on erase
  u32 pages_per_block_;
  TimeNs busy_until_ = 0;
  FaultStats stats_;
};

}  // namespace kvsim::ssd
