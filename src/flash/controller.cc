#include "flash/controller.h"

#include <algorithm>

namespace kvsim::flash {

FlashController::FlashController(sim::EventQueue& eq,
                                 const FlashGeometry& geom,
                                 const FlashTiming& timing)
    : eq_(eq),
      geom_(geom),
      timing_(timing),
      dies_(geom.total_dies()),
      channels_(geom.channels),
      retry_rng_(0xecc0ecc0ecc0ull) {}

FlashController::OpCharge FlashController::charge_read(PageId p, u32 bytes) {
  if (audit_) audit_->on_read(p, bytes);
  const u64 die = geom_.die_of_page(p);
  const u32 ch = geom_.channel_of_page(p);
  TimeNs array_ns = timing_.read_page_ns;
  if (timing_.read_retry_prob > 0.0) {
    // Each ECC soft-decode failure re-reads with shifted voltages. Rounds
    // are capped: real controllers exhaust their retry voltage table and
    // hand the sector to hard-decode/RAID recovery, and an uncapped loop
    // livelocks when the configured probability reaches 1.
    for (u32 round = 0; round < kMaxReadRetryRounds &&
                        retry_rng_.chance(timing_.read_retry_prob);
         ++round) {
      array_ns += timing_.read_retry_ns;
      ++stats_.read_retries;
    }
  }
  OpStatus st = OpStatus::kOk;
  if (faults_ != nullptr) {
    const ReadFault f = faults_->on_read(p);
    if (f.extra_retry_rounds > 0) {
      // Injected ECC retries walk the retry voltage table; the rounds are
      // real array time and count into the same retry telemetry.
      array_ns += (TimeNs)f.extra_retry_rounds * timing_.read_retry_ns;
      stats_.read_retries += f.extra_retry_rounds;
    }
    array_ns += f.stall_ns;
    if (f.uncorrectable) st = OpStatus::kUncorrectable;
  }
  const sim::Resource::Grant array =
      dies_[die].reserve(eq_.now(), array_ns);
  const sim::Resource::Grant xfer =
      channels_[ch].reserve(array.done, timing_.transfer_ns(bytes));
  read_stages_.die_wait.record(array.wait);
  read_stages_.die_service.record(array.service);
  read_stages_.channel_wait.record(xfer.wait);
  read_stages_.transfer.record(xfer.service);
  read_stages_.total.record(xfer.done - eq_.now());
  ++stats_.page_reads;
  stats_.bytes_read += bytes;
  return {xfer.done, apply_deadline(st, xfer.done)};
}

FlashController::OpCharge FlashController::charge_program(PageId p,
                                                          u32 bytes) {
  if (audit_) audit_->on_program(p);
  OpStatus st = OpStatus::kOk;
  TimeNs stall_ns = 0;
  if (faults_ != nullptr) {
    const ProgramFault f = faults_->on_program(p);
    if (f.fail) st = OpStatus::kProgramFail;
    stall_ns = f.stall_ns;
  }
  const sim::Resource::Grant xfer = channels_[geom_.channel_of_page(p)].reserve(
      eq_.now(), timing_.transfer_ns(bytes));
  const sim::Resource::Grant prog = dies_[geom_.die_of_page(p)].reserve(
      xfer.done, timing_.program_page_ns + stall_ns);
  program_stages_.channel_wait.record(xfer.wait);
  program_stages_.transfer.record(xfer.service);
  program_stages_.die_wait.record(prog.wait);
  program_stages_.die_service.record(prog.service);
  program_stages_.total.record(prog.done - eq_.now());
  ++stats_.page_programs;
  stats_.bytes_programmed += bytes;
  if (oob_on_) {
    // Commit staged OOB at issue time (synchronously — no extra events,
    // so crash-free event streams are identical with tracking on).
    // Failed programs leave no readable OOB (the FTL re-drives the data
    // elsewhere), and pages with nothing staged (the KV FTL's abstract
    // index-charge traffic) commit nothing.
    auto it = staged_oob_.find(p);
    if (it != staged_oob_.end()) {
      if (st != OpStatus::kProgramFail)
        oob_[p] = PageOob{oob_epoch_++, prog.done, std::move(it->second)};
      staged_oob_.erase(it);
    }
  }
  return {prog.done, apply_deadline(st, prog.done)};
}

FlashController::OpCharge FlashController::charge_erase(BlockId b) {
  if (audit_) audit_->on_erase(b);
  const u64 die = geom_.die_of_block(b);
  OpStatus st = OpStatus::kOk;
  TimeNs stall_ns = 0;
  if (faults_ != nullptr) {
    const EraseFault f = faults_->on_erase(b);
    if (f.fail) st = OpStatus::kEraseFail;
    stall_ns = f.stall_ns;
  }
  const sim::Resource::Grant erase =
      dies_[die].reserve(eq_.now(), timing_.erase_block_ns + stall_ns);
  erase_stages_.die_wait.record(erase.wait);
  erase_stages_.die_service.record(erase.service);
  erase_stages_.channel_wait.record(0);
  erase_stages_.transfer.record(0);
  erase_stages_.total.record(erase.done - eq_.now());
  ++stats_.block_erases;
  if (oob_on_) {
    const PageId base = geom_.page_id(b, 0);
    for (u32 p = 0; p < geom_.pages_per_block; ++p) {
      oob_.erase(base + p);
      staged_oob_.erase(base + p);
    }
  }
  return {erase.done, apply_deadline(st, erase.done)};
}

void FlashController::stage_oob(PageId page, std::vector<OobEntry> entries) {
  if (!oob_on_) return;
  staged_oob_[page] = std::move(entries);
}

std::vector<PageId> FlashController::power_loss(TimeNs now) {
  std::vector<PageId> torn;
  for (auto it = oob_.begin(); it != oob_.end();) {
    if (it->second.durable_at > now) {
      torn.push_back(it->first);
      it = oob_.erase(it);
    } else {
      ++it;
    }
  }
  staged_oob_.clear();
  for (auto& d : dies_) d.power_cycle(now);
  for (auto& c : channels_) c.power_cycle(now);
  return torn;
}

TimeNs FlashController::total_die_busy_ns() const {
  TimeNs sum = 0;
  for (const auto& d : dies_) sum += d.busy_time();
  return sum;
}

TimeNs FlashController::total_channel_busy_ns() const {
  TimeNs sum = 0;
  for (const auto& c : channels_) sum += c.busy_time();
  return sum;
}

double FlashController::max_die_utilization() const {
  if (eq_.now() == 0) return 0.0;
  TimeNs busiest = 0;
  for (const auto& d : dies_) busiest = std::max(busiest, d.busy_time());
  return (double)busiest / (double)eq_.now();
}

double FlashController::mean_die_utilization() const {
  if (eq_.now() == 0 || dies_.empty()) return 0.0;
  return (double)total_die_busy_ns() /
         ((double)eq_.now() * (double)dies_.size());
}

}  // namespace kvsim::flash
