#include "ssd/fault.h"

#include <algorithm>
#include <stdexcept>

namespace kvsim::ssd {

namespace {
void check_prob(double p, const char* name) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " must be in [0, 1]");
}
}  // namespace

void FaultPlan::validate() const {
  check_prob(read_uber_base, "read_uber_base");
  check_prob(read_uber_max, "read_uber_max");
  check_prob(program_fail_prob, "program_fail_prob");
  check_prob(erase_fail_prob, "erase_fail_prob");
  check_prob(stall_prob, "stall_prob");
  if (read_uber_per_pe < 0.0)
    throw std::invalid_argument("FaultPlan: read_uber_per_pe must be >= 0");
  if (read_uber_base > read_uber_max)
    throw std::invalid_argument(
        "FaultPlan: read_uber_base must not exceed read_uber_max");
  if ((read_uber_base > 0.0 || read_uber_per_pe > 0.0) &&
      read_retry_rounds == 0)
    throw std::invalid_argument(
        "FaultPlan: a nonzero UBER needs read_retry_rounds >= 1 "
        "(an uncorrectable read exhausts the retry table first)");
  if (stall_prob > 0.0 && stall_ns == 0)
    throw std::invalid_argument(
        "FaultPlan: stall_prob > 0 needs a nonzero stall_ns");
}

FaultInjector::FaultInjector(const FaultPlan& plan,
                             const flash::FlashGeometry& geom,
                             const sim::EventQueue& eq)
    : plan_(plan),
      eq_(eq),
      rng_(plan.seed),
      pe_cycles_(geom.total_blocks()),
      pages_per_block_(geom.pages_per_block) {
  plan_.validate();
}

double FaultInjector::read_uber(flash::BlockId b) const {
  return std::min(plan_.read_uber_max,
                  plan_.read_uber_base +
                      plan_.read_uber_per_pe * (double)pe_cycles_[b]);
}

void FaultInjector::maybe_stall(TimeNs& stall_ns_out) {
  if (plan_.stall_prob <= 0.0 || !rng_.chance(plan_.stall_prob)) return;
  stall_ns_out = plan_.stall_ns;
  ++stats_.stalls;
  if (plan_.busy_window_ns > 0)
    busy_until_ = std::max(busy_until_, eq_.now() + plan_.busy_window_ns);
}

flash::ReadFault FaultInjector::on_read(flash::PageId p) {
  flash::ReadFault f;
  maybe_stall(f.stall_ns);
  const double uber = read_uber(p / pages_per_block_);
  if (uber > 0.0 && rng_.chance(uber)) {
    // Retry exhaustion: the controller walks `read_retry_rounds` voltage
    // shifts (all charged as array time) and still cannot hard-decode.
    f.uncorrectable = true;
    f.extra_retry_rounds = plan_.read_retry_rounds;
    ++stats_.read_uncorrectable;
    stats_.injected_retry_rounds += f.extra_retry_rounds;
  }
  return f;
}

flash::ProgramFault FaultInjector::on_program(flash::PageId) {
  flash::ProgramFault f;
  maybe_stall(f.stall_ns);
  if (plan_.program_fail_prob > 0.0 &&
      rng_.chance(plan_.program_fail_prob)) {
    f.fail = true;
    ++stats_.program_fails;
  }
  return f;
}

flash::EraseFault FaultInjector::on_erase(flash::BlockId b) {
  flash::EraseFault f;
  maybe_stall(f.stall_ns);
  // The erase stresses the block whether or not it succeeds; wear (and
  // with it the block's UBER) only moves forward.
  ++pe_cycles_[b];
  if (plan_.erase_fail_prob > 0.0 && rng_.chance(plan_.erase_fail_prob)) {
    f.fail = true;
    ++stats_.erase_fails;
  }
  return f;
}

}  // namespace kvsim::ssd
