#include "harness/stacks.h"

namespace kvsim::harness {

void KvssdBed::issue(u32 slot) {
  const HostOp& op = host_op(slot);
  switch (op.kind) {
    case HostOp::kStore:
      // Re-drives carry the attempt number as the stream hint so the FTL
      // may steer the retry to a different write point.
      device().store(op.key(), op.value, on_status(slot), (u8)op.attempt,
                     op.ctx.nsid, op.ctx.queue);
      return;
    case HostOp::kRetrieve:
      device().retrieve(op.key(), on_value(slot), op.ctx.nsid, op.ctx.queue);
      return;
    case HostOp::kRemove:
      device().remove(op.key(), on_status(slot), op.ctx.nsid, op.ctx.queue);
      return;
  }
}

LsmBed::LsmBed(const LsmBedConfig& cfg)
    : Bed(cfg), fs_(eq(), device(), cfg.fs), store_(eq(), fs_, cfg.lsm) {}

u64 LsmBed::host_cpu_ns() const {
  return store_.host_cpu_ns() + fs_.host_cpu_ns() + device().host_cpu_ns();
}

void LsmBed::issue(u32 slot) {
  const HostOp& op = host_op(slot);
  device().set_queue(op.ctx.queue);
  switch (op.kind) {
    case HostOp::kStore:
      store_.put(op.key(), op.value, on_status(slot));
      return;
    case HostOp::kRetrieve:
      store_.get(op.key(), on_value(slot), op.ctx.queue);
      return;
    case HostOp::kRemove:
      store_.del(op.key(), on_status(slot));
      return;
  }
}

void LsmBed::quiesce(sim::Task done) {
  store_.drain([this, done = std::move(done)]() mutable {
    ftl().flush(std::move(done));
  });
}

HashKvBed::HashKvBed(const HashKvBedConfig& cfg)
    : Bed(cfg), store_(eq(), device(), cfg.store) {}

u64 HashKvBed::host_cpu_ns() const {
  return store_.host_cpu_ns() + device().host_cpu_ns();
}

void HashKvBed::issue(u32 slot) {
  const HostOp& op = host_op(slot);
  device().set_queue(op.ctx.queue);
  switch (op.kind) {
    case HostOp::kStore:
      store_.put(op.key(), op.value, on_status(slot));
      return;
    case HostOp::kRetrieve:
      store_.get(op.key(), on_value(slot));
      return;
    case HostOp::kRemove:
      store_.del(op.key(), on_status(slot));
      return;
  }
}

}  // namespace kvsim::harness
