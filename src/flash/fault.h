// Flash-level fault model: per-operation fault decisions injected into the
// FlashController's command pipeline.
//
// The controller asks the attached FaultModel at command *issue* time what
// goes wrong with this specific read/program/erase: extra ECC retry rounds,
// an uncorrectable outcome after the retry table is exhausted, a hard
// program/erase failure (the block becomes a grown bad block), or a
// transient die/channel stall that stretches the op's latency. The model
// only *decides*; all timing is still charged through the controller's
// normal reservation path, and all *recovery* (remapping, re-programs,
// retiring blocks) is firmware policy implemented by the FTLs.
//
// Like the audit sink, attaching a model is opt-in: a null pointer check
// per command is the only cost when fault injection is off, and completion
// callbacks that do not care about status keep compiling (and keep their
// exact pre-fault behavior) unchanged.
#pragma once

#include "common/types.h"
#include "flash/geometry.h"

namespace kvsim::flash {

/// Outcome of one flash command, delivered to status-aware completion
/// callbacks (callables invocable with an OpStatus). Severity ordering is
/// meaningful for batched ops: the batch reports its worst page.
enum class OpStatus : u8 {
  kOk = 0,
  kTimeout,         ///< op exceeded the fault model's latency deadline
  kProgramFail,     ///< page program failed; block should be retired
  kEraseFail,       ///< block erase failed; block should be retired
  kUncorrectable,   ///< read failed ECC hard-decode after retry exhaustion
};

/// Fault decision for one page read.
struct ReadFault {
  u32 extra_retry_rounds = 0;  ///< injected ECC retry rounds (latency)
  bool uncorrectable = false;  ///< retries exhausted; data not recoverable
  TimeNs stall_ns = 0;         ///< transient die stall added to array time
};

/// Fault decision for one page program.
struct ProgramFault {
  bool fail = false;
  TimeNs stall_ns = 0;
};

/// Fault decision for one block erase.
struct EraseFault {
  bool fail = false;
  TimeNs stall_ns = 0;
};

/// Per-command fault oracle (implemented by ssd::FaultInjector). Hooks run
/// at issue time, once per page/block, in charge order — so a seeded
/// implementation is exactly as deterministic as the command stream.
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  virtual ReadFault on_read(PageId p) = 0;
  virtual ProgramFault on_program(PageId p) = 0;
  virtual EraseFault on_erase(BlockId b) = 0;
  /// End-to-end latency deadline: a command completing later than
  /// issue + deadline reports OpStatus::kTimeout (0 disables).
  [[nodiscard]] virtual TimeNs op_deadline_ns() const = 0;
};

}  // namespace kvsim::flash
