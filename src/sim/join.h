// Status-collecting join latch for host layers that fan one request out
// into several device commands.
#pragma once

#include <memory>
#include <utility>

#include "common/types.h"
#include "sim/task.h"

namespace kvsim::sim {

/// Runs `then` after `remaining` arrivals, with the first non-Ok status
/// seen: device faults propagate, and later arrivals cannot clear an
/// earlier error.
struct Join {
  int remaining;
  Status st = Status::kOk;
  Fn<void(Status)> then;
  void arrive(Status s = Status::kOk) {
    if (s != Status::kOk && st == Status::kOk) st = s;
    if (--remaining == 0) then(st);
  }
};

inline std::shared_ptr<Join> make_join(int n, Fn<void(Status)> then) {
  auto j = std::make_shared<Join>();
  j->remaining = n;
  j->then = std::move(then);
  return j;
}

}  // namespace kvsim::sim
