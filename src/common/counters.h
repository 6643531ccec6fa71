// One field list per counter struct.
//
// A counter struct names its u64 counters once, in an X-macro list
//
//   #define KVSIM_FOO_COUNTERS(X) X(reads) X(writes) /* doc */ X(stalls)
//   struct Foo { KVSIM_COUNTERS(KVSIM_FOO_COUNTERS) };
//
// KVSIM_COUNTERS declares each counter as a zeroed u64 member and a static
// `visit(f, s...)` that calls f("name", s.name...) for every counter in
// list order, across any number of structs of the type. The field-wise
// delta, sum and "any nonzero" test below, the report's JSON emitters and
// the tests all walk that one visitor, so a new counter is one line in one
// list. A group inside a list that a report emits or tests apart (say, the
// fault counters of FtlStats) is a list of its own, and
// KVSIM_COUNTER_VISITOR gives it a visitor of its own.
#pragma once

#include "common/types.h"

#define KVSIM_COUNTER_MEMBER_(name) u64 name = 0;
#define KVSIM_COUNTER_VISIT_(name) f(#name, s.name...);

/// Defines `static void fn(f, s...)`, which calls f("name", s.name...) for
/// every counter of LIST, in list order.
#define KVSIM_COUNTER_VISITOR(fn, LIST)                    \
  template <typename F, typename... S>                     \
  static constexpr void fn(F&& f, S&... s) {               \
    LIST(KVSIM_COUNTER_VISIT_)                             \
  }

/// Declares LIST's counters as zeroed u64 members, and `visit` over them.
#define KVSIM_COUNTERS(LIST)   \
  LIST(KVSIM_COUNTER_MEMBER_)  \
  KVSIM_COUNTER_VISITOR(visit, LIST)

namespace kvsim {

/// Field-wise `b - a`: what the counters of `T` did between two reads.
template <typename T>
[[nodiscard]] T counter_delta(const T& a, const T& b) {
  T d;
  T::visit([](const char*, u64& out, u64 x, u64 y) { out = y - x; }, d, a,
           b);
  return d;
}

/// Sum of every counter of `s`.
template <typename T>
[[nodiscard]] u64 counter_sum(const T& s) {
  u64 n = 0;
  T::visit([&n](const char*, u64 v) { n += v; }, s);
  return n;
}

/// True when any counter of `s` is nonzero.
template <typename T>
[[nodiscard]] bool any_counter(const T& s) {
  u64 any = 0;
  T::visit([&any](const char*, u64 v) { any |= v; }, s);
  return any != 0;
}

}  // namespace kvsim
