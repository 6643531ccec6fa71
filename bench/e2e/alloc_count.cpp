// Global operator new/delete replacements that count every heap
// allocation in the process (harness.allocs_per_op). They live in their
// own translation unit so the compiler never inlines them into callers.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common/types.h"

namespace {
std::atomic<kvsim::u64> g_allocs{0};
}  // namespace

namespace e2e {
kvsim::u64 allocations() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace e2e

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = (std::size_t)al;
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
