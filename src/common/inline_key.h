// A key buffer for per-command records and short-lived keys.
//
// Keys up to kInlineBytes live inside the object; only a longer key goes
// to the heap. A reused InlineKey keeps its heap buffer, so a pooled
// record (SlotPool) that once held a long key takes the next one without
// allocating.
#pragma once

#include <string>
#include <string_view>

#include "common/types.h"

namespace kvsim {

class InlineKey {
 public:
  static constexpr size_t kInlineBytes = 46;

  [[nodiscard]] std::string_view view() const {
    return {size_ <= kInlineBytes ? inline_ : heap_.data(), size_};
  }
  [[nodiscard]] size_t size() const { return size_; }

  /// Make the key `n` bytes long and return its bytes for the caller to
  /// fill in.
  char* resize(size_t n) {
    size_ = (u32)n;
    if (n <= kInlineBytes) return inline_;
    heap_.resize(n);
    return heap_.data();
  }

  void assign(std::string_view key) { key.copy(resize(key.size()), key.size()); }

 private:
  u32 size_ = 0;
  char inline_[kInlineBytes] = {};
  std::string heap_;
};

}  // namespace kvsim
