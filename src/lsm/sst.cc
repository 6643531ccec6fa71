#include "lsm/sst.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace kvsim::lsm {

SstBloom::SstBloom(const std::vector<u64>& khashes)
    : nbits_(std::max<u64>(64, khashes.size() * 10)) {
  bits_.assign((nbits_ + 63) / 64, 0);
  for (u64 kh : khashes) {
    for (u32 i = 0; i < 4; ++i) {
      const u64 bit = mix64(kh + 0x9e3779b97f4a7c15ull * (i + 1)) % nbits_;
      bits_[bit >> 6] |= 1ull << (bit & 63);
    }
  }
}

bool SstBloom::may_contain(u64 khash) const {
  for (u32 i = 0; i < 4; ++i) {
    const u64 bit = mix64(khash + 0x9e3779b97f4a7c15ull * (i + 1)) % nbits_;
    if (!(bits_[bit >> 6] & (1ull << (bit & 63)))) return false;
  }
  return true;
}

namespace {
/// Home slot of `khash` in a point index of `slots` slots (the high half
/// of the 128-bit product maps the hash uniformly onto [0, slots)).
u64 home_slot(u64 khash, u64 slots) {
  return (u64)(((unsigned __int128)khash * slots) >> 64);
}
}  // namespace

i64 Sst::find(std::string_view key, u64 khash) const {
  const u64 n = point.size();
  if (n == 0) return -1;
  for (u64 i = home_slot(khash, n);; i = (i + 1 == n) ? 0 : i + 1) {
    const u32 e = point[i];
    if (e == kNoEntry) return -1;
    if (entries[e].key == key) return e;
  }
}

std::shared_ptr<Sst> build_sst(u64 id, std::vector<SstEntry> entries) {
  auto sst = std::make_shared<Sst>();
  sst->id = id;
  sst->entries = std::move(entries);
  std::vector<u64> khashes;
  khashes.reserve(sst->entries.size());
  u64 off = 0;
  for (SstEntry& e : sst->entries) {
    if (off > UINT32_MAX)
      throw std::length_error("build_sst: entry offset past 4 GiB");
    e.offset = (u32)off;
    off += entry_file_bytes(e);
    khashes.push_back(hash64(e.key));
  }
  // ~2% metadata (index block + filter) on top of the data.
  sst->file_bytes = off + off / 50 + 4 * KiB;
  sst->bloom = std::make_unique<SstBloom>(khashes);
  // Entries are inserted in key order, so a key stored twice resolves to
  // its first entry, as a lower_bound would.
  const u64 n = 2 * khashes.size();
  sst->point.assign(n, Sst::kNoEntry);
  for (u32 e = 0; e < (u32)khashes.size(); ++e) {
    u64 i = home_slot(khashes[e], n);
    while (sst->point[i] != Sst::kNoEntry) i = (i + 1 == n) ? 0 : i + 1;
    sst->point[i] = e;
  }
  if (!sst->entries.empty()) {
    sst->smallest = sst->entries.front().key;
    sst->largest = sst->entries.back().key;
  }
  return sst;
}

}  // namespace kvsim::lsm
