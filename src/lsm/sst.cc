#include "lsm/sst.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "ssd/audit.h"

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
/// of the 128-bit product maps the hash uniformly onto [0, slots)). The
/// low 32 bits of the hash move it by at most one slot, so they serve as
/// the slot's tag.
u64 home_slot(u64 khash, u64 slots) {
  return (u64)(((unsigned __int128)khash * slots) >> 64);
}
}  // namespace

i64 Sst::find(std::string_view k, u64 khash) const {
  const u64 n = point.size();
  if (n == 0) return -1;
  if (key_stride != 0 && k.size() != key_stride) return -1;
  const u32 tag = (u32)khash;
  for (u64 i = home_slot(khash, n);; i = (i + 1 == n) ? 0 : i + 1) {
    const Slot s = point[i];
    if (s.entry == kNoEntry) return -1;
    if (s.tag != tag) continue;
    // With a stride the key's address needs no load of its entry, so the
    // caller's read of the entry overlaps the key comparison.
    const std::string_view sk =
        key_stride != 0
            ? std::string_view(keys.data() + (u64)s.entry * key_stride,
                               key_stride)
            : key(entries[s.entry]);
    if (sk == k) return s.entry;
  }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

void SstBuilder::reserve(u64 entries, u64 key_bytes) {
  entries_.reserve(entries);
  khashes_.reserve(entries);
  keys_.reserve(key_bytes);
}

void SstBuilder::add(std::string_view key, ValueDesc value, u64 seq,
                     bool tombstone) {
  if (data_bytes_ > UINT32_MAX)
    throw std::length_error("SstBuilder: entry offset past 4 GiB");
  entries_.push_back(SstEntry{(u32)keys_.size(), (u32)key.size(), value, seq,
                              (u32)data_bytes_, tombstone});
  keys_.append(key);
  khashes_.push_back(hash64(key));
  data_bytes_ += entry_file_bytes(key.size(), value.size);
}

std::shared_ptr<Sst> SstBuilder::finish(u64 id) {
  // Entries are inserted in key order, so a key stored twice resolves to
  // its first entry, as a lower_bound would.
  const u64 n = 2 * khashes_.size();
  std::vector<Sst::Slot> point(n);
  for (u32 e = 0; e < (u32)khashes_.size(); ++e) {
    u64 i = home_slot(khashes_[e], n);
    while (point[i].entry != Sst::kNoEntry) i = (i + 1 == n) ? 0 : i + 1;
    point[i] = Sst::Slot{e, (u32)khashes_[e]};
  }
  u32 stride = entries_.empty() ? 0 : entries_.front().key_len;
  for (const SstEntry& e : entries_)
    if (e.key_len != stride) stride = 0;
  auto sst = std::make_shared<Sst>(Sst{
      .id = id,
      // ~2% metadata (index block + filter) on top of the data.
      .file_bytes = data_bytes_ + data_bytes_ / 50 + 4 * KiB,
      .entries = std::move(entries_),
      .keys = std::move(keys_),
      .key_stride = stride,
      .bloom = SstBloom(khashes_),
      .point = std::move(point)});
  entries_.clear();
  keys_.clear();
  khashes_.clear();
  data_bytes_ = 0;
  return sst;
}

// ---------------------------------------------------------------------------
// Compaction merge
// ---------------------------------------------------------------------------

std::vector<std::shared_ptr<Sst>> merge_ssts(
    const std::vector<std::shared_ptr<Sst>>& inputs, bool bottom,
    u64 target_bytes, u64& next_id) {
  // One cursor per run: a stretch of consecutive inputs whose key ranges
  // ascend without overlap (a level's files, or disjoint L0 files) reads
  // in key order table after table. A job then merges one cursor per L0
  // file plus one, or two.
  struct Cursor {
    u32 table;  // into `tables`
    u32 last;   // the run's last table
    u32 entry;  // into the table's entries
  };
  std::vector<const Sst*> tables;
  std::vector<Cursor> cursors;
  tables.reserve(inputs.size());
  cursors.reserve(inputs.size());
  u64 entries = 0;
  for (const auto& s : inputs) {
    if (s->entries.empty()) continue;
    entries += s->entries.size();
    if (!cursors.empty() && tables.back()->largest() < s->smallest())
      ++cursors.back().last;
    else
      cursors.push_back(Cursor{(u32)tables.size(), (u32)tables.size(), 0});
    tables.push_back(s.get());
  }
  auto entry_at = [&](const Cursor& c) -> const SstEntry& {
    return tables[c.table]->entries[c.entry];
  };
  auto key_at = [&](const Cursor& c) {
    return tables[c.table]->key(entry_at(c));
  };

  // Merge into a list of kept entries and the points where tables end,
  // so each table's builder can be sized exactly.
  struct Pick {
    u32 table;
    u32 entry;
  };
  struct Cut {
    u64 end;        // one past the table's last pick
    u64 key_bytes;  // its keys' bytes
  };
  std::vector<Pick> picks;
  std::vector<Cut> cuts;
  picks.reserve(entries);
  u64 cut_bytes = 0, cut_key_bytes = 0;
  while (!cursors.empty()) {
    // The smallest key under a cursor; of its versions, the newest.
    u32 best = 0;
    std::string_view best_key = key_at(cursors[0]);
    for (u32 c = 1; c < (u32)cursors.size(); ++c) {
      const std::string_view k = key_at(cursors[c]);
      const int cmp = k.compare(best_key);
      if (cmp < 0 || (cmp == 0 && entry_at(cursors[c]).seq >
                                      entry_at(cursors[best]).seq)) {
        best = c;
        best_key = k;
      }
    }
    const Pick pick{cursors[best].table, cursors[best].entry};
    // Step every cursor past the key: the older versions are shadowed.
    for (u32 c = 0; c < (u32)cursors.size();) {
      Cursor& cur = cursors[c];
      if (key_at(cur) != best_key) {
        ++c;
      } else if (++cur.entry < tables[cur.table]->entries.size()) {
        ++c;
      } else if (cur.table < cur.last) {
        ++cur.table;
        cur.entry = 0;
        ++c;
      } else {
        cursors.erase(cursors.begin() + c);
      }
    }
    const SstEntry& e = tables[pick.table]->entries[pick.entry];
    if (e.tombstone && bottom) continue;  // tombstones die at the bottom
    picks.push_back(pick);
    cut_bytes += entry_file_bytes(e);
    cut_key_bytes += e.key_len;
    if (cut_bytes >= target_bytes) {
      cuts.push_back(Cut{picks.size(), cut_key_bytes});
      cut_bytes = 0;
      cut_key_bytes = 0;
    }
  }
  if (cut_bytes > 0) cuts.push_back(Cut{picks.size(), cut_key_bytes});

  std::vector<std::shared_ptr<Sst>> out;
  out.reserve(cuts.size());
  SstBuilder builder;
  u64 begin = 0;
  for (const Cut& cut : cuts) {
    builder.reserve(cut.end - begin, cut.key_bytes);
    for (u64 i = begin; i < cut.end; ++i) {
      const Sst& t = *tables[picks[i].table];
      const SstEntry& e = t.entries[picks[i].entry];
      builder.add(t.key(e), e.value, e.seq, e.tombstone);
    }
    out.push_back(builder.finish(next_id++));
    begin = cut.end;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

void audit_sst_keys(const Sst& sst) {
  for (size_t i = 1; i < sst.entries.size(); ++i) {
    if (sst.key(sst.entries[i - 1]) < sst.key(sst.entries[i])) continue;
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "sst-%llu entry %zu does not sort after entry %zu",
                  (unsigned long long)sst.id, i, i - 1);
    ssd::audit_fail("lsm", msg);
  }
}

void audit_level(u32 level, const std::vector<std::shared_ptr<Sst>>& files) {
  for (size_t i = 1; i < files.size(); ++i) {
    if (files[i - 1]->largest() < files[i]->smallest()) continue;
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "L%u sst-%llu and sst-%llu overlap or are out of order",
                  level, (unsigned long long)files[i - 1]->id,
                  (unsigned long long)files[i]->id);
    ssd::audit_fail("lsm", msg);
  }
}

}  // namespace kvsim::lsm
