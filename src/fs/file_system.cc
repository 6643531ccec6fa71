#include "fs/file_system.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

namespace kvsim::fs {

namespace {
const FsConfig& validated(const FsConfig& cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

void FsConfig::validate() const {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("FsConfig: ") + what);
  };
  if (block_bytes == 0 || block_bytes % 512 != 0)
    fail("block_bytes must be a nonzero multiple of 512");
  if (max_extent_blocks == 0) fail("max_extent_blocks must be nonzero");
  if (journal_every_ops == 0) fail("journal_every_ops must be nonzero");
}

FileSystem::FileSystem(sim::EventQueue& eq, blockapi::BlockDevice& dev,
                       const FsConfig& cfg)
    : eq_(eq),
      dev_(dev),
      cfg_(validated(cfg)),
      crash_tracking_(dev.ftl().crash_tracking()) {
  total_blocks_ = dev_.capacity_bytes() / cfg_.block_bytes;
  if (total_blocks_ < 2)
    throw std::invalid_argument(
        "FileSystem: the device holds fewer than two fs blocks (block 0 is "
        "the journal)");
  // Block 0 is the superblock/journal area.
  journal_block_ = 0;
  free_list_.push_back(Extent{1, total_blocks_ - 1});
  used_blocks_ = 1;
}

FileSystem::Handle FileSystem::create(std::string name) {
  cpu_ns_ += cfg_.meta_cpu_ns;
  const Handle h = (Handle)inodes_.size();
  inodes_.push_back(Inode{std::move(name), 0, {}, true});
  by_name_[inodes_.back().name] = h;
  return h;
}

FileSystem::Handle FileSystem::lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidHandle : it->second;
}

u64 FileSystem::file_bytes(Handle h) const {
  return h < inodes_.size() ? inodes_[h].size_bytes : 0;
}

u64 FileSystem::free_bytes() const {
  u64 blocks = 0;
  for (const auto& e : free_list_) blocks += e.block_count;
  return blocks * cfg_.block_bytes;
}

bool FileSystem::allocate_extent(u64 blocks, Extent& out) {
  if (free_list_.empty()) return false;
  blocks = std::min<u64>(blocks, cfg_.max_extent_blocks);
  // First-fit: prefer an extent large enough; otherwise take the largest.
  size_t pick = 0;
  for (size_t i = 0; i < free_list_.size(); ++i) {
    if (free_list_[i].block_count >= blocks) {
      pick = i;
      break;
    }
    if (free_list_[i].block_count > free_list_[pick].block_count) pick = i;
  }
  Extent& src = free_list_[pick];
  const u64 take = std::min(src.block_count, blocks);
  out = Extent{src.start_block, take};
  src.start_block += take;
  src.block_count -= take;
  if (src.block_count == 0) free_list_.erase(free_list_.begin() + pick);
  used_blocks_ += take;
  return true;
}

void FileSystem::free_extent(const Extent& e) {
  used_blocks_ -= std::min(used_blocks_, e.block_count);
  // Insert sorted and coalesce with neighbors.
  auto it = std::lower_bound(
      free_list_.begin(), free_list_.end(), e,
      [](const Extent& a, const Extent& b) {
        return a.start_block < b.start_block;
      });
  it = free_list_.insert(it, e);
  if (it + 1 != free_list_.end() &&
      it->start_block + it->block_count == (it + 1)->start_block) {
    it->block_count += (it + 1)->block_count;
    free_list_.erase(it + 1);
  }
  if (it != free_list_.begin()) {
    auto prev = it - 1;
    if (prev->start_block + prev->block_count == it->start_block) {
      prev->block_count += it->block_count;
      free_list_.erase(it);
    }
  }
}

void FileSystem::charge_meta(u32 ops, std::shared_ptr<sim::Join> join) {
  cpu_ns_ += (u64)ops * cfg_.meta_cpu_ns;
  meta_ops_since_journal_ += ops;
  if (meta_ops_since_journal_ >= cfg_.journal_every_ops) {
    meta_ops_since_journal_ = 0;
    ++journal_writes_;
    dev_.write(lba_of_block(journal_block_), cfg_.block_bytes,
               journal_writes_,
               [join = std::move(join)](Status) { join->arrive(); });
  } else {
    eq_.schedule_after(0, [join = std::move(join)] { join->arrive(); });
  }
}

void FileSystem::append(Handle h, u64 bytes, u64 fp_base, Done done) {
  if (h >= inodes_.size() || !inodes_[h].alive || bytes == 0) {
    done(Status::kInvalidArgument);
    return;
  }
  Inode& ino = inodes_[h];
  const u64 blocks = (bytes + cfg_.block_bytes - 1) / cfg_.block_bytes;
  std::vector<Extent> fresh;
  u64 remaining = blocks;
  while (remaining > 0) {
    Extent e;
    if (!allocate_extent(remaining, e)) {
      for (const Extent& r : fresh) free_extent(r);
      done(Status::kDeviceFull);
      return;
    }
    fresh.push_back(e);
    remaining -= e.block_count;
  }
  cpu_ns_ += blocks * cfg_.map_cpu_ns;
  if (crash_tracking_) {
    u64 fb = 0;  // file block index where this append starts
    for (const Extent& e : ino.extents) fb += e.block_count;
    u64 fp = fp_base;
    for (const Extent& e : fresh) {
      ino.pieces.push_back(PieceRec{fb, e.start_block, e.block_count, fp});
      fb += e.block_count;
      fp += e.block_count;
    }
  }
  ino.size_bytes += bytes;
  for (const Extent& e : fresh) {
    if (!ino.extents.empty() &&
        ino.extents.back().start_block + ino.extents.back().block_count ==
            e.start_block) {
      ino.extents.back().block_count += e.block_count;  // coalesce
    } else {
      ino.extents.push_back(e);
    }
  }

  auto join = sim::make_join(
      (int)fresh.size() + 1,
      [done = std::move(done)](Status s) mutable { done(s); });
  u64 fp = fp_base;
  for (const Extent& e : fresh) {
    dev_.write(lba_of_block(e.start_block),
               (u32)(e.block_count * cfg_.block_bytes), fp,
               [join](Status s) { join->arrive(s); });
    fp += e.block_count;
  }
  charge_meta(1, std::move(join));
}

void FileSystem::read(Handle h, u64 offset, u64 bytes, ReadDone done) {
  if (h >= inodes_.size() || !inodes_[h].alive || bytes == 0 ||
      offset + bytes > inodes_[h].size_bytes + cfg_.block_bytes) {
    done(Status::kInvalidArgument, 0);
    return;
  }
  const u64 first_block = offset / cfg_.block_bytes;
  read_blocks(h, first_block,
              (offset + bytes - 1) / cfg_.block_bytes - first_block + 1,
              std::move(done));
}

void FileSystem::read_blocks(Handle h, u64 first_block, u64 blocks,
                             ReadDone done) {
  if (h >= inodes_.size() || !inodes_[h].alive || blocks == 0) {
    done(Status::kInvalidArgument, 0);
    return;
  }
  const Inode& ino = inodes_[h];
  const u64 last_block = first_block + blocks - 1;
  // A range inside one extent is one device read, answered directly.
  u64 cursor = 0;  // file block index at the start of current extent
  for (const Extent& e : ino.extents) {
    const u64 ext_end = cursor + e.block_count;  // one past its last block
    if (ext_end > first_block) {
      if (ext_end <= last_block) break;  // the range spans extents
      cpu_ns_ += blocks * cfg_.map_cpu_ns;
      dev_.read(lba_of_block(e.start_block + (first_block - cursor)),
                (u32)(blocks * cfg_.block_bytes), std::move(done));
      return;
    }
    cursor = ext_end;
  }
  // Translate the block range to device reads through the extents.
  struct Piece {
    Lba lba;
    u32 bytes;
  };
  std::vector<Piece> pieces;
  cursor = 0;
  for (const Extent& e : ino.extents) {
    const u64 ext_first = cursor, ext_last = cursor + e.block_count - 1;
    if (ext_last >= first_block && ext_first <= last_block) {
      const u64 lo = std::max(first_block, ext_first);
      const u64 hi = std::min(last_block, ext_last);
      pieces.push_back(
          Piece{lba_of_block(e.start_block + (lo - ext_first)),
                (u32)((hi - lo + 1) * cfg_.block_bytes)});
    }
    cursor += e.block_count;
    if (cursor > last_block) break;
  }
  cpu_ns_ += (last_block - first_block + 1) * cfg_.map_cpu_ns;
  if (pieces.empty()) {
    done(Status::kInvalidArgument, 0);
    return;
  }
  auto fps = std::make_shared<u64>(0);
  auto join = sim::make_join((int)pieces.size(),
                             [fps, done = std::move(done)](Status s) mutable {
                               done(s, *fps);
                             });
  for (const Piece& p : pieces)
    dev_.read(p.lba, p.bytes, [fps, join](Status s, u64 fp) {
      *fps ^= fp;
      join->arrive(s);
    });
}

bool FileSystem::probe_durable(Handle h, u64 offset, u64 bytes) const {
  if (h >= inodes_.size() || !inodes_[h].alive || bytes == 0) return false;
  const Inode& ino = inodes_[h];
  const u64 first = offset / cfg_.block_bytes;
  const u64 last = (offset + bytes - 1) / cfg_.block_bytes;
  for (u64 fb = first; fb <= last; ++fb) {
    bool durable = false;
    for (const PieceRec& p : ino.pieces) {
      if (fb < p.file_block || fb >= p.file_block + p.block_count) continue;
      const u64 d = fb - p.file_block;
      durable = dev_.ftl().probe_durable_slots(
                    lba_of_block(p.start_block + d), cfg_.block_bytes,
                    p.fp + d) == 1;
      break;
    }
    if (!durable) return false;
  }
  return true;
}

void FileSystem::remove(Handle h, Done done) {
  if (h >= inodes_.size() || !inodes_[h].alive) {
    done(Status::kInvalidArgument);
    return;
  }
  Inode& ino = inodes_[h];
  ino.alive = false;
  by_name_.erase(ino.name);
  std::vector<Extent> extents = std::move(ino.extents);
  ino.extents.clear();
  ino.size_bytes = 0;
  ino.pieces.clear();

  auto join = sim::make_join(
      (int)extents.size() + 1,
      [done = std::move(done)](Status s) mutable { done(s); });
  for (const Extent& e : extents) {
    free_extent(e);
    dev_.trim(lba_of_block(e.start_block), e.block_count * cfg_.block_bytes,
              [join](Status s) { join->arrive(s); });
  }
  charge_meta(1, std::move(join));
}

}  // namespace kvsim::fs
