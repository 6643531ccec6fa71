// The three KvStack beds on a tiny device, for suites that run one check
// on every bed (crash recovery, faults).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/stacks.h"

namespace kvsim::harness {

inline ssd::SsdConfig tiny_dev() {
  ssd::SsdConfig d;
  d.geometry.channels = 2;
  d.geometry.dies_per_channel = 2;
  d.geometry.planes_per_die = 2;
  d.geometry.blocks_per_plane = 16;
  d.geometry.pages_per_block = 16;  // 64 MiB raw
  return d;
}

enum BedKind { kKvssd = 0, kLsm = 1, kHashKv = 2 };
inline const char* const kBedNames[] = {"kvssd", "lsm", "hashkv"};

inline std::unique_ptr<KvStack> make_bed(BedKind kind,
                                         bool crash_tracking = true,
                                         const RetryPolicy& retry = {}) {
  switch (kind) {
    case kKvssd: {
      KvssdBedConfig c;
      c.dev = tiny_dev();
      c.retry = retry;
      c.crash_tracking = crash_tracking;
      return std::make_unique<KvssdBed>(c);
    }
    case kLsm: {
      LsmBedConfig c;
      c.dev = tiny_dev();
      c.lsm.memtable_bytes = 256 * KiB;  // force flush/compaction churn
      c.retry = retry;
      c.crash_tracking = crash_tracking;
      return std::make_unique<LsmBed>(c);
    }
    default: {
      HashKvBedConfig c;
      c.dev = tiny_dev();
      c.retry = retry;
      c.crash_tracking = crash_tracking;
      return std::make_unique<HashKvBed>(c);
    }
  }
}

/// Names the cases of a suite instantiated over the three beds.
inline std::string bed_param_name(const ::testing::TestParamInfo<int>& info) {
  return kBedNames[info.param];
}

}  // namespace kvsim::harness
