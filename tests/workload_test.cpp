// Tests for the KVBench-equivalent workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "workload/workload.h"

namespace kvsim::wl {
namespace {

TEST(MakeKey, ExactWidthAndUniqueness) {
  std::set<std::string> seen;
  for (u64 id = 0; id < 1000; ++id) {
    const std::string k = make_key(id, 16);
    EXPECT_EQ(k.size(), 16u);
    EXPECT_EQ(k[0], 'k');
    EXPECT_TRUE(seen.insert(k).second);
  }
}

TEST(MakeKey, MinimumWidthEnforced) {
  EXPECT_EQ(make_key(1, 2).size(), 4u);
  EXPECT_EQ(make_key(7, 255).size(), 255u);
}

TEST(MakeKey, SortOrderMatchesIdOrder) {
  for (u64 id = 0; id + 1 < 500; ++id)
    EXPECT_LT(make_key(id, 16), make_key(id + 1, 16));
}

TEST(KeyChooser, SequentialWraps) {
  KeyChooser c(Pattern::kSequential, 5, 1);
  std::vector<u64> got;
  for (int i = 0; i < 7; ++i) got.push_back(c.next());
  EXPECT_EQ(got, (std::vector<u64>{0, 1, 2, 3, 4, 0, 1}));
}

TEST(KeyChooser, UniformCoversSpace) {
  KeyChooser c(Pattern::kUniform, 100, 2);
  std::set<u64> seen;
  for (int i = 0; i < 5000; ++i) {
    const u64 id = c.next();
    EXPECT_LT(id, 100u);
    seen.insert(id);
  }
  EXPECT_GT(seen.size(), 95u);
}

TEST(KeyChooser, ZipfSkewed) {
  KeyChooser c(Pattern::kZipfian, 10000, 3);
  std::map<u64, u64> counts;
  for (int i = 0; i < 50000; ++i) ++counts[c.next()];
  u64 max_count = 0;
  for (auto& [id, n] : counts) max_count = std::max(max_count, n);
  // The hottest key is far above the uniform expectation (5 per key).
  EXPECT_GT(max_count, 1000u);
}

TEST(KeyChooser, SlidingWindowSweeps) {
  KeyChooser c(Pattern::kSlidingWindow, 10000, 4, 0.99, 100);
  c.set_total_ops(1000);
  u64 first_sum = 0, last_sum = 0;
  std::vector<u64> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(c.next());
  for (int i = 0; i < 100; ++i) first_sum += ids[(size_t)i];
  for (int i = 900; i < 1000; ++i) last_sum += ids[(size_t)i];
  // Early draws cluster near 0, late draws near the end of the space.
  EXPECT_LT(first_sum / 100, 2000u);
  EXPECT_GT(last_sum / 100, 7000u);
}

TEST(OpStream, GeneratesExactlyNumOps) {
  WorkloadSpec spec;
  spec.num_ops = 123;
  SyntheticOpSource s(spec);
  Op op;
  u64 n = 0;
  while (s.next(op)) ++n;
  EXPECT_EQ(n, 123u);
  EXPECT_FALSE(s.next(op));
}

TEST(OpStream, MixFractionsRespected) {
  WorkloadSpec spec;
  spec.num_ops = 20000;
  spec.mix = {0.25, 0.25, 0.5, 0};
  SyntheticOpSource s(spec);
  Op op;
  std::map<OpType, u64> counts;
  while (s.next(op)) ++counts[op.type];
  EXPECT_NEAR((double)counts[OpType::kInsert] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR((double)counts[OpType::kUpdate] / 20000.0, 0.25, 0.02);
  EXPECT_NEAR((double)counts[OpType::kRead] / 20000.0, 0.5, 0.02);
}

TEST(OpStream, DeterministicForSameSeed) {
  WorkloadSpec spec;
  spec.num_ops = 500;
  spec.pattern = Pattern::kUniform;
  SyntheticOpSource a(spec), b(spec);
  Op oa, ob;
  while (a.next(oa)) {
    ASSERT_TRUE(b.next(ob));
    EXPECT_EQ(oa.key_id, ob.key_id);
    EXPECT_EQ((int)oa.type, (int)ob.type);
  }
}

TEST(ValueDist, FixedAlwaysSame) {
  WorkloadSpec spec;
  spec.num_ops = 500;
  spec.value_bytes = 777;
  SyntheticOpSource s(spec);
  Op op;
  while (s.next(op)) EXPECT_EQ(op.value_bytes, 777u);
}

TEST(ValueDist, UniformStaysInRange) {
  WorkloadSpec spec;
  spec.num_ops = 5000;
  spec.value_dist = ValueDist::kUniform;
  spec.value_min_bytes = 100;
  spec.value_bytes = 1000;
  SyntheticOpSource s(spec);
  Op op;
  double sum = 0;
  while (s.next(op)) {
    EXPECT_GE(op.value_bytes, 100u);
    EXPECT_LE(op.value_bytes, 1000u);
    sum += op.value_bytes;
  }
  EXPECT_NEAR(sum / 5000.0, 550.0, 25.0);
}

TEST(ValueDist, FacebookHeavyTailNearCitedMean) {
  WorkloadSpec spec;
  spec.num_ops = 50000;
  spec.value_dist = ValueDist::kFacebook;
  spec.value_bytes = 2048;  // tail cap
  SyntheticOpSource s(spec);
  Op op;
  double sum = 0;
  u64 small = 0;
  u32 mx = 0;
  while (s.next(op)) {
    EXPECT_GE(op.value_bytes, 57u);
    EXPECT_LE(op.value_bytes, 2048u);
    sum += op.value_bytes;
    small += op.value_bytes < 154;
    mx = std::max(mx, op.value_bytes);
  }
  // The paper cites average KVP sizes of 57-154 B at Facebook.
  EXPECT_GT(sum / 50000.0, 57.0);
  EXPECT_LT(sum / 50000.0, 250.0);
  EXPECT_GT(small, 25000u);   // majority small...
  EXPECT_GT(mx, 1000u);       // ...with a real tail
}

TEST(WorkloadSpecValidate, RejectsDegenerateSpecs) {
  const WorkloadSpec good;  // defaults are valid
  EXPECT_NO_THROW(good.validate());

  auto broken = [](auto mutate) {
    WorkloadSpec s;
    mutate(s);
    EXPECT_THROW(s.validate(), std::invalid_argument);
    // Construction is where the check bites: a synthetic source must
    // refuse the spec too (both the class and the factory).
    EXPECT_THROW(SyntheticOpSource{s}, std::invalid_argument);
    EXPECT_THROW(synthetic_source(s), std::invalid_argument);
  };
  broken([](WorkloadSpec& s) { s.num_ops = 0; });
  broken([](WorkloadSpec& s) { s.key_bytes = 0; });
  broken([](WorkloadSpec& s) { s.zipf_theta = 0.0; });
  broken([](WorkloadSpec& s) { s.zipf_theta = -0.5; });
  broken([](WorkloadSpec& s) {
    s.value_dist = ValueDist::kUniform;
    s.value_min_bytes = 4096;
    s.value_bytes = 1024;
  });
  broken([](WorkloadSpec& s) {
    s.mix = {0.0, 0.0, 0.9, 0.1};
    s.scan_length = 0;
  });
  broken([](WorkloadSpec& s) { s.mix = {0.7, 0.7, 0, 0}; });   // sum > 1
  broken([](WorkloadSpec& s) { s.mix = {-0.1, 0.5, 0.5, 0}; });
}

std::vector<Op> drain(OpSource& src, u64 cap = ~0ull) {
  std::vector<Op> ops;
  Op op;
  while (ops.size() < cap && src.next(op)) ops.push_back(op);
  return ops;
}

bool same_stream(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!(a[i].type == b[i].type && a[i].key_id == b[i].key_id &&
          a[i].value_bytes == b[i].value_bytes &&
          a[i].scan_length == b[i].scan_length))
      return false;
  return true;
}

TEST(OpSourceReset, RestartsSyntheticStreamExactly) {
  // Every generator mode must replay its exact stream after
  // reset(original seed) — including the modes with extra internal
  // state: the insert permutation (distinct_inserts) and the moving
  // frontier (inserts_extend_space).
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.num_ops = 3000;
    s.key_space = 500;
    s.pattern = Pattern::kZipfian;
    s.value_dist = ValueDist::kUniform;
    s.value_min_bytes = 8;
    s.mix = {0.2, 0.3, 0.4, 0.05};
    specs.push_back(s);
    s.pattern = Pattern::kUniform;
    s.distinct_inserts = true;
    specs.push_back(s);
    s.distinct_inserts = false;
    s.pattern = Pattern::kLatest;
    s.inserts_extend_space = true;
    specs.push_back(s);
  }
  for (const WorkloadSpec& spec : specs) {
    SyntheticOpSource src(spec);
    const std::vector<Op> first = drain(src);
    ASSERT_EQ(first.size(), spec.num_ops);
    EXPECT_EQ(src.generated(), spec.num_ops);
    src.reset(spec.seed);
    EXPECT_EQ(src.generated(), 0u);
    const std::vector<Op> again = drain(src);
    EXPECT_TRUE(same_stream(first, again));
    // A different seed must actually change the stream.
    src.reset(spec.seed + 1);
    EXPECT_FALSE(same_stream(first, drain(src)));
    // Mid-stream reset also restarts from op 0.
    src.reset(spec.seed);
    (void)drain(src, 100);
    src.reset(spec.seed);
    EXPECT_TRUE(same_stream(first, drain(src)));
  }
}

TEST(OpSourceFactoryTest, MintsEquivalentSourcesPolymorphically) {
  WorkloadSpec spec;
  spec.num_ops = 1000;
  spec.key_space = 200;
  spec.pattern = Pattern::kZipfian;
  spec.mix = {0.3, 0.3, 0.4, 0};
  const OpSourceFactory f = synthetic_source(spec);
  // A factory is reusable: every minted source yields the same stream,
  // driven through the OpSource interface only.
  std::unique_ptr<OpSource> a = f();
  std::unique_ptr<OpSource> b = f();
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(same_stream(drain(*a), drain(*b)));
  EXPECT_EQ(a->generated(), spec.num_ops);
  // Copies of the factory (it crosses API boundaries by value) still
  // mint the same stream.
  const OpSourceFactory g = f;
  EXPECT_TRUE(same_stream(drain(*f()), drain(*g())));
}

TEST(ValueFingerprint, VariesWithVersion) {
  EXPECT_NE(value_fingerprint(1, 0), value_fingerprint(1, 1));
  EXPECT_NE(value_fingerprint(1, 0), value_fingerprint(2, 0));
  EXPECT_EQ(value_fingerprint(3, 4), value_fingerprint(3, 4));
}

}  // namespace
}  // namespace kvsim::wl
