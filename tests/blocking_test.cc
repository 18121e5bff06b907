// Tests for inverted-index blocking (Section 4.1 "Efficiency"): only table
// pairs sharing >= θ_overlap value pairs (for w+) or left values (for w-)
// are emitted for exact scoring.
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "synth/blocking.h"
#include "table/string_pool.h"

namespace ms {
namespace {

class BlockingFixture : public ::testing::Test {
 protected:
  BlockingFixture() : pool_(std::make_shared<StringPool>()) {}

  BinaryTable Make(const std::vector<std::pair<std::string, std::string>>&
                       rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool_->Intern(l), pool_->Intern(r)});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = next_id_++;
    return b;
  }

  const CandidateTablePair* FindPair(
      const std::vector<CandidateTablePair>& pairs, uint32_t a, uint32_t b) {
    if (a > b) std::swap(a, b);
    for (const auto& p : pairs) {
      if (p.a == a && p.b == b) return &p;
    }
    return nullptr;
  }

  std::shared_ptr<StringPool> pool_;
  uint32_t next_id_ = 0;
};

TEST_F(BlockingFixture, SharedPairsAreCounted) {
  std::vector<BinaryTable> cands;
  cands.push_back(Make({{"a", "1"}, {"b", "2"}, {"c", "3"}}));
  cands.push_back(Make({{"a", "1"}, {"b", "2"}, {"d", "4"}}));
  BlockingOptions opts;
  opts.theta_overlap = 2;
  auto pairs = GenerateCandidatePairs(cands, opts);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].shared_pairs, 2u);
  EXPECT_EQ(pairs[0].shared_lefts, 2u);
}

TEST_F(BlockingFixture, BelowThresholdIsPruned) {
  std::vector<BinaryTable> cands;
  cands.push_back(Make({{"a", "1"}, {"b", "2"}}));
  cands.push_back(Make({{"a", "1"}, {"c", "3"}}));  // 1 shared pair/left
  BlockingOptions opts;
  opts.theta_overlap = 2;
  EXPECT_TRUE(GenerateCandidatePairs(cands, opts).empty());
  opts.theta_overlap = 1;
  EXPECT_EQ(GenerateCandidatePairs(cands, opts).size(), 1u);
}

TEST_F(BlockingFixture, DisjointTablesNeverPair) {
  std::vector<BinaryTable> cands;
  cands.push_back(Make({{"a", "1"}, {"b", "2"}}));
  cands.push_back(Make({{"x", "9"}, {"y", "8"}}));
  BlockingOptions opts;
  opts.theta_overlap = 1;
  EXPECT_TRUE(GenerateCandidatePairs(cands, opts).empty());
}

TEST_F(BlockingFixture, SharedLeftsAloneTriggerPairing) {
  // Same lefts, conflicting rights: zero shared pairs but shared lefts must
  // still pair them so w- can be computed (ISO-vs-IOC case).
  std::vector<BinaryTable> cands;
  cands.push_back(Make({{"algeria", "dza"}, {"albania", "alb"}}));
  cands.push_back(Make({{"algeria", "alg"}, {"albania", "axx"}}));
  BlockingOptions opts;
  opts.theta_overlap = 2;
  auto pairs = GenerateCandidatePairs(cands, opts);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].shared_pairs, 0u);
  EXPECT_EQ(pairs[0].shared_lefts, 2u);
}

TEST_F(BlockingFixture, TransitiveGroupsEmitAllPairs) {
  std::vector<BinaryTable> cands;
  cands.push_back(Make({{"a", "1"}, {"b", "2"}}));
  cands.push_back(Make({{"a", "1"}, {"b", "2"}}));
  cands.push_back(Make({{"a", "1"}, {"b", "2"}}));
  BlockingOptions opts;
  opts.theta_overlap = 2;
  auto pairs = GenerateCandidatePairs(cands, opts);
  EXPECT_EQ(pairs.size(), 3u);  // all C(3,2) pairs
  EXPECT_NE(FindPair(pairs, 0, 1), nullptr);
  EXPECT_NE(FindPair(pairs, 0, 2), nullptr);
  EXPECT_NE(FindPair(pairs, 1, 2), nullptr);
}

TEST_F(BlockingFixture, DeterministicOrdering) {
  std::vector<BinaryTable> cands;
  for (int i = 0; i < 6; ++i) {
    cands.push_back(Make({{"shared", "val"}, {"also", "shared"},
                          {"u" + std::to_string(i), "v"}}));
  }
  BlockingOptions opts;
  opts.theta_overlap = 2;
  auto a = GenerateCandidatePairs(cands, opts);
  auto b = GenerateCandidatePairs(cands, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
  }
  // Sorted by (a, b).
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_TRUE(std::tie(a[i - 1].a, a[i - 1].b) < std::tie(a[i].a, a[i].b));
  }
}

TEST_F(BlockingFixture, ParallelMatchesSerial) {
  std::vector<BinaryTable> cands;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (int r = 0; r < 8; ++r) {
      rows.push_back({"k" + std::to_string(rng.Uniform(30)),
                      "v" + std::to_string(rng.Uniform(10))});
    }
    cands.push_back(Make(rows));
  }
  ThreadPool pool(4);
  auto serial = GenerateCandidatePairs(cands, {}, nullptr);
  auto parallel = GenerateCandidatePairs(cands, {}, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].a, parallel[i].a);
    EXPECT_EQ(serial[i].b, parallel[i].b);
    EXPECT_EQ(serial[i].shared_pairs, parallel[i].shared_pairs);
    EXPECT_EQ(serial[i].shared_lefts, parallel[i].shared_lefts);
  }
}

TEST_F(BlockingFixture, HotKeyCapBoundsPairExplosion) {
  // 20 tables share one hot value pair; with max_posting = 4 the hot key
  // contributes at most C(4,2) = 6 id pairs.
  std::vector<BinaryTable> cands;
  for (int i = 0; i < 20; ++i) {
    cands.push_back(Make({{"hot", "key"}, {"hot2", "key2"},
                          {"u" + std::to_string(i), "v"}}));
  }
  BlockingOptions opts;
  opts.theta_overlap = 1;
  opts.max_posting = 4;
  auto pairs = GenerateCandidatePairs(cands, opts);
  EXPECT_LE(pairs.size(), 12u);  // two hot keys (pair + left spaces) ≈ 6+6
  opts.max_posting = 256;
  EXPECT_EQ(GenerateCandidatePairs(cands, opts).size(), 190u);  // C(20,2)
}

TEST_F(BlockingFixture, EmptyCandidateSet) {
  EXPECT_TRUE(GenerateCandidatePairs({}, {}).empty());
}

// ------------------------------------------------- sharded-vs-seed oracle

void ExpectSamePairs(const std::vector<CandidateTablePair>& got,
                     const std::vector<CandidateTablePair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << "at " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "at " << i;
    EXPECT_EQ(got[i].shared_pairs, want[i].shared_pairs) << "at " << i;
    EXPECT_EQ(got[i].shared_lefts, want[i].shared_lefts) << "at " << i;
    EXPECT_EQ(got[i].counts_exact, want[i].counts_exact) << "at " << i;
  }
}

TEST_F(BlockingFixture, ShardedMatchesReferenceOnRandomCorpora) {
  // The sharded streaming implementation must emit the exact same
  // CandidateTablePair set (values and per-pair taint included) as the seed
  // emit-then-count algorithm, across seeds, overlap thresholds, truncation
  // caps and thread counts.
  ThreadPool one(1);
  ThreadPool four(4);
  size_t inexact_pairs = 0;
  for (uint64_t seed : {7u, 19u, 101u}) {
    Rng rng(seed);
    std::vector<BinaryTable> cands;
    const size_t n = 30 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      std::vector<std::pair<std::string, std::string>> rows;
      const size_t n_rows = 3 + rng.Uniform(12);
      for (size_t r = 0; r < n_rows; ++r) {
        // Zipf-ish key skew so some posting lists are long.
        rows.push_back({"k" + std::to_string(rng.Zipf(60)),
                        "v" + std::to_string(rng.Uniform(12))});
      }
      cands.push_back(Make(rows));
    }
    for (size_t theta : {1u, 2u, 3u}) {
      for (size_t cap : {4u, 256u}) {
        BlockingOptions opts;
        opts.theta_overlap = theta;
        opts.max_posting = cap;
        auto reference = GenerateCandidatePairsReference(cands, opts);
        ExpectSamePairs(GenerateCandidatePairs(cands, opts), reference);
        ExpectSamePairs(GenerateCandidatePairs(cands, opts, &one), reference);
        ExpectSamePairs(GenerateCandidatePairs(cands, opts, &four), reference);
        for (const auto& p : reference) inexact_pairs += !p.counts_exact;
      }
    }
  }
  // The cap-4 corpora truncate, so taint was compared, not just defaults.
  EXPECT_GT(inexact_pairs, 0u);
}

TEST_F(BlockingFixture, DroppedPostingsAreCounted) {
  // 20 tables share the pair keys (hot,key) and (hot2,key2) and the left
  // keys hot/hot2; with max_posting = 4 each of those four posting lists
  // drops 16 entries. The per-table (u_i, v) rows add unique keys that drop
  // nothing.
  std::vector<BinaryTable> cands;
  for (int i = 0; i < 20; ++i) {
    cands.push_back(Make({{"hot", "key"}, {"hot2", "key2"},
                          {"u" + std::to_string(i), "v"}}));
  }
  BlockingOptions opts;
  opts.theta_overlap = 1;
  opts.max_posting = 4;
  BlockingStats stats;
  GenerateCandidatePairs(cands, opts, nullptr, &stats);
  EXPECT_EQ(stats.dropped_postings, 4u * 16u);
  // Keys: pair space {hot->key, hot2->key2, 20 x u_i->v}; left space
  // {hot, hot2, 20 x u_i}.
  EXPECT_EQ(stats.keys, 44u);

  // No truncation => nothing dropped, and timing fields are populated.
  opts.max_posting = 256;
  BlockingStats full;
  GenerateCandidatePairs(cands, opts, nullptr, &full);
  EXPECT_EQ(full.dropped_postings, 0u);
  EXPECT_EQ(full.keys, 44u);
  EXPECT_GE(full.map_shuffle_seconds, 0.0);
  EXPECT_GE(full.count_seconds, 0.0);
  EXPECT_GE(full.reduce_seconds, 0.0);
}

TEST_F(BlockingFixture, TruncationIsDeterministicAcrossThreadCounts) {
  std::vector<BinaryTable> cands;
  for (int i = 0; i < 30; ++i) {
    cands.push_back(Make({{"hot", "key"},
                          {"x" + std::to_string(i % 7), "y"}}));
  }
  BlockingOptions opts;
  opts.theta_overlap = 1;
  opts.max_posting = 5;
  auto serial = GenerateCandidatePairs(cands, opts);
  ThreadPool pool(8);
  BlockingStats stats_par;
  auto parallel = GenerateCandidatePairs(cands, opts, &pool, &stats_par);
  ExpectSamePairs(parallel, serial);
  BlockingStats stats_ser;
  GenerateCandidatePairs(cands, opts, nullptr, &stats_ser);
  EXPECT_EQ(stats_ser.dropped_postings, stats_par.dropped_postings);
}

}  // namespace
}  // namespace ms
