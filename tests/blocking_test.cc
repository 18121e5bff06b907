// Tests for inverted-index blocking (Section 4.1 "Efficiency"): only table
// pairs sharing >= θ_overlap value pairs (for w+) or left values (for w-)
// are emitted for exact scoring.
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "oracles/blocking_reference.h"
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
  // Empty input still reports its stats: nothing truncated, counts exact.
  BlockingStats stats;
  EXPECT_TRUE(GenerateCandidatePairs({}, {}, nullptr, &stats).empty());
  EXPECT_TRUE(stats.exact_counts);
  EXPECT_EQ(stats.keys, 0u);
  EXPECT_EQ(stats.dropped_postings, 0u);
}

// ------------------------------------------------------- reference oracle

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

TEST_F(BlockingFixture, RowCountMatchesReferenceOnRandomCorpora) {
  // Counting one candidate's row at a time must emit the exact same
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

TEST_F(BlockingFixture, RowCountMatchesReferenceUnderTruncationOrder) {
  // Truncation in a caller-given order — source tables that run against
  // id order, as a mutated family's re-extractions do — must agree with the
  // reference on every pair, count and taint bit, serially and on 1- and
  // 4-thread pools; and the order must really change what is kept.
  ThreadPool one(1);
  ThreadPool four(4);
  size_t order_mattered = 0;
  for (uint64_t seed : {3u, 29u, 211u}) {
    Rng rng(seed);
    std::vector<BinaryTable> cands;
    std::vector<uint32_t> order;
    const size_t n = 30 + rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      std::vector<std::pair<std::string, std::string>> rows;
      const size_t n_rows = 3 + rng.Uniform(12);
      for (size_t r = 0; r < n_rows; ++r) {
        rows.push_back({"k" + std::to_string(rng.Zipf(60)),
                        "v" + std::to_string(rng.Uniform(12))});
      }
      cands.push_back(Make(rows));
      // A few candidates per source table, tables shuffled against ids.
      order.push_back(static_cast<uint32_t>(rng.Uniform(n / 3 + 1)));
    }
    for (size_t theta : {1u, 2u}) {
      for (size_t cap : {2u, 3u, 4u}) {
        BlockingOptions opts;
        opts.theta_overlap = theta;
        opts.max_posting = cap;
        auto reference = GenerateCandidatePairsReference(cands, opts, nullptr,
                                                         order);
        BlockingStats stats, want;
        ExpectSamePairs(
            GenerateCandidatePairs(cands, opts, nullptr, &stats, order),
            GenerateCandidatePairsReference(cands, opts, nullptr, order,
                                            &want));
        EXPECT_EQ(stats.keys, want.keys);
        EXPECT_EQ(stats.dropped_postings, want.dropped_postings);
        EXPECT_EQ(stats.tainted, want.tainted);
        ExpectSamePairs(GenerateCandidatePairs(cands, opts, &one, nullptr,
                                               order),
                        reference);
        ExpectSamePairs(GenerateCandidatePairs(cands, opts, &four, nullptr,
                                               order),
                        reference);
        size_t inexact = 0;
        for (const auto& p : reference) inexact += !p.counts_exact;
        EXPECT_GT(stats.dropped_postings, 0u);
        EXPECT_EQ(stats.tainted_candidates > 0, inexact > 0);

        const auto by_id = GenerateCandidatePairsReference(cands, opts);
        order_mattered +=
            by_id.size() != reference.size() ||
            !std::equal(by_id.begin(), by_id.end(), reference.begin(),
                        [](const auto& x, const auto& y) {
                          return x.a == y.a && x.b == y.b &&
                                 x.shared_pairs == y.shared_pairs &&
                                 x.shared_lefts == y.shared_lefts &&
                                 x.counts_exact == y.counts_exact;
                        });
      }
    }
  }
  EXPECT_GT(order_mattered, 0u);
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

TEST_F(BlockingFixture, EpochWrapClearsTheSlotArray) {
  // The row counter never clears its per-thread slots between rows: each
  // row takes a fresh 32-bit epoch, and only a wrap clears the array. After
  // a wrap, rows reuse the epochs the earlier pass stamped its slots with;
  // without the clear those slots would read as live counts.
  std::vector<BinaryTable> cands;
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (int r = 0; r < 6; ++r) {
      rows.push_back({"k" + std::to_string(rng.Uniform(20)),
                      "v" + std::to_string(rng.Uniform(6))});
    }
    cands.push_back(Make(rows));
  }
  BlockingOptions opts;
  opts.theta_overlap = 1;
  BlockingKeyIndex index;
  index.Build(cands, opts.max_posting);
  const auto want = GenerateCandidatePairsReference(cands, opts);
  ASSERT_FALSE(want.empty());
  // Serial counts run on this thread's slots, one epoch per row. Each pass
  // starts at the last epoch, so its first row wraps to 1; the second pass
  // then meets the slots the first stamped with the same epochs.
  for (int pass = 0; pass < 2; ++pass) {
    SetThreadBlockingEpochForTesting(UINT32_MAX);
    ExpectSamePairs(index.CountRows(opts.theta_overlap, nullptr), want);
    EXPECT_EQ(ThreadBlockingEpochForTesting(), cands.size());
  }
}

// ------------------------------------------------------------ concurrency

TEST(BlockingConcurrencyTest, ThreadCountsGiveBitwiseEqualPairsAndStats) {
  // Rows counted on 1, 2 and 4 threads, each thread on its own slot array,
  // over a truncated corpus in a non-id truncation order, cold and after a
  // patch: pairs and stats must be bitwise equal. The concurrency label
  // runs this under ThreadSanitizer.
  StringPool pool;
  Rng rng(2026);
  std::vector<BinaryTable> cands;
  std::vector<uint32_t> order;
  const auto add = [&] {
    std::vector<ValuePair> pairs;
    const size_t n_rows = 3 + rng.Uniform(10);
    for (size_t r = 0; r < n_rows; ++r) {
      pairs.push_back(
          {pool.Intern("k" + std::to_string(rng.Uniform(40))),
           pool.Intern("v" + std::to_string(rng.Uniform(8)))});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = static_cast<BinaryTableId>(cands.size());
    cands.push_back(std::move(b));
    order.push_back(static_cast<uint32_t>(rng.Uniform(100)));
  };
  for (int i = 0; i < 300; ++i) add();
  BlockingOptions opts;
  opts.theta_overlap = 1;
  opts.max_posting = 8;
  ThreadPool one(1), two(2), four(4);
  ThreadPool* pools[] = {&one, &two, &four};

  std::vector<CandidateTablePair> want;
  BlockingStats want_stats;
  for (ThreadPool* p : pools) {
    BlockingStats stats;
    auto got = GenerateCandidatePairs(cands, opts, p, &stats, order);
    if (p == &one) {
      want = got;
      want_stats = stats;
      continue;
    }
    ExpectSamePairs(got, want);
    EXPECT_EQ(stats.keys, want_stats.keys);
    EXPECT_EQ(stats.dropped_postings, want_stats.dropped_postings);
    EXPECT_EQ(stats.tainted, want_stats.tainted);
  }
  EXPECT_GT(want_stats.dropped_postings, 0u);
  EXPECT_GT(want.size(), 1000u);

  // The same after a patch: retire every fifth candidate, append 30.
  BlockingKeyIndex index;
  index.Build(cands, opts.max_posting, order);
  std::vector<uint8_t> retired(cands.size(), 0);
  for (uint32_t id = 0; id < cands.size(); id += 5) {
    retired[id] = 1;
    BinaryTable shell = BinaryTable::FromPairs({});
    shell.id = id;
    cands[id] = std::move(shell);
  }
  for (int i = 0; i < 30; ++i) add();
  const auto change = index.Patch(cands, retired, order);
  const auto rows = index.CountRows(opts.theta_overlap, &one, &change.changed);
  ExpectSamePairs(index.CountRows(opts.theta_overlap, &two, &change.changed),
                  rows);
  ExpectSamePairs(index.CountRows(opts.theta_overlap, &four, &change.changed),
                  rows);
  EXPECT_FALSE(rows.empty());
}

}  // namespace
}  // namespace ms
