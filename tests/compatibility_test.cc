// Tests for pair-wise compatibility scores (Section 4.1): positive
// max-containment w+ (Equation 3, Examples 7-8) and negative conflict score
// w- (Equation 4, Example 9), with approximate matching and synonyms — and
// differential coverage holding the batched Myers fast path byte-identical
// to the seed scalar implementation (ComputeCompatibilityReference).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "synth/blocking.h"
#include "synth/compatibility.h"
#include "table/string_pool.h"

namespace ms {
namespace {

/// Table 8 of the paper (values pre-normalized as the pipeline would).
class Table8Fixture : public ::testing::Test {
 protected:
  Table8Fixture() : pool_(std::make_shared<StringPool>()) {}

  BinaryTable Make(const std::vector<std::pair<std::string, std::string>>&
                       rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool_->Intern(l), pool_->Intern(r)});
    }
    return BinaryTable::FromPairs(std::move(pairs));
  }

  void SetUp() override {
    b1_ = Make({{"afghanistan", "afg"},
                {"albania", "alb"},
                {"algeria", "alg"},
                {"american samoa", "asa"},
                {"south korea", "kor"},
                {"us virgin islands", "isv"}});
    b2_ = Make({{"afghanistan", "afg"},
                {"albania", "alb"},
                {"algeria", "alg"},
                {"american samoa us", "asa"},
                {"korea republic of south", "kor"},
                {"united states virgin islands", "isv"}});
    b3_ = Make({{"afghanistan", "afg"},
                {"albania", "alb"},
                {"algeria", "dza"},
                {"american samoa", "asm"},
                {"south korea", "kor"},
                {"us virgin islands", "vir"}});
  }

  std::shared_ptr<StringPool> pool_;
  BinaryTable b1_, b2_, b3_;
};

TEST_F(Table8Fixture, Example7ExactPositiveCompatibility) {
  CompatibilityOptions opts;
  opts.approximate_matching = false;
  PairScores s = ComputeCompatibility(b1_, b2_, *pool_, opts);
  // First three rows match exactly: w+ = max(3/6, 3/6) = 0.5.
  EXPECT_EQ(s.overlap, 3u);
  EXPECT_DOUBLE_EQ(s.w_pos, 0.5);
}

TEST_F(Table8Fixture, Example8ApproximateMatchingBoostsOverlap) {
  // The paper computes d("American Samoa", "American Samoa (US)") = 2
  // "ignoring punctuations"; after our normalization the residue is " us"
  // (3 edits), so the default f_ed = 0.2 threshold of 2 does not fire and a
  // slightly looser fraction is needed to reproduce the example's 0.67.
  CompatibilityOptions opts;
  opts.approximate_matching = true;
  opts.edit.fractional = 0.25;
  PairScores s = ComputeCompatibility(b1_, b2_, *pool_, opts);
  EXPECT_EQ(s.overlap, 4u);
  EXPECT_NEAR(s.w_pos, 0.67, 0.01);
}

TEST_F(Table8Fixture, Example9NegativeIncompatibility) {
  CompatibilityOptions opts;
  opts.approximate_matching = false;
  PairScores s = ComputeCompatibility(b1_, b3_, *pool_, opts);
  // Rows 3, 4, 6 conflict (ALG/DZA, ASA/ASM, ISV/VIR): w- = -3/6.
  EXPECT_EQ(s.conflicts, 3u);
  EXPECT_DOUBLE_EQ(s.w_neg, -0.5);
  // And the positive overlap is also 0.5 (rows 1, 2, 5) — the trap that
  // makes positive-only methods merge IOC with ISO.
  EXPECT_DOUBLE_EQ(s.w_pos, 0.5);
}

TEST_F(Table8Fixture, SameRelationHasNoConflicts) {
  CompatibilityOptions opts;
  PairScores s = ComputeCompatibility(b1_, b2_, *pool_, opts);
  EXPECT_EQ(s.conflicts, 0u);
  EXPECT_DOUBLE_EQ(s.w_neg, 0.0);
}

TEST_F(Table8Fixture, ScoresAreSymmetric) {
  for (const auto* a : {&b1_, &b2_, &b3_}) {
    for (const auto* b : {&b1_, &b2_, &b3_}) {
      PairScores ab = ComputeCompatibility(*a, *b, *pool_);
      PairScores ba = ComputeCompatibility(*b, *a, *pool_);
      EXPECT_DOUBLE_EQ(ab.w_pos, ba.w_pos);
      EXPECT_DOUBLE_EQ(ab.w_neg, ba.w_neg);
    }
  }
}

TEST_F(Table8Fixture, ScoresAreBounded) {
  PairScores s = ComputeCompatibility(b1_, b3_, *pool_);
  EXPECT_GE(s.w_pos, 0.0);
  EXPECT_LE(s.w_pos, 1.0);
  EXPECT_GE(s.w_neg, -1.0);
  EXPECT_LE(s.w_neg, 0.0);
}

TEST_F(Table8Fixture, SelfCompatibilityIsPerfect) {
  PairScores s = ComputeCompatibility(b1_, b1_, *pool_);
  EXPECT_DOUBLE_EQ(s.w_pos, 1.0);
  EXPECT_DOUBLE_EQ(s.w_neg, 0.0);
}

TEST_F(Table8Fixture, ContainmentFavorsSubsets) {
  // A 2-row subset of b1 is fully contained: w+ = max(2/2, 2/6) = 1.
  BinaryTable small = Make({{"afghanistan", "afg"}, {"albania", "alb"}});
  PairScores s = ComputeCompatibility(small, b1_, *pool_);
  EXPECT_DOUBLE_EQ(s.w_pos, 1.0);
}

TEST_F(Table8Fixture, EmptyTablesScoreZero) {
  BinaryTable empty;
  PairScores s = ComputeCompatibility(empty, b1_, *pool_);
  EXPECT_DOUBLE_EQ(s.w_pos, 0.0);
  EXPECT_DOUBLE_EQ(s.w_neg, 0.0);
}

TEST_F(Table8Fixture, SynonymsCountAsPositiveMatches) {
  SynonymDictionary dict(pool_);
  dict.AddSynonym("us virgin islands", "united states virgin islands");
  dict.AddSynonym("south korea", "korea republic of south");
  CompatibilityOptions opts;
  opts.approximate_matching = false;
  opts.synonyms = &dict;
  PairScores s = ComputeCompatibility(b1_, b2_, *pool_, opts);
  EXPECT_EQ(s.overlap, 5u);  // 3 exact + 2 synonym-bridged
}

TEST_F(Table8Fixture, SynonymousRightsDoNotConflict) {
  BinaryTable x = Make({{"germany", "deu"}});
  BinaryTable y = Make({{"germany", "ger"}});
  EXPECT_EQ(ComputeCompatibility(x, y, *pool_).conflicts, 1u);

  SynonymDictionary dict(pool_);
  dict.AddSynonym("deu", "ger");
  CompatibilityOptions opts;
  opts.synonyms = &dict;
  PairScores s = ComputeCompatibility(x, y, *pool_, opts);
  EXPECT_EQ(s.conflicts, 0u);
  EXPECT_EQ(s.overlap, 1u);  // synonym rights now also match positively
}

TEST_F(Table8Fixture, ValuesMatchPredicate) {
  CompatibilityOptions exact;
  exact.approximate_matching = false;
  ValueId a = pool_->Intern("value one");
  ValueId b = pool_->Intern("value one x");
  EXPECT_TRUE(ValuesMatch(a, a, *pool_, exact));
  EXPECT_FALSE(ValuesMatch(a, b, *pool_, exact));
  CompatibilityOptions approx;
  approx.edit.fractional = 0.3;
  EXPECT_TRUE(ValuesMatch(a, b, *pool_, approx));
}

TEST_F(Table8Fixture, ShortCodesNeverApproxMatch) {
  // "usa" vs "rsa" stay distinct under approximate matching (fractional
  // threshold floors to 0 for 3-char strings) — the paper's safeguard.
  BinaryTable x = Make({{"united states", "usa"}});
  BinaryTable y = Make({{"united states", "rsa"}});
  CompatibilityOptions opts;
  PairScores s = ComputeCompatibility(x, y, *pool_, opts);
  EXPECT_EQ(s.overlap, 0u);
  EXPECT_EQ(s.conflicts, 1u);
}

TEST_F(Table8Fixture, GreedyResidueMatchingIsOneToOne) {
  // Two near-identical pairs in a must not both match the single pair in b.
  BinaryTable a = Make({{"entityx one", "cc1"}, {"entityx onee", "cc1"}});
  BinaryTable b = Make({{"entityx one!", "cc1"}});
  CompatibilityOptions opts;
  opts.edit.fractional = 0.3;
  PairScores s = ComputeCompatibility(a, b, *pool_, opts);
  EXPECT_EQ(s.overlap, 1u);
}

// ----------------------------------------------------- fast-path equivalence

/// Random value universe with realistic shape: shared country-like names,
/// typo'd variants (exercising the approximate matcher), short codes, and a
/// sprinkle of long multi-word strings (exercising the blocked kernel).
class FastPathFixture : public ::testing::Test {
 protected:
  FastPathFixture() : pool_(std::make_shared<StringPool>()) {}

  std::vector<ValueId> MakeUniverse(Rng& rng, size_t n) {
    std::vector<ValueId> ids;
    for (size_t i = 0; i < n; ++i) {
      std::string s = "entity " + std::to_string(rng.Uniform(n / 2 + 1));
      const double r = rng.UniformDouble();
      if (r < 0.25) {  // typo variant
        s += std::string(1, static_cast<char>('a' + rng.Uniform(26)));
      } else if (r < 0.35) {  // short code
        s = s.substr(s.size() - 3);
      } else if (r < 0.45) {  // long string (> 64 bytes)
        while (s.size() <= 70) s += " of the united provinces";
      }
      ids.push_back(pool_->Intern(s));
    }
    return ids;
  }

  BinaryTable RandomTable(Rng& rng, const std::vector<ValueId>& lefts,
                          const std::vector<ValueId>& rights) {
    std::vector<ValuePair> pairs;
    const size_t rows = 2 + rng.Uniform(12);
    for (size_t r = 0; r < rows; ++r) {
      pairs.push_back({rng.Pick(lefts), rng.Pick(rights)});
    }
    return BinaryTable::FromPairs(std::move(pairs));
  }

  static void ExpectSameScores(const PairScores& x, const PairScores& y,
                               const std::string& ctx) {
    EXPECT_EQ(x.overlap, y.overlap) << ctx;
    EXPECT_EQ(x.conflicts, y.conflicts) << ctx;
    EXPECT_EQ(x.w_pos, y.w_pos) << ctx;    // bitwise: same integer inputs
    EXPECT_EQ(x.w_neg, y.w_neg) << ctx;
  }

  std::shared_ptr<StringPool> pool_;
};

TEST_F(FastPathFixture, BatchMatcherAgreesWithValuesMatch) {
  Rng rng(71);
  auto ids = MakeUniverse(rng, 160);
  SynonymDictionary dict(pool_);
  dict.AddSynonym("entity 0", "entity 1");
  for (const bool approx : {true, false}) {
    for (const bool gate : {true, false}) {
      const SynonymDictionary* configs[] = {nullptr, &dict};
      for (const SynonymDictionary* syn : configs) {
        CompatibilityOptions opts;
        opts.approximate_matching = approx;
        opts.edit.use_bit_parallel = gate;
        opts.synonyms = syn;
        BatchApproxMatcher matcher(*pool_, opts.edit, approx, syn);
        for (int i = 0; i < 4000; ++i) {
          const ValueId a = rng.Pick(ids);
          const ValueId b = rng.Pick(ids);
          ASSERT_EQ(matcher.Match(a, b), ValuesMatch(a, b, *pool_, opts))
              << pool_->Get(a) << " vs " << pool_->Get(b) << " approx="
              << approx << " gate=" << gate << " syn=" << (syn != nullptr);
        }
        EXPECT_EQ(matcher.stats().match_calls, 4000u);
        if (approx && gate) {
          EXPECT_GT(matcher.stats().pattern_cache_hits, 0u);
        }
      }
    }
  }
}

TEST_F(FastPathFixture, FastPathMatchesReferenceOnRandomTables) {
  Rng rng(72);
  auto lefts = MakeUniverse(rng, 80);
  auto rights = MakeUniverse(rng, 40);
  SynonymDictionary dict(pool_);
  dict.AddSynonym("entity 2", "entity 3");
  for (int round = 0; round < 120; ++round) {
    BinaryTable a = RandomTable(rng, lefts, rights);
    BinaryTable b = RandomTable(rng, lefts, rights);
    for (const bool approx : {true, false}) {
      for (const bool gate : {true, false}) {
        CompatibilityOptions opts;
        opts.approximate_matching = approx;
        opts.edit.use_bit_parallel = gate;
        if (round % 3 == 0) opts.synonyms = &dict;
        const PairScores ref = ComputeCompatibilityReference(a, b, *pool_,
                                                             opts);
        const PairScores fast = ComputeCompatibility(a, b, *pool_, opts);
        ExpectSameScores(fast, ref,
                         "round " + std::to_string(round) + " approx=" +
                             std::to_string(approx) + " gate=" +
                             std::to_string(gate));
      }
    }
  }
}

TEST_F(FastPathFixture, BlockingHintReuseIsExact) {
  // Score every blocking survivor of a random candidate set twice — with
  // the hint-driven fast path and with the reference — under exact-only
  // matching, where the hint replaces the pair-list merge outright.
  Rng rng(73);
  auto lefts = MakeUniverse(rng, 60);
  auto rights = MakeUniverse(rng, 30);
  std::vector<BinaryTable> candidates;
  for (int t = 0; t < 120; ++t) {
    candidates.push_back(RandomTable(rng, lefts, rights));
    candidates.back().id = static_cast<BinaryTableId>(t);
  }
  BlockingOptions bopts;
  BlockingStats bstats;
  auto pairs = GenerateCandidatePairs(candidates, bopts, nullptr, &bstats);
  ASSERT_FALSE(pairs.empty());
  ASSERT_TRUE(bstats.exact_counts);

  CompatibilityOptions opts;
  opts.approximate_matching = false;
  ASSERT_TRUE(opts.reuse_blocking_counts);
  BatchApproxMatcher matcher(*pool_, opts.edit, false, nullptr);
  ScoringStats sstats;
  for (const auto& p : pairs) {
    const BlockingHint hint{p.shared_pairs, p.shared_lefts, true};
    const PairScores fast =
        ComputeCompatibility(candidates[p.a], candidates[p.b], *pool_, opts,
                             &matcher, &hint, &sstats);
    const PairScores ref = ComputeCompatibilityReference(
        candidates[p.a], candidates[p.b], *pool_, opts);
    ExpectSameScores(fast, ref, "pair " + std::to_string(p.a) + "," +
                                    std::to_string(p.b));
    // The hint is threaded through to the scores.
    EXPECT_EQ(fast.shared_pairs, p.shared_pairs);
    EXPECT_EQ(fast.shared_lefts, p.shared_lefts);
  }
  // Every overlap merge was replaced by the blocking count.
  EXPECT_EQ(sstats.overlap_merges_skipped, pairs.size());
}

TEST_F(FastPathFixture, InexactHintsAreIgnored) {
  Rng rng(74);
  BinaryTable a = RandomTable(rng, MakeUniverse(rng, 20),
                              MakeUniverse(rng, 10));
  // A wildly wrong hint marked inexact must not corrupt the scores.
  CompatibilityOptions opts;
  opts.approximate_matching = false;
  BatchApproxMatcher matcher(*pool_, opts.edit, false, nullptr);
  const BlockingHint bogus{9999, 9999, /*exact=*/false};
  const PairScores with_hint =
      ComputeCompatibility(a, a, *pool_, opts, &matcher, &bogus, nullptr);
  const PairScores ref = ComputeCompatibilityReference(a, a, *pool_, opts);
  EXPECT_EQ(with_hint.overlap, ref.overlap);
  EXPECT_EQ(with_hint.conflicts, ref.conflicts);
  EXPECT_EQ(with_hint.shared_pairs, 9999u);  // recorded, not trusted
}

// ------------------------------------------------- residue content order

/// The same string tables built in two pools that interned their strings
/// in different orders, so every ValueId — and with it the id order the
/// residue pairs arrive in — differs between the two.
struct TwoPools {
  StringPool first;
  StringPool second;

  /// Interns `strings` into `first` in order and into `second` reversed.
  explicit TwoPools(const std::vector<std::string>& strings) {
    for (const auto& s : strings) first.Intern(s);
    for (auto it = strings.rbegin(); it != strings.rend(); ++it) {
      second.Intern(*it);
    }
  }

  static BinaryTable Build(
      StringPool& pool,
      const std::vector<std::pair<std::string, std::string>>& rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool.Intern(l), pool.Intern(r)});
    }
    return BinaryTable::FromPairs(std::move(pairs));
  }
};

/// Scores (a, b) in both pools through the matcher path and the reference
/// and requires all four results to be bitwise equal; returns the first.
PairScores ScoreInBothPools(
    TwoPools& pools,
    const std::vector<std::pair<std::string, std::string>>& a,
    const std::vector<std::pair<std::string, std::string>>& b,
    const CompatibilityOptions& opts, BatchApproxMatcher& m1,
    BatchApproxMatcher& m2, const std::string& ctx) {
  const BinaryTable a1 = TwoPools::Build(pools.first, a);
  const BinaryTable b1 = TwoPools::Build(pools.first, b);
  const BinaryTable a2 = TwoPools::Build(pools.second, a);
  const BinaryTable b2 = TwoPools::Build(pools.second, b);
  const PairScores fast1 =
      ComputeCompatibility(a1, b1, pools.first, opts, &m1);
  const PairScores fast2 =
      ComputeCompatibility(a2, b2, pools.second, opts, &m2);
  const PairScores ref1 =
      ComputeCompatibilityReference(a1, b1, pools.first, opts);
  const PairScores ref2 =
      ComputeCompatibilityReference(a2, b2, pools.second, opts);
  for (const PairScores* other : {&fast2, &ref1, &ref2}) {
    EXPECT_EQ(fast1.overlap, other->overlap) << ctx;
    EXPECT_EQ(fast1.conflicts, other->conflicts) << ctx;
    EXPECT_EQ(fast1.w_pos, other->w_pos) << ctx;  // bitwise
    EXPECT_EQ(fast1.w_neg, other->w_neg) << ctx;
  }
  return fast1;
}

TEST(ResidueOrderTest, InterningOrderCannotChangeAScore) {
  // A hand-built case where the greedy residue matching depends on order:
  // "abcdefghij" matches both b lefts, "abcdefghizw" only "abcdefghiz".
  // Content order hands "abcdefghiz" to "abcdefghij" first and strands
  // "abcdefghizw" (overlap 1). The second pool's id order takes
  // "abcdefghizw" first, and there both find a partner (overlap 2), so
  // without the content sort the two pools would disagree.
  const std::vector<std::pair<std::string, std::string>> a = {
      {"abcdefghij", "cc1"}, {"abcdefghizw", "cc1"}};
  const std::vector<std::pair<std::string, std::string>> b = {
      {"abcdefghxy", "cc1"}, {"abcdefghiz", "cc1"}};
  TwoPools pools({"abcdefghij", "abcdefghizw", "abcdefghiz", "abcdefghxy",
                  "cc1"});
  ASSERT_LT(pools.second.Find("abcdefghizw"),
            pools.second.Find("abcdefghij"));
  ASSERT_LT(pools.second.Find("abcdefghxy"), pools.second.Find("abcdefghiz"));
  CompatibilityOptions opts;
  BatchApproxMatcher m1(pools.first, opts.edit, true, nullptr);
  BatchApproxMatcher m2(pools.second, opts.edit, true, nullptr);
  EXPECT_EQ(ScoreInBothPools(pools, a, b, opts, m1, m2, "hand-built").overlap,
            1u);

  // Random residue-heavy tables over typo'd variants, scored through one
  // long-lived matcher per pool as the session does.
  Rng rng(75);
  std::vector<std::string> lefts, rights;
  for (int i = 0; i < 60; ++i) {
    std::string s = "entity " + std::to_string(rng.Uniform(20));
    if (rng.UniformDouble() < 0.6) {
      s += std::string(1, static_cast<char>('a' + rng.Uniform(26)));
    }
    lefts.push_back(s);
  }
  for (int i = 0; i < 20; ++i) {
    rights.push_back("code " + std::to_string(rng.Uniform(6)) +
                     std::string(1, static_cast<char>('a' + rng.Uniform(3))));
  }
  std::vector<std::string> universe = lefts;
  universe.insert(universe.end(), rights.begin(), rights.end());
  rng.Shuffle(universe);
  TwoPools random_pools(universe);
  BatchApproxMatcher r1(random_pools.first, opts.edit, true, nullptr);
  BatchApproxMatcher r2(random_pools.second, opts.edit, true, nullptr);
  size_t approx_overlap = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::pair<std::string, std::string>> ta, tb;
    for (size_t r = 2 + rng.Uniform(10); r > 0; --r) {
      ta.push_back({rng.Pick(lefts), rng.Pick(rights)});
    }
    for (size_t r = 2 + rng.Uniform(10); r > 0; --r) {
      tb.push_back({rng.Pick(lefts), rng.Pick(rights)});
    }
    approx_overlap += ScoreInBothPools(random_pools, ta, tb, opts, r1, r2,
                                       "round " + std::to_string(round))
                          .overlap;
  }
  EXPECT_GT(approx_overlap, 0u);
}

TEST_F(FastPathFixture, ResidueKeysRespectTheMatcherCacheCap) {
  // Residue-heavy tables scored through a matcher capped at 4 values: the
  // sort keys are read through the cache too, so the cap must hold after
  // every pair and flushing must not change a score. Under synonym-only
  // matching Match caches nothing, so there only the keys fill the cache.
  Rng rng(76);
  auto lefts = MakeUniverse(rng, 80);
  auto rights = MakeUniverse(rng, 40);
  SynonymDictionary dict(pool_);
  dict.AddSynonym("entity 2", "entity 3");
  for (const bool approx : {true, false}) {
    CompatibilityOptions opts;
    opts.approximate_matching = approx;
    if (!approx) opts.synonyms = &dict;
    BatchApproxMatcher capped(*pool_, opts.edit, approx, opts.synonyms,
                              nullptr, /*max_cached_values=*/4);
    BatchApproxMatcher uncapped(*pool_, opts.edit, approx, opts.synonyms);
    for (int round = 0; round < 150; ++round) {
      const BinaryTable a = RandomTable(rng, lefts, rights);
      const BinaryTable b = RandomTable(rng, lefts, rights);
      const std::string ctx =
          "round " + std::to_string(round) + " approx=" +
          std::to_string(approx);
      const PairScores ref =
          ComputeCompatibilityReference(a, b, *pool_, opts);
      ExpectSameScores(
          ComputeCompatibility(a, b, *pool_, opts, &capped), ref, ctx);
      ExpectSameScores(
          ComputeCompatibility(a, b, *pool_, opts, &uncapped), ref, ctx);
      ASSERT_LE(capped.cached_values(), 4u) << ctx;
    }
    EXPECT_GT(capped.stats().cache_flushes, 0u);
    EXPECT_GT(uncapped.cached_values(), 4u);
  }
}

TEST_F(FastPathFixture, TextReadsThePoolThroughTheCache) {
  std::vector<ValueId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(pool_->Intern("value " + std::to_string(i)));
  }
  BatchApproxMatcher matcher(*pool_, EditDistanceOptions{}, true, nullptr,
                             nullptr, /*max_cached_values=*/4);
  for (int pass = 0; pass < 2; ++pass) {
    for (const ValueId id : ids) {
      EXPECT_EQ(matcher.Text(id), pool_->Get(id));
      EXPECT_LE(matcher.cached_values(), 4u);
    }
  }
  EXPECT_GT(matcher.stats().cache_flushes, 0u);
  EXPECT_EQ(matcher.stats().match_calls, 0u);
}

}  // namespace
}  // namespace ms
