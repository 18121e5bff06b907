// Tests for the corpus inverted index, PMI/NPMI (Equations 1-2, Example 4),
// and column coherence (Example 5's Table 7 scenario).
#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "oracles/inverted_index_reference.h"
#include "stats/coherence.h"
#include "stats/inverted_index.h"
#include "stats/npmi.h"
#include "table/corpus.h"

namespace ms {
namespace {

/// A corpus where {usa, canada, mexico} co-occur in many columns, {red,
/// blue} co-occur in others, and "orphan" appears alone.
class StatsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      corpus_.AddFromStrings(
          "geo" + std::to_string(i), TableSource::kWeb, {"country"},
          {{"usa", "canada", "mexico"}});
    }
    for (int i = 0; i < 6; ++i) {
      corpus_.AddFromStrings("col" + std::to_string(i), TableSource::kWeb,
                             {"color"}, {{"red", "blue"}});
    }
    corpus_.AddFromStrings("misc", TableSource::kWeb, {"x"}, {{"orphan"}});
    // One column mixing both concepts.
    corpus_.AddFromStrings("mixed", TableSource::kWeb, {"m"},
                           {{"usa", "red"}});
    index_.Build(corpus_);
  }

  ValueId Id(const std::string& s) { return corpus_.pool().Find(s); }

  TableCorpus corpus_;
  ColumnInvertedIndex index_;
};

TEST_F(StatsFixture, ColumnCountMatchesCorpus) {
  EXPECT_EQ(index_.num_columns(), corpus_.TotalColumns());
  EXPECT_EQ(index_.num_columns(), 18u);
}

TEST_F(StatsFixture, ColumnFrequency) {
  EXPECT_EQ(index_.ColumnFrequency(Id("usa")), 11u);     // 10 geo + mixed
  EXPECT_EQ(index_.ColumnFrequency(Id("canada")), 10u);
  EXPECT_EQ(index_.ColumnFrequency(Id("red")), 7u);      // 6 color + mixed
  EXPECT_EQ(index_.ColumnFrequency(Id("orphan")), 1u);
  EXPECT_EQ(index_.ColumnFrequency(999999), 0u);  // unseen id
}

TEST_F(StatsFixture, CoOccurrence) {
  EXPECT_EQ(index_.CoOccurrence(Id("usa"), Id("canada")), 10u);
  EXPECT_EQ(index_.CoOccurrence(Id("usa"), Id("red")), 1u);  // mixed column
  EXPECT_EQ(index_.CoOccurrence(Id("canada"), Id("red")), 0u);
  EXPECT_EQ(index_.CoOccurrence(Id("orphan"), Id("usa")), 0u);
}

TEST_F(StatsFixture, DuplicateValueInColumnCountsOnce) {
  TableCorpus c;
  c.AddFromStrings("d", TableSource::kWeb, {"x"}, {{"a", "a", "a"}});
  ColumnInvertedIndex idx;
  idx.Build(c);
  EXPECT_EQ(idx.ColumnFrequency(c.pool().Find("a")), 1u);
}

TEST_F(StatsFixture, ColumnCoords) {
  auto [table, col] = index_.ColumnCoords(0);
  EXPECT_EQ(table, 0u);
  EXPECT_EQ(col, 0u);
}

TEST_F(StatsFixture, PmiPositiveForCoOccurring) {
  EXPECT_GT(Pmi(index_, Id("usa"), Id("canada")), 0.0);
}

TEST_F(StatsFixture, PmiVeryNegativeForNonCoOccurring) {
  EXPECT_LT(Pmi(index_, Id("canada"), Id("red")), -1e8);
}

TEST_F(StatsFixture, PmiZeroForUnseenValues) {
  EXPECT_DOUBLE_EQ(Pmi(index_, 999999, Id("usa")), 0.0);
}

TEST_F(StatsFixture, NpmiRange) {
  for (const char* a : {"usa", "canada", "red", "blue", "orphan"}) {
    for (const char* b : {"usa", "canada", "red", "blue", "orphan"}) {
      double v = Npmi(index_, Id(a), Id(b));
      EXPECT_GE(v, -1.0) << a << "," << b;
      EXPECT_LE(v, 1.0) << a << "," << b;
    }
  }
}

TEST_F(StatsFixture, NpmiSelfIsOneWhenExclusive) {
  // canada only ever occurs with itself-containing columns: NPMI(u,u)=1.
  EXPECT_DOUBLE_EQ(Npmi(index_, Id("canada"), Id("canada")), 1.0);
}

TEST_F(StatsFixture, NpmiMinusOneForDisjoint) {
  EXPECT_DOUBLE_EQ(Npmi(index_, Id("canada"), Id("red")), -1.0);
}

TEST_F(StatsFixture, NpmiOrdersRelatednessSensibly) {
  const double strong = Npmi(index_, Id("usa"), Id("canada"));
  const double weak = Npmi(index_, Id("usa"), Id("red"));
  EXPECT_GT(strong, weak);
}

TEST(PmiExampleTest, PaperExample4) {
  // N=100M columns, |C(u)|=1000, |C(v)|=500, |C(u)∩C(v)|=300
  // => PMI = log(300e-8 / (1e-5 * 5e-6)) = log(6e4) ≈ 11.0 (natural log).
  // The paper quotes 4.78 with log10; we use natural log, so check the
  // ratio rather than the constant.
  const double n = 1e8, cu = 1000, cv = 500, cuv = 300;
  const double pmi = std::log((cuv / n) / ((cu / n) * (cv / n)));
  EXPECT_NEAR(pmi / std::log(10.0), 4.778, 0.01);  // matches the paper in log10
}

// ------------------------------------------------- CSR-vs-reference oracle

TEST(CsrEquivalenceTest, MatchesReferenceOnRandomCorpora) {
  // The CSR build (serial and parallel) must agree with the seed
  // vector<vector> build on every observable: column counts, frequencies,
  // posting lists, and co-occurrence counts.
  for (uint64_t seed : {3u, 17u, 91u}) {
    Rng rng(seed);
    TableCorpus corpus;
    const size_t n_tables = 20 + rng.Uniform(30);
    for (size_t t = 0; t < n_tables; ++t) {
      const size_t n_cols = 1 + rng.Uniform(4);
      std::vector<std::string> names;
      std::vector<std::vector<std::string>> cols;
      for (size_t c = 0; c < n_cols; ++c) {
        names.push_back("c" + std::to_string(c));
        std::vector<std::string> cells;
        const size_t n_rows = 1 + rng.Uniform(15);
        for (size_t r = 0; r < n_rows; ++r) {
          // Zipf skew => a few very hot values with long posting lists.
          cells.push_back("w" + std::to_string(rng.Zipf(80)));
        }
        cols.push_back(std::move(cells));
      }
      corpus.AddFromStrings("d" + std::to_string(t), TableSource::kWeb, names,
                            cols);
    }

    ReferenceInvertedIndex ref;
    ref.Build(corpus);
    ColumnInvertedIndex csr;
    csr.Build(corpus);
    ThreadPool pool(4);
    ColumnInvertedIndex csr_par;
    csr_par.Build(corpus, &pool);

    ASSERT_EQ(csr.num_columns(), ref.num_columns());
    ASSERT_EQ(csr_par.num_columns(), ref.num_columns());
    const size_t n_values = corpus.pool().size();
    for (ValueId u = 0; u < n_values; ++u) {
      ASSERT_EQ(csr.ColumnFrequency(u), ref.ColumnFrequency(u)) << "u=" << u;
      ASSERT_EQ(csr_par.ColumnFrequency(u), ref.ColumnFrequency(u));
      PostingsView pv = csr.Postings(u);
      const auto& rv = ref.Postings(u);
      ASSERT_EQ(pv.size, rv.size());
      for (size_t i = 0; i < pv.size; ++i) {
        ASSERT_EQ(pv[i], rv[i]) << "u=" << u << " i=" << i;
      }
      PostingsView pp = csr_par.Postings(u);
      ASSERT_EQ(pp.size, rv.size());
      for (size_t i = 0; i < pp.size; ++i) ASSERT_EQ(pp[i], rv[i]);
    }
    for (int rep = 0; rep < 400; ++rep) {
      ValueId u = static_cast<ValueId>(rng.Uniform(n_values));
      ValueId v = static_cast<ValueId>(rng.Uniform(n_values));
      ASSERT_EQ(csr.CoOccurrence(u, v), ref.CoOccurrence(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(CsrEquivalenceTest, GallopingHandlesSkewedLists) {
  // One value present in every column, one in few: forces the galloping
  // path (|long| / |short| >= 8) in both argument orders.
  TableCorpus corpus;
  for (int t = 0; t < 120; ++t) {
    std::vector<std::string> cells = {"hot"};
    if (t % 30 == 0) cells.push_back("rare");
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {cells});
  }
  ReferenceInvertedIndex ref;
  ref.Build(corpus);
  ColumnInvertedIndex csr;
  csr.Build(corpus);
  ValueId hot = corpus.pool().Find("hot");
  ValueId rare = corpus.pool().Find("rare");
  EXPECT_EQ(csr.ColumnFrequency(hot), 120u);
  EXPECT_EQ(csr.ColumnFrequency(rare), 4u);
  EXPECT_EQ(csr.CoOccurrence(hot, rare), ref.CoOccurrence(hot, rare));
  EXPECT_EQ(csr.CoOccurrence(rare, hot), 4u);
  EXPECT_EQ(csr.CoOccurrence(hot, hot), 120u);
}

TEST(CsrEquivalenceTest, UnseenAndInvalidIdsAreSafe) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {{"a", "b"}});
  ColumnInvertedIndex csr;
  csr.Build(corpus);
  EXPECT_EQ(csr.ColumnFrequency(999999), 0u);
  EXPECT_EQ(csr.ColumnFrequency(kInvalidValueId), 0u);
  EXPECT_EQ(csr.CoOccurrence(kInvalidValueId, 0), 0u);
  EXPECT_TRUE(csr.Postings(kInvalidValueId).empty());
  ColumnInvertedIndex empty;
  TableCorpus none;
  empty.Build(none);
  EXPECT_EQ(empty.num_columns(), 0u);
  EXPECT_EQ(empty.ColumnFrequency(0), 0u);
}

// ---------------------------------------------------------------- Coherence

TEST_F(StatsFixture, CoherentColumnScoresHigh) {
  std::vector<ValueId> cells = {Id("usa"), Id("canada"), Id("mexico")};
  EXPECT_GT(ColumnCoherence(index_, cells), 0.5);
}

TEST_F(StatsFixture, MixedColumnScoresLow) {
  std::vector<ValueId> cells = {Id("usa"), Id("canada"), Id("red"),
                                Id("blue"), Id("orphan")};
  const double mixed = ColumnCoherence(index_, cells);
  std::vector<ValueId> pure = {Id("usa"), Id("canada"), Id("mexico")};
  EXPECT_LT(mixed, ColumnCoherence(index_, pure));
}

TEST_F(StatsFixture, SingleValueColumnIsTriviallyCoherent) {
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, {Id("usa")}), 1.0);
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, {Id("usa"), Id("usa")}), 1.0);
}

TEST_F(StatsFixture, EmptyColumnScoresZero) {
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, {}), 0.0);
}

TEST_F(StatsFixture, SamplingIsDeterministic) {
  std::vector<ValueId> cells;
  for (int rep = 0; rep < 3; ++rep) {
    cells.push_back(Id("usa"));
    cells.push_back(Id("canada"));
    cells.push_back(Id("mexico"));
    cells.push_back(Id("red"));
    cells.push_back(Id("blue"));
  }
  CoherenceOptions opts;
  opts.max_sampled_values = 3;
  const double a = ColumnCoherence(index_, cells, opts);
  const double b = ColumnCoherence(index_, cells, opts);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(StatsFixture, SamplingCapChangesNothingWhenSmall) {
  std::vector<ValueId> cells = {Id("usa"), Id("canada")};
  CoherenceOptions big, small;
  small.max_sampled_values = 2;
  EXPECT_DOUBLE_EQ(ColumnCoherence(index_, cells, big),
                   ColumnCoherence(index_, cells, small));
}

// ------------------------------------------------ Coherence margin cache

TEST_F(StatsFixture, MonotoneVerdictsAreStableOutright) {
  CoherenceProfile prof;
  const double score = ColumnCoherence(
      index_, {Id("usa"), Id("canada"), Id("mexico")}, {}, &prof);
  ASSERT_GT(prof.pairs, 0u);
  ASSERT_EQ(prof.n_eval, index_.num_columns());
  // Same N, same counts: nothing moved.
  EXPECT_TRUE(CoherenceVerdictStable(prof, 0.5, prof.n_eval));
  // At fixed counts S(C) only rises with N, so a kept verdict survives any
  // growth and a rejected one survives any shrink — no bound math needed.
  EXPECT_TRUE(CoherenceVerdictStable(prof, score - 0.01, prof.n_eval + 100));
  EXPECT_TRUE(CoherenceVerdictStable(prof, score + 0.01, prof.n_eval - 3));
}

TEST_F(StatsFixture, DistantThresholdsAreStableInTheHardDirections) {
  CoherenceProfile prof;
  ColumnCoherence(index_, {Id("usa"), Id("canada"), Id("mexico")}, {}, &prof);
  // S(C) lives in [-1, 1] at every N, so verdicts against thresholds
  // outside that range are provable even in the directions that need the
  // one-sided rho bound: rejected-vs-2.0 under growth, kept-vs-(-2.0)
  // under shrink (which additionally requires b_max < n_now).
  EXPECT_TRUE(CoherenceVerdictStable(prof, 2.0, prof.n_eval * 10));
  ASSERT_LT(prof.b_max, prof.n_eval - 3);
  EXPECT_TRUE(CoherenceVerdictStable(prof, -2.0, prof.n_eval - 3));
}

TEST_F(StatsFixture, StableVerdictsAgreeWithReEvaluationOnDisjointGrowth) {
  const std::vector<std::vector<ValueId>> cols = {
      {Id("usa"), Id("canada"), Id("mexico")},
      {Id("usa"), Id("canada"), Id("red"), Id("blue"), Id("orphan")},
      {Id("red"), Id("blue")},
  };
  std::vector<CoherenceProfile> profs(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    ColumnCoherence(index_, cols[i], {}, &profs[i]);
  }

  // Grow the corpus with columns over fresh values: every profiled
  // column's counts are unchanged and only N moves — exactly the regime
  // the margin cache is allowed to rule on.
  for (int i = 0; i < 40; ++i) {
    corpus_.AddFromStrings("pad" + std::to_string(i), TableSource::kWeb,
                           {"p"}, {{"pad value " + std::to_string(i)}});
  }
  ColumnInvertedIndex grown;
  grown.Build(corpus_);
  ASSERT_GT(grown.num_columns(), index_.num_columns());

  for (const double thr : {0.05, 0.2, 0.5, 0.8}) {
    for (size_t i = 0; i < cols.size(); ++i) {
      // Growth direction: a claim of stability is a proof, so the fresh
      // verdict at the grown N must agree with the cached one.
      if (CoherenceVerdictStable(profs[i], thr, grown.num_columns())) {
        EXPECT_EQ(ColumnCoherence(grown, cols[i]) >= thr,
                  profs[i].score >= thr)
            << "col " << i << " thr " << thr;
      }
      // Shrink direction: profile at the grown index, verdict at the
      // original N.
      CoherenceProfile big;
      const double score = ColumnCoherence(grown, cols[i], {}, &big);
      if (CoherenceVerdictStable(big, thr, index_.num_columns())) {
        EXPECT_EQ(ColumnCoherence(index_, cols[i]) >= thr, score >= thr)
            << "col " << i << " thr " << thr;
      }
    }
  }
}

// ------------------------------------- one intersection per supported pair

/// ColumnCoherence as it stood before NPMI and the margin profile shared
/// one c_uv: Npmi intersects the pair's posting lists, then the profile
/// intersects them again. The oracle for the fused implementation.
double TwoCallColumnCoherence(const ColumnInvertedIndex& index,
                              const std::vector<ValueId>& cells,
                              const CoherenceOptions& opts,
                              CoherenceProfile* profile) {
  if (profile != nullptr) {
    *profile = CoherenceProfile{};
    profile->n_eval = static_cast<uint32_t>(index.num_columns());
  }
  std::vector<ValueId> distinct(cells);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (distinct.empty()) return 0.0;
  if (distinct.size() == 1) {
    if (profile != nullptr) profile->score = 1.0;
    return 1.0;
  }
  if (distinct.size() > opts.max_sampled_values) {
    Rng rng(opts.sample_seed);
    rng.Shuffle(distinct);
    distinct.resize(opts.max_sampled_values);
  }
  double sum = 0.0;
  double sum_pos = 0.0;
  size_t pairs = 0;
  uint32_t sup_pos = 0;
  uint32_t sup_zero = 0;
  uint32_t b_max = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    const bool i_supported =
        index.ColumnFrequency(distinct[i]) >= opts.min_value_support;
    for (size_t j = i + 1; j < distinct.size(); ++j) {
      if (i_supported &&
          index.ColumnFrequency(distinct[j]) >= opts.min_value_support) {
        const double npmi = Npmi(index, distinct[i], distinct[j]);
        sum += npmi;
        if (profile != nullptr) {
          const uint32_t cuv = static_cast<uint32_t>(
              index.CoOccurrence(distinct[i], distinct[j]));
          if (cuv > 0) {
            ++sup_pos;
            sum_pos += npmi;
            b_max = std::max(b_max, cuv);
          } else {
            ++sup_zero;
          }
        }
      }
      ++pairs;
    }
  }
  const double score = pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
  if (profile != nullptr) {
    profile->score = score;
    profile->sum_pos = sum_pos;
    profile->pairs = static_cast<uint32_t>(pairs);
    profile->sup_pos = sup_pos;
    profile->sup_zero = sup_zero;
    profile->b_max = b_max;
  }
  return score;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Asserts that ColumnCoherence, with and without a profile, reproduces
/// the two-call oracle bit for bit and field by field; returns the
/// oracle's profile.
CoherenceProfile ExpectMatchesOracle(const ColumnInvertedIndex& index,
                                     const std::vector<ValueId>& cells,
                                     const CoherenceOptions& opts,
                                     const std::string& ctx) {
  CoherenceProfile fused, oracle;
  const double fs = ColumnCoherence(index, cells, opts, &fused);
  const double os = TwoCallColumnCoherence(index, cells, opts, &oracle);
  EXPECT_EQ(Bits(fs), Bits(os)) << ctx;
  EXPECT_EQ(Bits(ColumnCoherence(index, cells, opts)), Bits(os)) << ctx;
  EXPECT_EQ(Bits(fused.score), Bits(oracle.score)) << ctx;
  EXPECT_EQ(Bits(fused.sum_pos), Bits(oracle.sum_pos)) << ctx;
  EXPECT_EQ(fused.pairs, oracle.pairs) << ctx;
  EXPECT_EQ(fused.sup_pos, oracle.sup_pos) << ctx;
  EXPECT_EQ(fused.sup_zero, oracle.sup_zero) << ctx;
  EXPECT_EQ(fused.b_max, oracle.b_max) << ctx;
  EXPECT_EQ(fused.n_eval, oracle.n_eval) << ctx;
  return oracle;
}

/// A random skewed corpus and three indexes over it whose ColumnId bounds
/// differ: `base` covers the tables before the very wide ones; `patched`
/// is base grown by AppendTables over the rest and shrunk by RemoveTables,
/// so its bound exceeds its column count; `full` is a cold build of every
/// table.
struct OracleCorpus {
  TableCorpus corpus;
  std::vector<std::vector<std::string>> columns;  ///< one per table
  ColumnInvertedIndex base, patched, full;
  /// Interned after every build: column frequency 0 in all three indexes,
  /// which only min_value_support 0 lets into the pair loop.
  std::vector<ValueId> unseen;

  std::vector<ValueId> Cells(size_t c) const {
    std::vector<ValueId> cells;
    for (const auto& v : columns[c]) cells.push_back(corpus.pool().Find(v));
    if (c % 4 == 0) cells.push_back(unseen[c % unseen.size()]);
    return cells;
  }
};

void BuildOracleCorpus(uint64_t seed, OracleCorpus* oc) {
  Rng rng(seed);
  auto add = [&](std::vector<std::string> cells) {
    oc->corpus.AddFromStrings("d" + std::to_string(oc->columns.size()),
                              TableSource::kWeb, {"c"}, {cells});
    oc->columns.push_back(std::move(cells));
  };
  const size_t n_tables = 30 + rng.Uniform(30);
  for (size_t t = 0; t < n_tables; ++t) {
    std::vector<std::string> cells;
    // One column in five is wide, mixing hot values with a long tail
    // so it holds more distinct values than the 32-value sample.
    const bool wide = rng.Uniform(5) == 0;
    const size_t n_rows = wide ? 50 + rng.Uniform(30) : 1 + rng.Uniform(20);
    for (size_t r = 0; r < n_rows; ++r) {
      cells.push_back("w" + std::to_string(wide && r % 2 == 1
                                               ? 120 + rng.Uniform(400)
                                               : rng.Zipf(120)));
    }
    add(std::move(cells));
  }
  oc->base.Build(oc->corpus);
  // Appended: very wide columns (over 100 distinct values), so that caps
  // of 33, 64 and 100 sampled values run two to four 32-value blocks.
  for (size_t t = 0; t < 8; ++t) {
    std::vector<std::string> cells;
    const size_t n_rows = 170 + rng.Uniform(60);
    for (size_t r = 0; r < n_rows; ++r) {
      cells.push_back("w" + std::to_string(r % 3 == 0 ? rng.Zipf(120)
                                                      : 120 + rng.Uniform(400)));
    }
    add(std::move(cells));
  }
  oc->full.Build(oc->corpus);
  oc->patched = oc->base;
  oc->patched.AppendTables(oc->corpus, n_tables);
  oc->patched.RemoveTables({1, 4, static_cast<TableId>(n_tables + 2)});
  for (int k = 0; k < 3; ++k) {
    oc->unseen.push_back(
        oc->corpus.pool().Intern("unseen " + std::to_string(k)));
  }
}

/// Supported values of a profile's sample: its supported pairs are m(m-1)/2.
size_t SupportedValues(const CoherenceProfile& p) {
  const size_t pairs = size_t{p.sup_pos} + p.sup_zero;
  size_t m = 0;
  while (m * (m + 1) / 2 < pairs) ++m;
  return pairs == 0 ? 0 : m + 1;
}

TEST(CoherenceFusionTest, ProfilesMatchTheTwoCallOracleBitwise) {
  // Profiles are persisted in snapshots and drive the margin cache, so the
  // counting kernel must reproduce every field bit for bit: on random
  // skewed corpora, at every support threshold, for columns below and
  // above the sampling cap (one block, a lone value past it, two and four
  // blocks), with values the index has never seen, on an index patched by
  // appends and removals, and alternating on one thread between indexes
  // whose id bounds differ, which reuses the thread's scratch.
  size_t sampled_columns = 0;
  size_t positive_pairs = 0;
  size_t zero_pairs = 0;
  size_t wide_columns = 0;
  size_t multi_block = 0;   // more than 32 supported values sampled
  size_t four_blocks = 0;   // more than 96
  size_t lone_block = 0;    // a last block of one value (33, 65, 97)
  for (uint64_t seed : {5u, 29u, 64u}) {
    OracleCorpus oc;
    BuildOracleCorpus(seed, &oc);
    ASSERT_GT(oc.patched.column_id_bound(), oc.patched.num_columns());
    ASSERT_EQ(oc.patched.column_id_bound(), oc.full.column_id_bound());
    ASSERT_LT(oc.base.column_id_bound(), oc.full.column_id_bound());
    const std::pair<const char*, const ColumnInvertedIndex*> indexes[] = {
        {"base", &oc.base}, {"patched", &oc.patched}, {"full", &oc.full}};

    for (const size_t support : {0u, 1u, 2u}) {
      for (const size_t cap : {32u, 33u, 64u, 100u}) {
        CoherenceOptions opts;
        opts.min_value_support = support;
        opts.max_sampled_values = cap;
        for (size_t c = 0; c < oc.columns.size(); ++c) {
          const std::vector<ValueId> cells = oc.Cells(c);
          std::vector<ValueId> distinct = cells;
          std::sort(distinct.begin(), distinct.end());
          distinct.erase(std::unique(distinct.begin(), distinct.end()),
                         distinct.end());
          if (distinct.size() > 100) ++wide_columns;
          for (const auto& [name, index] : indexes) {
            const std::string ctx =
                "seed " + std::to_string(seed) + " support " +
                std::to_string(support) + " cap " + std::to_string(cap) +
                " column " + std::to_string(c) + " index " + name;
            const CoherenceProfile oracle =
                ExpectMatchesOracle(*index, cells, opts, ctx);
            ASSERT_FALSE(::testing::Test::HasFailure()) << ctx;
            if (distinct.size() > opts.max_sampled_values) ++sampled_columns;
            positive_pairs += oracle.sup_pos;
            zero_pairs += oracle.sup_zero;
            const size_t m = SupportedValues(oracle);
            multi_block += m > 32;
            four_blocks += m > 96;
            lone_block += m > 32 && m % 32 == 1;
          }
        }
      }
    }
  }
  // The corpora exercised what they were built for.
  EXPECT_GT(sampled_columns, 0u);
  EXPECT_GT(positive_pairs, 0u);
  EXPECT_GT(zero_pairs, 0u);
  EXPECT_GT(wide_columns, 0u);
  EXPECT_GT(multi_block, 0u);
  EXPECT_GT(four_blocks, 0u);
  EXPECT_GT(lone_block, 0u);
}

TEST(CoherenceFusionTest, EpochWrapClearsTheSlotArray) {
  // A fresh thread's passes take epochs 1, 2, ... Score column x there,
  // then move the epoch to 2^32 - 1 and score column y across the wrap:
  // y's passes take epochs 1, 2, ... again, and x's slots would read as
  // live unless the wrap clears the array. Neighbouring columns share hot
  // values, so their posting lists overlap.
  OracleCorpus oc;
  BuildOracleCorpus(29, &oc);
  CoherenceOptions opts;
  opts.max_sampled_values = 64;
  size_t wraps = 0;
  for (size_t x = 0; x + 1 < oc.columns.size(); x += 2) {
    const size_t y = x + 1;
    std::thread([&] {
      ASSERT_EQ(ThreadCoherenceEpochForTesting(), 0u);
      ColumnCoherence(oc.full, oc.Cells(x), opts);
      const uint32_t used = ThreadCoherenceEpochForTesting();
      SetThreadCoherenceEpochForTesting(UINT32_MAX);
      ExpectMatchesOracle(oc.full, oc.Cells(y), opts,
                          "x " + std::to_string(x) + " y " + std::to_string(y));
      const uint32_t now = ThreadCoherenceEpochForTesting();
      wraps += used > 0 && now != UINT32_MAX && now <= 2 * used;
    }).join();
  }
  EXPECT_GT(wraps, 10u);
}

TEST(CoherenceFusionTest, NpmiFromCountsKeepsTheOrderOfChecks) {
  // No columns wins over everything, then an unseen value, then no
  // co-occurrence, then co-occurrence in every column.
  EXPECT_EQ(NpmiFromCounts(0, 1, 1, 1), 0.0);
  EXPECT_EQ(NpmiFromCounts(10, 0, 3, 0), 0.0);
  EXPECT_EQ(NpmiFromCounts(10, 3, 3, 0), -1.0);
  EXPECT_EQ(NpmiFromCounts(10, 10, 10, 10), 1.0);
  EXPECT_GT(NpmiFromCounts(10, 4, 3, 2), 0.0);
  EXPECT_LT(NpmiFromCounts(10, 4, 3, 2), 1.0);
}

// ---------------------------------------------- counts moved by a delta

TEST(CoherenceCacheTest, DeltaMovesBaseCountsToTheMutatedIndex) {
  // `patched` is `base` with the wide tables appended and tables 1, 4 and
  // the third appended one removed. Counts taken on `base` and moved by
  // those columns must be `patched`'s counts, and the re-score its
  // profile, bit for bit: at every support floor, for one- to four-block
  // samples, for columns holding values no index has seen, and for a table
  // both appended and removed (its two delta columns cancel).
  size_t moved = 0;
  for (uint64_t seed : {5u, 29u}) {
    OracleCorpus oc;
    BuildOracleCorpus(seed, &oc);
    const size_t first_new = oc.columns.size() - 8;
    std::vector<const std::vector<ValueId>*> appended, removed;
    for (size_t t = first_new; t < oc.corpus.size(); ++t) {
      appended.push_back(&oc.corpus.table(t).columns[0].cells);
    }
    for (size_t t : {size_t{1}, size_t{4}, first_new + 2}) {
      removed.push_back(&oc.corpus.table(t).columns[0].cells);
    }
    CoOccurrenceDelta delta;
    delta.Build(appended, removed);
    for (const size_t support : {0u, 1u, 2u}) {
      for (const size_t cap : {2u, 32u, 33u, 64u, 100u}) {
        CoherenceOptions opts;
        opts.min_value_support = support;
        opts.max_sampled_values = cap;
        for (size_t c = 0; c < oc.columns.size(); ++c) {
          const std::string ctx =
              "seed " + std::to_string(seed) + " support " +
              std::to_string(support) + " cap " + std::to_string(cap) +
              " column " + std::to_string(c);
          const std::vector<ValueId> cells = oc.Cells(c);
          std::vector<uint32_t> base(SampledPairCount(cells, opts));
          ColumnCoherence(oc.base, cells, opts, nullptr, base);
          std::vector<uint32_t> want(base.size()), got(base.size());
          CoherenceProfile want_profile, got_profile;
          ColumnCoherence(oc.patched, cells, opts, &want_profile, want);
          ColumnCoherenceFromCounts(oc.patched, delta, cells, opts, base, got,
                                    &got_profile);
          ASSERT_EQ(got, want) << ctx;
          ASSERT_EQ(Bits(got_profile.score), Bits(want_profile.score)) << ctx;
          ASSERT_EQ(Bits(got_profile.sum_pos), Bits(want_profile.sum_pos))
              << ctx;
          ASSERT_EQ(got_profile, want_profile) << ctx;
          moved += base != want;
          // In place: the moved counts may overwrite the base slice.
          ColumnCoherenceFromCounts(oc.patched, delta, cells, opts, base, base);
          ASSERT_EQ(base, want) << ctx;
        }
      }
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(CoherenceCacheTest, SliceOfAnotherSizeScoresTheColumnInFull) {
  // A count slice sized for another sample (counts taken on other cells)
  // cannot be this column's: the column is scored as ColumnCoherence
  // scores it, and the output slice is left alone.
  OracleCorpus oc;
  BuildOracleCorpus(5, &oc);
  CoOccurrenceDelta delta;
  delta.Build({}, {});
  const CoherenceOptions opts;
  size_t checked = 0;
  for (size_t c = 0; c < oc.columns.size(); ++c) {
    const std::vector<ValueId> cells = oc.Cells(c);
    const size_t pairs = SampledPairCount(cells, opts);
    if (pairs < 3) continue;
    ++checked;
    const std::vector<uint32_t> wrong(pairs - 1, 7);
    std::vector<uint32_t> out(pairs - 1, 9);
    CoherenceProfile want, got;
    const double score = ColumnCoherence(oc.full, cells, opts, &want);
    EXPECT_EQ(Bits(ColumnCoherenceFromCounts(oc.full, delta, cells, opts,
                                             wrong, out, &got)),
              Bits(score));
    EXPECT_EQ(got, want);
    EXPECT_EQ(out, std::vector<uint32_t>(pairs - 1, 9));
  }
  EXPECT_GT(checked, 0u);
}

// ------------------------------------------ concurrency (TSan leg)

TEST(CoherenceConcurrencyTest, FourThreadsMatchOneThreadBitwise) {
  // Each thread counts in its own scratch. Four threads score the same
  // columns at once, on indexes whose id bounds differ and with one- and
  // multi-block samples, and every profile must equal the one-thread
  // profile bit for bit.
  OracleCorpus oc;
  BuildOracleCorpus(64, &oc);
  struct Job {
    const ColumnInvertedIndex* index;
    CoherenceOptions opts;
    std::vector<ValueId> cells;
  };
  std::vector<Job> jobs;
  for (const ColumnInvertedIndex* index : {&oc.base, &oc.patched, &oc.full}) {
    for (const size_t cap : {32u, 100u}) {
      CoherenceOptions opts;
      opts.max_sampled_values = cap;
      for (size_t c = 0; c < oc.columns.size(); ++c) {
        jobs.push_back({index, opts, oc.Cells(c)});
      }
    }
  }
  std::vector<CoherenceProfile> want(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ColumnCoherence(*jobs[i].index, jobs[i].cells, jobs[i].opts, &want[i]);
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<CoherenceProfile>> got(
      kThreads, std::vector<CoherenceProfile>(jobs.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at its own offset, so different columns and
      // indexes are in flight at once.
      for (size_t k = 0; k < jobs.size(); ++k) {
        const size_t i = (k + t * jobs.size() / kThreads) % jobs.size();
        ColumnCoherence(*jobs[i].index, jobs[i].cells, jobs[i].opts,
                        &got[t][i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      const std::string ctx =
          "thread " + std::to_string(t) + " job " + std::to_string(i);
      ASSERT_EQ(Bits(got[t][i].score), Bits(want[i].score)) << ctx;
      ASSERT_EQ(Bits(got[t][i].sum_pos), Bits(want[i].sum_pos)) << ctx;
      ASSERT_EQ(got[t][i], want[i]) << ctx;
    }
  }
}

}  // namespace
}  // namespace ms
