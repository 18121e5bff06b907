// Integration tests for the end-to-end synthesis pipeline (Figure 1):
// extraction -> blocking -> scoring -> partitioning -> conflict resolution
// on small generated worlds with exactly known ground truth.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "corpusgen/builtin_domains.h"
#include "corpusgen/generator.h"
#include "eval/metrics.h"
#include "oracles/compatibility_reference.h"
#include "synth/session.h"

namespace ms {
namespace {

/// A compact world: the four country-code systems (mutually conflicting),
/// states, elements — the paper's headline adversarial structure.
GeneratedWorld SmallWorld(uint64_t seed = 7) {
  auto all = BuiltinWebRelationships();
  std::vector<RelationshipSpec> specs;
  for (auto& s : all) {
    if (s.name == "country_iso3" || s.name == "country_ioc" ||
        s.name == "country_fifa" || s.name == "state_abbrev" ||
        s.name == "element_symbol") {
      s.popularity = 16;
      specs.push_back(std::move(s));
    }
  }
  GeneratorOptions opts;
  opts.seed = seed;
  opts.noise_table_fraction = 0.2;
  return GenerateWorld(std::move(specs), opts);
}

SynthesisOptions FastOptions() {
  SynthesisOptions o;
  o.num_threads = 4;
  o.min_domains = 2;
  return o;
}

/// One full run on a fresh session. A failed run fails the test and yields
/// an empty result.
SynthesisResult Synthesize(const SynthesisOptions& options,
                           const TableCorpus& corpus) {
  SynthesisSession session(options);
  Result<SynthesisResult> r = session.Run(corpus);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : SynthesisResult{};
}

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new GeneratedWorld(SmallWorld());
    result_ = new SynthesisResult(Synthesize(FastOptions(), world_->corpus));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete world_;
    result_ = nullptr;
    world_ = nullptr;
  }

  static PrfScore BestFor(const std::string& case_name) {
    std::vector<BinaryTable> rels;
    for (const auto& m : result_->mappings) rels.push_back(m.merged);
    int ci = world_->CaseIndex(case_name);
    EXPECT_GE(ci, 0);
    return FindBestRelation(rels, world_->cases[ci].ground_truth).score;
  }

  static GeneratedWorld* world_;
  static SynthesisResult* result_;
};

GeneratedWorld* PipelineFixture::world_ = nullptr;
SynthesisResult* PipelineFixture::result_ = nullptr;

TEST_F(PipelineFixture, ProducesMappings) {
  EXPECT_GT(result_->mappings.size(), 3u);
  EXPECT_GT(result_->stats.candidates, 50u);
  EXPECT_GT(result_->stats.graph_edges, 0u);
}

TEST_F(PipelineFixture, HighQualityOnHeadlineCases) {
  for (const char* name : {"country_iso3", "country_ioc", "state_abbrev",
                           "element_symbol"}) {
    PrfScore s = BestFor(name);
    EXPECT_GT(s.fscore, 0.7) << name;
    EXPECT_GT(s.precision, 0.8) << name;
  }
}

TEST_F(PipelineFixture, SiblingCodeSystemsStaySeparate) {
  // The merged ISO mapping must not contain IOC-specific codes for the
  // countries where the systems diverge (Algeria: dza vs alg).
  const StringPool& pool = world_->corpus.pool();
  ValueId algeria = pool.Find("algeria");
  ASSERT_NE(algeria, kInvalidValueId);
  for (const auto& m : result_->mappings) {
    bool has_dza = false, has_alg = false;
    for (const auto& p : m.merged.pairs()) {
      if (p.left != algeria) continue;
      std::string_view r = pool.Get(p.right);
      has_dza |= r == "dza";
      has_alg |= r == "alg";
    }
    EXPECT_FALSE(has_dza && has_alg)
        << "mapping '" << m.left_label << " -> " << m.right_label
        << "' mixed ISO and IOC codes";
  }
}

TEST_F(PipelineFixture, MappingsAreFunctional) {
  // Every conflict-resolved mapping must satisfy the FD definition exactly.
  for (const auto& m : result_->mappings) {
    EXPECT_DOUBLE_EQ(m.merged.FdHoldRatio(), 1.0)
        << m.left_label << " -> " << m.right_label;
  }
}

TEST_F(PipelineFixture, MappingsCoverSynonyms) {
  // The ISO mapping should contain more left mentions than countries
  // because synonymous forms are synthesized together (Table 6).
  PrfScore iso = BestFor("country_iso3");
  EXPECT_GT(iso.recall, 0.5);
  bool found_synonym_rich = false;
  for (const auto& m : result_->mappings) {
    if (m.LeftPerRight() > 1.1 && m.size() > 30) found_synonym_rich = true;
  }
  EXPECT_TRUE(found_synonym_rich);
}

TEST_F(PipelineFixture, StatsArePopulated) {
  const auto& st = result_->stats;
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_GT(st.extract_seconds + st.blocking_seconds + st.scoring_seconds +
                st.partition_seconds,
            0.0);
  EXPECT_GE(st.candidate_pairs, st.graph_edges);
  EXPECT_GT(st.partitions, 0u);
  EXPECT_EQ(st.mappings, result_->mappings.size());
  EXPECT_GT(st.extraction.tables_seen, 0u);
}

TEST(PipelineOptionTest, DivideAndConquerMatchesGlobalRun) {
  GeneratedWorld world = SmallWorld(11);
  SynthesisOptions a = FastOptions();
  a.divide_and_conquer = true;
  SynthesisOptions b = FastOptions();
  b.divide_and_conquer = false;
  SynthesisResult ra = Synthesize(a, world.corpus);
  SynthesisResult rb = Synthesize(b, world.corpus);
  // On this world the two modes agree: the same number of mappings with
  // identical pair-set sizes. They need not on others, since a global run
  // breaks the greedy's ties differently (see
  // SynthesisOptions::divide_and_conquer).
  ASSERT_EQ(ra.mappings.size(), rb.mappings.size());
  std::multiset<size_t> sa, sb;
  for (const auto& m : ra.mappings) sa.insert(m.size());
  for (const auto& m : rb.mappings) sb.insert(m.size());
  EXPECT_EQ(sa, sb);
}

TEST(PipelineOptionTest, ConflictResolutionImprovesPrecision) {
  GeneratedWorld world = SmallWorld(13);
  SynthesisOptions with = FastOptions();
  SynthesisOptions without = FastOptions();
  without.resolve_conflicts = false;

  auto avg_precision = [&](const SynthesisResult& r) {
    std::vector<BinaryTable> rels;
    for (const auto& m : r.mappings) rels.push_back(m.merged);
    double p = 0;
    for (const auto& c : world.cases) {
      p += FindBestRelation(rels, c.ground_truth).score.precision;
    }
    return p / static_cast<double>(world.cases.size());
  };
  double p_with = avg_precision(Synthesize(with, world.corpus));
  double p_without =
      avg_precision(Synthesize(without, world.corpus));
  EXPECT_GE(p_with + 1e-9, p_without);
}

TEST(PipelineOptionTest, MajorityVotingAlsoYieldsFunctionalMappings) {
  GeneratedWorld world = SmallWorld(17);
  SynthesisOptions o = FastOptions();
  o.use_majority_voting = true;
  SynthesisResult r = Synthesize(o, world.corpus);
  ASSERT_FALSE(r.mappings.empty());
  for (const auto& m : r.mappings) {
    EXPECT_DOUBLE_EQ(m.merged.FdHoldRatio(), 1.0);
  }
}

TEST(PipelineOptionTest, NegativeSignalAblationDegradesSeparation) {
  GeneratedWorld world = SmallWorld(19);
  SynthesisOptions full = FastOptions();
  SynthesisOptions pos_only = FastOptions();
  pos_only.partitioner.use_negative_signals = false;
  pos_only.resolve_conflicts = false;

  auto avg_f = [&](const SynthesisResult& r) {
    std::vector<BinaryTable> rels;
    for (const auto& m : r.mappings) rels.push_back(m.merged);
    double f = 0;
    for (const auto& c : world.cases) {
      f += FindBestRelation(rels, c.ground_truth).score.fscore;
    }
    return f / static_cast<double>(world.cases.size());
  };
  double f_full = avg_f(Synthesize(full, world.corpus));
  double f_pos = avg_f(Synthesize(pos_only, world.corpus));
  EXPECT_GT(f_full, f_pos);
}

TEST(PipelineOptionTest, PopularityFilterIsMonotone) {
  GeneratedWorld world = SmallWorld(23);
  SynthesisOptions loose = FastOptions();
  loose.min_domains = 1;
  loose.min_pairs = 1;
  SynthesisOptions strict = FastOptions();
  strict.min_domains = 4;
  strict.min_pairs = 8;
  size_t n_loose = Synthesize(loose, world.corpus).mappings.size();
  size_t n_strict =
      Synthesize(strict, world.corpus).mappings.size();
  EXPECT_GE(n_loose, n_strict);
}

TEST(PipelineEquivalenceTest, BitParallelFastPathIsByteIdentical) {
  // The tentpole guarantee: Myers kernels + batched mask caching + blocking
  // count reuse change speed only. Every edge the session scores must carry
  // bitwise the weights the seed scalar scorer (banded DP, no caching, no
  // hints) gives its blocked pair, and no pair the oracle scores non-zero
  // may be missing.
  GeneratedWorld world = SmallWorld(31);
  const StringPool& pool = world.corpus.pool();
  SynthesisSession session(FastOptions());
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok()) << cands.status().ToString();
  auto blocked = session.BlockPairs(cands.value());
  ASSERT_TRUE(blocked.ok());
  auto scored = session.ScorePairs(cands.value(), blocked.value());
  ASSERT_TRUE(scored.ok());

  const std::vector<BinaryTable>& tables = cands.value().tables();
  const std::vector<CompatEdge>& edges = scored.value().graph.edges();
  size_t e = 0;
  for (const CandidateTablePair& p : blocked.value().pairs) {
    const PairScores ref = ComputeCompatibilityReference(
        tables[p.a], tables[p.b], pool, session.options().compat);
    if (ref.w_pos <= 0.0 && ref.w_neg >= 0.0) continue;
    ASSERT_LT(e, edges.size());
    EXPECT_EQ(edges[e].u, p.a) << e;
    EXPECT_EQ(edges[e].v, p.b) << e;
    EXPECT_EQ(edges[e].w_pos, ref.w_pos) << e;  // bitwise
    EXPECT_EQ(edges[e].w_neg, ref.w_neg) << e;
    ++e;
  }
  EXPECT_EQ(e, edges.size());
  // The session actually took the bit-parallel path — guards against the
  // oracle silently comparing against itself.
  const MatcherStats& m = scored.value().stats.scoring.matcher;
  EXPECT_GT(m.myers64_calls, 0u);
  EXPECT_EQ(m.banded_calls, 0u);
}

TEST(PipelineEquivalenceTest, ScoringStatsArePopulated) {
  GeneratedWorld world = SmallWorld(37);
  SynthesisResult r = Synthesize(FastOptions(), world.corpus);
  const auto& sc = r.stats.scoring;
  EXPECT_GT(sc.matcher.match_calls, 0u);
  EXPECT_GT(sc.matcher.myers64_calls, 0u);
  EXPECT_EQ(sc.matcher.banded_calls, 0u);  // the banded DP is off the hot path
  // Mask caching must actually amortize: strictly more kernel calls than
  // mask builds.
  EXPECT_GT(sc.matcher.pattern_cache_hits, 0u);
}

TEST(PipelineOptionTest, RunOnCandidatesDirectly) {
  GeneratedWorld world = SmallWorld(29);
  ColumnInvertedIndex index;
  index.Build(world.corpus);
  auto extracted = ExtractCandidates(world.corpus, index);
  SynthesisSession session(FastOptions());
  auto r = session.RunOnCandidates(extracted.candidates, world.corpus.pool());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().mappings.empty());
  EXPECT_EQ(r.value().stats.candidates, extracted.candidates.size());
}

}  // namespace
}  // namespace ms
