// Tests for the extension modules: the exact optimal partitioner (greedy
// validation), redundant-cluster consolidation (Appendix K future work),
// temporal-mapping detection (Appendix J future work), and mapping
// serialization for curation handoff.
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "synth/exact_partition.h"
#include "persist/mapping_text.h"
#include "synth/redundancy.h"
#include "synth/temporal.h"

namespace ms {
namespace {

// --------------------------------------------------------- ExactPartition

CompatibilityGraph Figure3Graph() {
  CompatibilityGraph g(5);
  g.AddEdge(0, 1, 0.67, 0.0);
  g.AddEdge(2, 3, 0.6, 0.0);
  g.AddEdge(2, 4, 0.8, 0.0);
  g.AddEdge(3, 4, 0.7, 0.0);
  g.AddEdge(1, 2, 0.5, 0.0);
  g.AddEdge(0, 2, 0.0, -0.7);
  g.AddEdge(1, 3, 0.0, -0.33);
  g.Finalize();
  return g;
}

TEST(ExactPartitionTest, SolvesFigure3Optimally) {
  PartitionerOptions opts;
  opts.theta_edge = 0.0;
  auto exact = ExactPartition(Figure3Graph(), opts);
  EXPECT_NEAR(exact.objective, 2.77, 1e-9);
  // Greedy happens to be optimal on this instance (Example 12).
  auto g = Figure3Graph();
  auto greedy = GreedyPartition(g, opts);
  EXPECT_NEAR(PartitionObjective(g, greedy, opts), exact.objective, 1e-9);
}

TEST(ExactPartitionTest, RespectsHardConstraint) {
  CompatibilityGraph g(3);
  g.AddEdge(0, 1, 1.0, -0.9);  // tempting but forbidden
  g.AddEdge(1, 2, 0.4, 0.0);
  g.Finalize();
  PartitionerOptions opts;
  opts.theta_edge = 0.0;
  auto exact = ExactPartition(g, opts);
  EXPECT_NEAR(exact.objective, 0.4, 1e-9);
  EXPECT_NE(exact.partition.partition_of[0],
            exact.partition.partition_of[1]);
}

TEST(ExactPartitionTest, EmptyAndSingleton) {
  CompatibilityGraph g0(0);
  g0.Finalize();
  EXPECT_DOUBLE_EQ(ExactPartition(g0).objective, 0.0);
  CompatibilityGraph g1(1);
  g1.Finalize();
  auto r = ExactPartition(g1);
  EXPECT_EQ(r.partition.num_partitions, 1u);
}

TEST(ExactPartitionTest, EnumerationCountIsBellNumber) {
  // With no constraints, the enumerator must visit exactly Bell(n)
  // partitions: Bell(4) = 15.
  CompatibilityGraph g(4);
  g.Finalize();
  auto r = ExactPartition(g);
  EXPECT_EQ(r.partitions_enumerated, 15u);
}

/// Greedy-vs-exact property: greedy never violates constraints and its
/// objective is within a modest factor of optimal on random small graphs.
class GreedyQualityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyQualityTest, GreedyNearOptimal) {
  Rng rng(GetParam());
  const size_t n = 9;
  CompatibilityGraph g(n);
  for (size_t e = 0; e < 16; ++e) {
    uint32_t u = static_cast<uint32_t>(rng.Uniform(n));
    uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
    if (u == v) continue;
    g.AddEdge(u, v, rng.UniformDouble(),
              rng.Bernoulli(0.25) ? -rng.UniformDouble() : 0.0);
  }
  g.Finalize();
  PartitionerOptions opts;
  opts.theta_edge = 0.0;
  auto exact = ExactPartition(g, opts);
  auto greedy = GreedyPartition(g, opts);
  const double greedy_obj = PartitionObjective(g, greedy, opts);
  EXPECT_LE(greedy_obj, exact.objective + 1e-9);
  EXPECT_GE(greedy_obj, 0.5 * exact.objective - 1e-9)
      << "greedy fell below half of optimal (seed " << GetParam() << ")";
  EXPECT_TRUE(SatisfiesNegativeConstraint(g, greedy, opts.tau));
}

INSTANTIATE_TEST_SUITE_P(RandomSmallGraphs, GreedyQualityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

// ------------------------------------------------------------- Redundancy

class ExtensionFixture : public ::testing::Test {
 protected:
  ExtensionFixture() : pool_(std::make_shared<StringPool>()) {}

  SynthesizedMapping MakeMapping(
      const std::vector<std::pair<std::string, std::string>>& rows,
      size_t domains = 1) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool_->Intern(l), pool_->Intern(r)});
    }
    SynthesizedMapping m;
    m.merged = BinaryTable::FromPairs(std::move(pairs));
    m.num_domains = domains;
    return m;
  }

  std::shared_ptr<StringPool> pool_;
};

TEST_F(ExtensionFixture, ConsolidatesOverlappingConsistentClusters) {
  std::vector<SynthesizedMapping> ms;
  ms.push_back(MakeMapping({{"a", "1"}, {"b", "2"}, {"c", "3"}}, 4));
  ms.push_back(MakeMapping({{"b", "2"}, {"c", "3"}, {"d", "4"}}, 2));
  ms.push_back(MakeMapping({{"x", "7"}, {"y", "8"}}, 3));
  auto stats = ConsolidateRedundantMappings(&ms, *pool_);
  EXPECT_EQ(stats.clusters_in, 3u);
  EXPECT_EQ(stats.clusters_out, 2u);
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(ms[0].size(), 4u);  // a, b, c, d consolidated
  EXPECT_EQ(ms[0].num_domains, 6u);
}

TEST_F(ExtensionFixture, NeverConsolidatesConflictingClusters) {
  std::vector<SynthesizedMapping> ms;
  ms.push_back(MakeMapping({{"algeria", "dza"}, {"albania", "alb"}}));
  ms.push_back(MakeMapping({{"algeria", "alg"}, {"albania", "alb"}}));
  auto stats = ConsolidateRedundantMappings(&ms, *pool_);
  EXPECT_EQ(stats.clusters_out, 2u);  // ISO and IOC stay apart
  EXPECT_EQ(stats.merges, 0u);
}

TEST_F(ExtensionFixture, ContainmentThresholdControlsConsolidation) {
  std::vector<SynthesizedMapping> ms;
  ms.push_back(MakeMapping({{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}}));
  ms.push_back(MakeMapping({{"a", "1"}, {"x", "7"}, {"y", "8"}, {"z", "9"}}));
  RedundancyOptions strict;
  strict.min_containment = 0.5;  // overlap 1/4 = 0.25 < 0.5
  auto s1 = ConsolidateRedundantMappings(&ms, *pool_, strict);
  EXPECT_EQ(s1.clusters_out, 2u);
  RedundancyOptions loose;
  loose.min_containment = 0.2;
  auto s2 = ConsolidateRedundantMappings(&ms, *pool_, loose);
  EXPECT_EQ(s2.clusters_out, 1u);
}

TEST_F(ExtensionFixture, EmptyAndSingletonInputs) {
  std::vector<SynthesizedMapping> empty;
  auto s = ConsolidateRedundantMappings(&empty, *pool_);
  EXPECT_EQ(s.clusters_out, 0u);
  std::vector<SynthesizedMapping> one;
  one.push_back(MakeMapping({{"a", "1"}}));
  s = ConsolidateRedundantMappings(&one, *pool_);
  EXPECT_EQ(s.clusters_out, 1u);
}

// --------------------------------------------------------------- Temporal

TEST_F(ExtensionFixture, FlagsManySnapshotClustersAsTemporal) {
  // Five season snapshots of (driver -> team): same lefts, mostly
  // different rights each season. Names are real words so the approximate
  // matcher cannot accidentally equate distinct rights ("team0" and
  // "team1" would be edit distance 1).
  const std::vector<std::string> drivers = {"hamilton", "vettel",  "alonso",
                                            "bottas",   "raikkonen",
                                            "verstappen"};
  const std::vector<std::string> teams = {"ferrari",  "mercedes", "mclaren",
                                          "redbull",  "renault",  "williams"};
  std::vector<SynthesizedMapping> ms;
  for (size_t season = 0; season < 5; ++season) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (size_t d = 0; d < drivers.size(); ++d) {
      rows.push_back({drivers[d], teams[(d + season) % teams.size()]});
    }
    ms.push_back(MakeMapping(rows));
  }
  auto result = DetectTemporalMappings(ms, *pool_);
  EXPECT_EQ(result.flagged, 5u);
  for (bool t : result.is_temporal) EXPECT_TRUE(t);
}

TEST_F(ExtensionFixture, CodeSystemSiblingsAreNotFlagged) {
  // Three code systems (ISO/IOC/FIFA-like): group of 3 < min_group_size 4.
  const std::vector<std::string> countries = {
      "germany", "france", "spain", "italy", "poland", "norway", "greece",
      "turkey"};
  const std::vector<std::string> codes = {"kormav", "telzin", "burrog",
                                          "welfin", "dasqua", "hintor",
                                          "mizzen", "purlov"};
  std::vector<SynthesizedMapping> ms;
  for (size_t sys = 0; sys < 3; ++sys) {
    std::vector<std::pair<std::string, std::string>> rows;
    for (size_t c = 0; c < countries.size(); ++c) {
      rows.push_back({countries[c],
                      codes[(c + sys * 3) % codes.size()]});
    }
    ms.push_back(MakeMapping(rows));
  }
  auto result = DetectTemporalMappings(ms, *pool_);
  EXPECT_EQ(result.flagged, 0u);
  ASSERT_EQ(result.groups.size(), 1u);  // grouped but below the threshold
  EXPECT_EQ(result.groups[0].size(), 3u);
}

TEST_F(ExtensionFixture, DisjointRelationsFormNoGroups) {
  std::vector<SynthesizedMapping> ms;
  ms.push_back(MakeMapping({{"a", "1"}, {"b", "2"}}));
  ms.push_back(MakeMapping({{"x", "7"}, {"y", "8"}}));
  auto result = DetectTemporalMappings(ms, *pool_);
  EXPECT_TRUE(result.groups.empty());
  EXPECT_EQ(result.flagged, 0u);
}

TEST_F(ExtensionFixture, ConsistentDuplicatesAreNotTemporal) {
  // Same lefts, same rights: redundancy, not temporality.
  std::vector<SynthesizedMapping> ms;
  for (int i = 0; i < 5; ++i) {
    ms.push_back(MakeMapping({{"a", "1"}, {"b", "2"}, {"c", "3"}}));
  }
  auto result = DetectTemporalMappings(ms, *pool_);
  EXPECT_EQ(result.flagged, 0u);
}

// -------------------------------------------------------------- MappingIO

TEST_F(ExtensionFixture, MappingTsvRoundTrip) {
  std::vector<SynthesizedMapping> ms;
  SynthesizedMapping m = MakeMapping({{"south korea", "kor"},
                                      {"korea republic of", "kor"},
                                      {"japan", "jpn"}},
                                     7);
  m.left_label = "Country";
  m.right_label = "Code";
  m.kept_tables = {1, 2, 3};
  m.member_tables = {1, 2, 3, 4};
  ms.push_back(std::move(m));

  std::ostringstream out;
  ASSERT_TRUE(persist::WriteMappingsTsv(ms, *pool_, out).ok());

  auto pool2 = std::make_shared<StringPool>();
  std::vector<SynthesizedMapping> loaded;
  std::istringstream in(out.str());
  ASSERT_TRUE(persist::ReadMappingsTsv(in, pool2.get(), &loaded).ok());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].left_label, "Country");
  EXPECT_EQ(loaded[0].right_label, "Code");
  EXPECT_EQ(loaded[0].num_domains, 7u);
  EXPECT_EQ(loaded[0].kept_tables.size(), 3u);
  EXPECT_EQ(loaded[0].member_tables.size(), 4u);
  EXPECT_EQ(loaded[0].size(), 3u);
  // Values round-trip by string.
  bool found = false;
  for (const auto& p : loaded[0].merged.pairs()) {
    if (pool2->Get(p.left) == "korea republic of") {
      EXPECT_EQ(pool2->Get(p.right), "kor");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExtensionFixture, MappingTsvRejectsGarbage) {
  auto pool2 = std::make_shared<StringPool>();
  std::vector<SynthesizedMapping> loaded;
  std::istringstream bad("not a mapping\n");
  EXPECT_FALSE(persist::ReadMappingsTsv(bad, pool2.get(), &loaded).ok());
  std::istringstream bad2("#mapping\tA\tB\t1\t1\t1\nonly-one-cell\n");
  EXPECT_FALSE(persist::ReadMappingsTsv(bad2, pool2.get(), &loaded).ok());
}

TEST_F(ExtensionFixture, MappingFileIoMissingPath) {
  auto pool2 = std::make_shared<StringPool>();
  std::vector<SynthesizedMapping> loaded;
  EXPECT_FALSE(persist::LoadMappingsTsv("/nonexistent/mappings.tsv",
                                        pool2.get(), &loaded)
                   .ok());
}

}  // namespace
}  // namespace ms
