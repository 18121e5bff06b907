// Tests for the application layer: the indexed MappingStore and the three
// scenarios from the paper's introduction — auto-correct (Table 3),
// auto-fill (Table 4), auto-join (Table 5).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/auto_correct.h"
#include "apps/auto_fill.h"
#include "apps/auto_join.h"
#include "apps/mapping_store.h"

namespace ms {
namespace {

class AppsFixture : public ::testing::Test {
 protected:
  AppsFixture()
      : pool_(std::make_shared<StringPool>()), store_(pool_) {}

  SynthesizedMapping MakeMapping(
      const std::vector<std::pair<std::string, std::string>>& rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool_->Intern(l), pool_->Intern(r)});
    }
    SynthesizedMapping m;
    m.merged = BinaryTable::FromPairs(std::move(pairs));
    return m;
  }

  void SetUp() override {
    // state -> abbreviation (Table 1c).
    states_ = store_.Add(MakeMapping({{"california", "ca"},
                                      {"washington", "wa"},
                                      {"oregon", "or"},
                                      {"texas", "tx"},
                                      {"colorado", "co"}}),
                         "state_abbrev");
    // city -> state (Table 2b).
    cities_ = store_.Add(MakeMapping({{"san francisco", "california"},
                                      {"seattle", "washington"},
                                      {"los angeles", "california"},
                                      {"houston", "texas"},
                                      {"denver", "colorado"}}),
                         "city_state");
    // company -> ticker (Table 1b, both directions usable).
    tickers_ = store_.Add(MakeMapping({{"microsoft corp", "msft"},
                                       {"oracle", "orcl"},
                                       {"general electric", "ge"},
                                       {"walmart", "wmt"},
                                       {"at&t inc", "t"}}),
                          "company_ticker");
  }

  std::shared_ptr<StringPool> pool_;
  MappingStore store_;
  size_t states_ = 0, cities_ = 0, tickers_ = 0;
};

// ------------------------------------------------------------ MappingStore

TEST_F(AppsFixture, ProbeFindsSides) {
  EXPECT_EQ(store_.Probe(states_, "California"), ValueSide::kLeft);
  EXPECT_EQ(store_.Probe(states_, "CA"), ValueSide::kRight);
  EXPECT_EQ(store_.Probe(states_, "nonsense"), ValueSide::kNone);
}

TEST_F(AppsFixture, ProbeNormalizesInput) {
  EXPECT_EQ(store_.Probe(states_, "  California[1] "), ValueSide::kLeft);
}

TEST_F(AppsFixture, LookupBothDirections) {
  EXPECT_EQ(store_.LookupRight(states_, "Washington").value(), "wa");
  EXPECT_EQ(store_.LookupLeft(states_, "WA").value(), "washington");
  // Two cities map to california: the smaller string answers, whatever
  // order the pool interned them in.
  EXPECT_EQ(store_.LookupLeft(cities_, "California").value(), "los angeles");
  EXPECT_FALSE(store_.LookupRight(states_, "narnia").has_value());
}

TEST_F(AppsFixture, ContainmentRanksTheRightMapping) {
  std::vector<std::string> column = {"San Francisco", "Seattle", "Houston"};
  auto matches = store_.FindByContainment(column, 2);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].index, cities_);
  EXPECT_EQ(matches[0].left_hits, 3u);
}

TEST_F(AppsFixture, ContainmentMinHitsFilters) {
  std::vector<std::string> column = {"San Francisco", "unrelated"};
  EXPECT_TRUE(store_.FindByContainment(column, 2).empty());
  EXPECT_FALSE(store_.FindByContainment(column, 1).empty());
}

TEST_F(AppsFixture, StoreMetadataAccessors) {
  EXPECT_EQ(store_.size(), 3u);
  EXPECT_EQ(store_.name(states_), "state_abbrev");
  // All five of the mapping's pairs answer.
  for (const auto& [left, right] :
       std::vector<std::pair<std::string, std::string>>{
           {"California", "ca"}, {"Washington", "wa"}, {"Oregon", "or"},
           {"Texas", "tx"}, {"Colorado", "co"}}) {
    EXPECT_EQ(store_.LookupRight(states_, left), right) << left;
  }
}

// ------------------------------------------------------------- AutoCorrect

TEST_F(AppsFixture, Table3AutoCorrection) {
  // The paper's Table 3: full state names mixed with abbreviations.
  std::vector<std::string> column = {"California", "Washington", "Oregon",
                                     "CA", "WA"};
  auto result = SuggestCorrections(store_, column);
  ASSERT_TRUE(result.inconsistency_detected);
  EXPECT_EQ(result.mapping_index, static_cast<int>(states_));
  ASSERT_EQ(result.suggestions.size(), 2u);
  EXPECT_EQ(result.suggestions[0].row, 3u);
  EXPECT_EQ(result.suggestions[0].original, "CA");
  EXPECT_EQ(result.suggestions[0].suggestion, "california");
  EXPECT_EQ(result.suggestions[1].suggestion, "washington");
}

TEST_F(AppsFixture, ConsistentColumnNeedsNoCorrection) {
  std::vector<std::string> column = {"California", "Washington", "Oregon"};
  auto result = SuggestCorrections(store_, column);
  EXPECT_FALSE(result.inconsistency_detected);
  EXPECT_TRUE(result.suggestions.empty());
}

TEST_F(AppsFixture, MinorityAbbrevColumnCorrectsToAbbrev) {
  // Majority abbreviations: the full names should be rewritten instead.
  std::vector<std::string> column = {"CA", "WA", "OR", "TX", "Colorado"};
  auto result = SuggestCorrections(store_, column);
  ASSERT_TRUE(result.inconsistency_detected);
  ASSERT_EQ(result.suggestions.size(), 1u);
  EXPECT_EQ(result.suggestions[0].suggestion, "co");
}

TEST_F(AppsFixture, UnknownColumnIsLeftAlone) {
  std::vector<std::string> column = {"aardvark", "zebra", "yak"};
  auto result = SuggestCorrections(store_, column);
  EXPECT_EQ(result.mapping_index, -1);
}

// ---------------------------------------------------------------- AutoFill

TEST_F(AppsFixture, Table4AutoFill) {
  // The paper's Table 4: one example (San Francisco -> California) reveals
  // the intent; the rest fills from the city->state mapping.
  std::vector<std::string> keys = {"San Francisco", "Seattle", "Los Angeles",
                                   "Houston", "Denver"};
  auto result = AutoFill(store_, keys, {{0, "California"}});
  ASSERT_EQ(result.mapping_index, static_cast<int>(cities_));
  EXPECT_EQ(result.num_filled, 4u);
  EXPECT_EQ(result.values[1], "washington");
  EXPECT_EQ(result.values[3], "texas");
  EXPECT_EQ(result.values[4], "colorado");
  EXPECT_FALSE(result.filled[0]);  // the user's own example
  EXPECT_TRUE(result.filled[2]);
}

TEST_F(AppsFixture, AutoFillRejectsInconsistentExamples) {
  std::vector<std::string> keys = {"San Francisco", "Seattle"};
  auto result = AutoFill(store_, keys, {{0, "Texas"}});  // wrong example
  EXPECT_EQ(result.mapping_index, -1);
}

TEST_F(AppsFixture, AutoFillLeavesUnknownKeysEmpty) {
  std::vector<std::string> keys = {"San Francisco", "Seattle", "Atlantis"};
  auto result = AutoFill(store_, keys, {{0, "California"}});
  ASSERT_GE(result.mapping_index, 0);
  EXPECT_EQ(result.values[2], "");
  EXPECT_FALSE(result.filled[2]);
}

TEST_F(AppsFixture, AutoFillEmptyInputs) {
  EXPECT_EQ(AutoFill(store_, {}, {{0, "x"}}).mapping_index, -1);
  EXPECT_EQ(AutoFill(store_, {"Seattle"}, {}).mapping_index, -1);
}

// ---------------------------------------------------------------- AutoJoin

TEST_F(AppsFixture, Table5AutoJoin) {
  // The paper's Table 5: tickers on the left table, company names on the
  // right table; the mapping bridges the three-way join.
  std::vector<std::string> left = {"GE", "WMT", "MSFT", "ORCL", "T"};
  std::vector<std::string> right = {"General Electric", "Walmart", "Oracle",
                                    "Microsoft Corp", "AT&T Inc"};
  auto result = AutoJoin(store_, left, right);
  ASSERT_EQ(result.mapping_index, static_cast<int>(tickers_));
  EXPECT_FALSE(result.left_keys_are_left_side);  // tickers are right side
  EXPECT_EQ(result.pairs.size(), 5u);
  // Spot-check a joined pair: GE (row 0) -> General Electric (row 0).
  bool ge = false;
  for (const auto& p : result.pairs) {
    if (p.left_row == 0) {
      EXPECT_EQ(p.right_row, 0u);
      ge = true;
    }
  }
  EXPECT_TRUE(ge);
}

TEST_F(AppsFixture, AutoJoinForwardDirection) {
  std::vector<std::string> left = {"Microsoft Corp", "Oracle"};
  std::vector<std::string> right = {"MSFT", "ORCL", "IBM"};
  auto result = AutoJoin(store_, left, right);
  ASSERT_GE(result.mapping_index, 0);
  EXPECT_TRUE(result.left_keys_are_left_side);
  EXPECT_EQ(result.pairs.size(), 2u);
}

TEST_F(AppsFixture, AutoJoinRespectsMinRate) {
  std::vector<std::string> left = {"GE", "unknown1", "unknown2", "unknown3"};
  std::vector<std::string> right = {"General Electric", "r1", "r2", "r3"};
  AutoJoinOptions strict;
  strict.min_join_rate = 0.8;
  auto result = AutoJoin(store_, left, right, strict);
  EXPECT_EQ(result.mapping_index, -1);
}

TEST_F(AppsFixture, AutoJoinNoBridgeFound) {
  std::vector<std::string> left = {"apple", "pear"};
  std::vector<std::string> right = {"red", "green"};
  auto result = AutoJoin(store_, left, right);
  EXPECT_EQ(result.mapping_index, -1);
  EXPECT_TRUE(result.pairs.empty());
}

}  // namespace
}  // namespace ms
