// Unit tests for the table model: StringPool, Table, BinaryTable (value-pair
// relations, FD checks, conflict sets), TableCorpus, and TSV round-tripping.
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "table/binary_table.h"
#include "table/corpus.h"
#include "table/string_pool.h"
#include "table/tsv.h"

namespace ms {
namespace {

// ------------------------------------------------------------- StringPool

TEST(StringPoolTest, InternDeduplicates) {
  StringPool pool;
  ValueId a = pool.Intern("alpha");
  ValueId b = pool.Intern("beta");
  ValueId a2 = pool.Intern("alpha");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPoolTest, GetReturnsInterned) {
  StringPool pool;
  ValueId a = pool.Intern("value");
  EXPECT_EQ(pool.Get(a), "value");
}

TEST(StringPoolTest, FindMissingReturnsInvalid) {
  StringPool pool;
  EXPECT_EQ(pool.Find("nope"), kInvalidValueId);
  pool.Intern("yes");
  EXPECT_NE(pool.Find("yes"), kInvalidValueId);
}

TEST(StringPoolTest, EmptyStringIsValidValue) {
  StringPool pool;
  ValueId e = pool.Intern("");
  EXPECT_EQ(pool.Get(e), "");
  EXPECT_EQ(pool.Intern(""), e);
}

TEST(StringPoolTest, TruncateToUninternsTheTail) {
  StringPool pool;
  const ValueId a = pool.Intern("alpha");
  const ValueId b = pool.Intern("beta");
  const size_t before = pool.size();
  const ValueId c = pool.Intern("gamma");
  const ValueId d = pool.Intern("delta");
  ASSERT_EQ(pool.size(), 4u);

  pool.TruncateTo(before);
  EXPECT_EQ(pool.size(), before);
  // The surviving prefix is untouched: same ids, same bytes, still
  // Find-able.
  EXPECT_EQ(pool.Get(a), "alpha");
  EXPECT_EQ(pool.Get(b), "beta");
  EXPECT_EQ(pool.Find("alpha"), a);
  // The dropped tail is gone from the index — a rollback must leave the
  // dead delta's strings neither Find-able nor holding an id.
  EXPECT_EQ(pool.Find("gamma"), kInvalidValueId);
  EXPECT_EQ(pool.Find("delta"), kInvalidValueId);
  // Re-interning a dropped string hands out a fresh id from the truncated
  // end, exactly as if the failed append never happened.
  EXPECT_EQ(pool.Intern("gamma"), c);
  (void)d;
}

TEST(StringPoolTest, TruncateToBeyondSizeIsANoOp) {
  StringPool pool;
  const ValueId a = pool.Intern("alpha");
  pool.TruncateTo(100);
  pool.TruncateTo(pool.size());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Find("alpha"), a);
}

TEST(StringPoolTest, TruncateToKeepsFirstDuplicateMapped) {
  // AdoptExternal appends views verbatim (no dedup), so a tail id can
  // duplicate an earlier string. Truncating the duplicate away must not
  // unmap the survivor.
  StringPool pool;
  const ValueId a = pool.Intern("alpha");
  static const std::string kDup = "alpha";  // outlives the pool
  pool.AdoptExternal({kDup});
  ASSERT_EQ(pool.size(), 2u);
  ASSERT_EQ(pool.Find("alpha"), a);  // keep-first: index maps to id 0
  pool.TruncateTo(1);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Find("alpha"), a);
  EXPECT_EQ(pool.Get(a), "alpha");
}

TEST(StringPoolTest, ConcurrentInternIsConsistent) {
  StringPool pool;
  std::vector<std::thread> threads;
  std::vector<std::vector<ValueId>> ids(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, &ids, t] {
      for (int i = 0; i < 500; ++i) {
        ids[t].push_back(pool.Intern("shared" + std::to_string(i % 100)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.size(), 100u);
  // Same string -> same id across threads.
  for (int t = 1; t < 8; ++t) EXPECT_EQ(ids[t], ids[0]);
}

// ------------------------------------------------------------------ Table

Table MakeTable(const std::vector<std::vector<ValueId>>& cols) {
  Table t;
  for (const auto& c : cols) {
    Column col;
    col.name = "c" + std::to_string(t.columns.size());
    col.cells = c;
    t.columns.push_back(std::move(col));
  }
  return t;
}

TEST(TableTest, RectangularDetection) {
  EXPECT_TRUE(MakeTable({{1, 2}, {3, 4}}).IsRectangular());
  EXPECT_FALSE(MakeTable({{1, 2}, {3}}).IsRectangular());
  EXPECT_TRUE(MakeTable({}).IsRectangular());
}

TEST(TableTest, RowAndColumnCounts) {
  Table t = MakeTable({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(MakeTable({}).num_rows(), 0u);
}

TEST(TableTest, SourceNames) {
  EXPECT_STREQ(TableSourceName(TableSource::kWeb), "web");
  EXPECT_STREQ(TableSourceName(TableSource::kWiki), "wiki");
  EXPECT_STREQ(TableSourceName(TableSource::kEnterprise), "enterprise");
  EXPECT_STREQ(TableSourceName(TableSource::kTrusted), "trusted");
}

// ------------------------------------------------------------ BinaryTable

TEST(BinaryTableTest, FromPairsSortsAndDedups) {
  BinaryTable b = BinaryTable::FromPairs({{3, 1}, {1, 2}, {3, 1}, {2, 9}});
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.pairs()[0], (ValuePair{1, 2}));
  EXPECT_EQ(b.pairs()[1], (ValuePair{2, 9}));
  EXPECT_EQ(b.pairs()[2], (ValuePair{3, 1}));
}

TEST(BinaryTableTest, FromColumnsAlignsRows) {
  Table t = MakeTable({{10, 20, 30}, {11, 21, 31}});
  t.domain = "d.example";
  BinaryTable b = BinaryTable::FromColumns(t, 0, 1);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_TRUE(b.ContainsPair({10, 11}));
  EXPECT_TRUE(b.ContainsPair({30, 31}));
  EXPECT_EQ(b.domain, "d.example");
}

TEST(BinaryTableTest, FromColumnsReversedOrder) {
  Table t = MakeTable({{10, 20}, {11, 21}});
  BinaryTable b = BinaryTable::FromColumns(t, 1, 0);
  EXPECT_TRUE(b.ContainsPair({11, 10}));
  EXPECT_FALSE(b.ContainsPair({10, 11}));
}

TEST(BinaryTableTest, LeftAndRightValues) {
  BinaryTable b = BinaryTable::FromPairs({{1, 5}, {1, 6}, {2, 5}, {3, 7}});
  EXPECT_EQ(b.LeftValues(), (std::vector<ValueId>{1, 2, 3}));
  EXPECT_EQ(b.RightValues(), (std::vector<ValueId>{5, 6, 7}));
}

TEST(BinaryTableTest, FdHoldRatioPerfectMapping) {
  BinaryTable b = BinaryTable::FromPairs({{1, 5}, {2, 6}, {3, 7}});
  EXPECT_DOUBLE_EQ(b.FdHoldRatio(), 1.0);
  EXPECT_TRUE(b.IsApproximateMapping(1.0));
}

TEST(BinaryTableTest, FdHoldRatioWithViolations) {
  // Left 1 maps to two rights: only one of its two pairs survives.
  BinaryTable b = BinaryTable::FromPairs({{1, 5}, {1, 6}, {2, 7}, {3, 8}});
  EXPECT_DOUBLE_EQ(b.FdHoldRatio(), 0.75);
  EXPECT_TRUE(b.IsApproximateMapping(0.75));
  EXPECT_FALSE(b.IsApproximateMapping(0.76));
}

TEST(BinaryTableTest, FdHoldRatioAllSameLeft) {
  BinaryTable b = BinaryTable::FromPairs({{1, 5}, {1, 6}, {1, 7}, {1, 8}});
  EXPECT_DOUBLE_EQ(b.FdHoldRatio(), 0.25);
}

TEST(BinaryTableTest, EmptyTableIsVacuouslyFunctional) {
  BinaryTable b;
  EXPECT_DOUBLE_EQ(b.FdHoldRatio(), 1.0);
  EXPECT_FALSE(b.IsApproximateMapping(0.95));  // empty is not a mapping
}

TEST(BinaryTableTest, IntersectSizeExact) {
  BinaryTable a = BinaryTable::FromPairs({{1, 5}, {2, 6}, {3, 7}});
  BinaryTable b = BinaryTable::FromPairs({{2, 6}, {3, 7}, {4, 8}});
  EXPECT_EQ(a.IntersectSize(b), 2u);
  EXPECT_EQ(b.IntersectSize(a), 2u);
  EXPECT_EQ(a.IntersectSize(a), 3u);
}

TEST(BinaryTableTest, IntersectSizeDisjoint) {
  BinaryTable a = BinaryTable::FromPairs({{1, 5}});
  BinaryTable b = BinaryTable::FromPairs({{2, 6}});
  EXPECT_EQ(a.IntersectSize(b), 0u);
}

TEST(BinaryTableTest, ConflictSetDetectsDisagreement) {
  // Left 2 maps to 6 in a but 9 in b -> conflict; left 1 agrees.
  BinaryTable a = BinaryTable::FromPairs({{1, 5}, {2, 6}});
  BinaryTable b = BinaryTable::FromPairs({{1, 5}, {2, 9}, {3, 7}});
  auto f = a.ConflictSet(b);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], 2u);
  EXPECT_EQ(b.ConflictSet(a).size(), 1u);  // symmetric
}

TEST(BinaryTableTest, ConflictSetEmptyWhenConsistent) {
  BinaryTable a = BinaryTable::FromPairs({{1, 5}, {2, 6}});
  BinaryTable b = BinaryTable::FromPairs({{2, 6}, {3, 7}});
  EXPECT_TRUE(a.ConflictSet(b).empty());
}

TEST(BinaryTableTest, ConflictSetNoSharedLefts) {
  BinaryTable a = BinaryTable::FromPairs({{1, 5}});
  BinaryTable b = BinaryTable::FromPairs({{2, 5}});
  EXPECT_TRUE(a.ConflictSet(b).empty());
}

// ------------------------------------------------------------ TableCorpus

TEST(TableCorpusTest, AddAssignsSequentialIds) {
  TableCorpus corpus;
  TableId a = corpus.Add(Table{});
  TableId b = corpus.Add(Table{});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(corpus.size(), 2u);
}

TEST(TableCorpusTest, AddFromStringsInternsValues) {
  TableCorpus corpus;
  corpus.AddFromStrings("d.com", TableSource::kWeb, {"Country", "Code"},
                        {{"USA", "Canada"}, {"US", "CA"}});
  const Table& t = corpus.table(0);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(corpus.pool().Get(t.columns[0].cells[0]), "USA");
  EXPECT_EQ(corpus.pool().Get(t.columns[1].cells[1]), "CA");
}

TEST(TableCorpusTest, TotalColumns) {
  TableCorpus corpus;
  corpus.AddFromStrings("a", TableSource::kWeb, {"x", "y"}, {{"1"}, {"2"}});
  corpus.AddFromStrings("b", TableSource::kWeb, {"x"}, {{"1"}});
  EXPECT_EQ(corpus.TotalColumns(), 3u);
}

TEST(TableCorpusTest, SubsetSharesPoolAndTruncates) {
  TableCorpus corpus;
  for (int i = 0; i < 10; ++i) {
    corpus.AddFromStrings("d", TableSource::kWeb, {"x"},
                          {{"v" + std::to_string(i)}});
  }
  TableCorpus half = corpus.Subset(0.5);
  EXPECT_EQ(half.size(), 5u);
  EXPECT_EQ(&half.pool(), &corpus.pool());
  EXPECT_EQ(half.table(0).id, 0u);  // re-assigned dense ids
}

TEST(TableCorpusTest, TombstoneAndRestoreRoundTrip) {
  TableCorpus corpus;
  corpus.AddFromStrings("a.com", TableSource::kWeb, {"name", "code"},
                        {{"usa", "canada"}, {"US", "CA"}});
  corpus.AddFromStrings("b.com", TableSource::kWeb, {"name", "code"},
                        {{"france", "spain"}, {"FR", "ES"}});
  const size_t cols_before = corpus.TotalColumns();

  std::vector<Column> moved = corpus.Tombstone(0);
  ASSERT_EQ(moved.size(), 2u);
  // The shell stays: same table count, same id, zero columns — a cold
  // rebuild over the mutated corpus sees the table contribute nothing.
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.table(0).num_columns(), 0u);
  EXPECT_EQ(corpus.TotalColumns(), cols_before - 2);
  // The neighbor is untouched.
  EXPECT_EQ(corpus.pool().Get(corpus.table(1).columns[0].cells[0]), "france");

  CorpusUndo undo;
  undo.tombstoned.emplace_back(0, std::move(moved));
  corpus.Undo(std::move(undo));
  EXPECT_EQ(corpus.table(0).num_columns(), 2u);
  EXPECT_EQ(corpus.TotalColumns(), cols_before);
  EXPECT_EQ(corpus.pool().Get(corpus.table(0).columns[0].cells[1]), "canada");
  EXPECT_EQ(corpus.pool().Get(corpus.table(0).columns[1].cells[0]), "US");
}

TEST(TableCorpusTest, UndoRevertsAMergeAndItsTombstones) {
  // A mutation records the table count and pool size before it and the
  // columns it tombstoned; Undo drops the merged tables AND their pool
  // entries, and restores the columns.
  TableCorpus corpus;
  corpus.AddFromStrings("a.com", TableSource::kWeb, {"x"}, {{"kept"}});
  corpus.AddFromStrings("c.com", TableSource::kWeb, {"x", "y"},
                        {{"gone"}, {"GO"}});
  CorpusUndo undo;
  undo.num_tables = corpus.size();
  undo.pool_size = corpus.pool().size();
  undo.tombstoned.emplace_back(1, corpus.Tombstone(1));

  TableCorpus delta;
  delta.AddFromStrings("b.com", TableSource::kWeb, {"x"},
                       {{"orphaned value"}});
  auto merged = corpus.AppendFrom(delta);
  ASSERT_TRUE(merged.ok());
  ASSERT_NE(corpus.pool().Find("orphaned value"), kInvalidValueId);

  // A default undo changes nothing.
  corpus.Undo(CorpusUndo());
  EXPECT_EQ(corpus.size(), 3u);
  EXPECT_EQ(corpus.table(1).num_columns(), 0u);

  const size_t prev_pool = undo.pool_size;
  corpus.Undo(std::move(undo));
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.pool().size(), prev_pool);
  EXPECT_EQ(corpus.pool().Find("orphaned value"), kInvalidValueId);
  EXPECT_NE(corpus.pool().Find("kept"), kInvalidValueId);
  ASSERT_EQ(corpus.table(1).num_columns(), 2u);
  EXPECT_EQ(corpus.pool().Get(corpus.table(1).columns[1].cells[0]), "GO");
}

TEST(TableCorpusTest, SubsetClampsFraction) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"x"}, {{"v"}});
  EXPECT_EQ(corpus.Subset(2.0).size(), 1u);
  EXPECT_EQ(corpus.Subset(-1.0).size(), 0u);
}

// -------------------------------------------------------------------- TSV

TEST(TsvTest, RoundTripPreservesContent) {
  TableCorpus corpus;
  corpus.AddFromStrings("geo.example.com", TableSource::kWeb,
                        {"Country", "Code"},
                        {{"United States", "South Korea"}, {"USA", "KOR"}});
  corpus.AddFromStrings("", TableSource::kWiki, {"State", "Abbrev."},
                        {{"California"}, {"CA"}});

  std::ostringstream out;
  ASSERT_TRUE(WriteCorpusTsv(corpus, out).ok());

  std::istringstream in(out.str());
  TableCorpus loaded;
  ASSERT_TRUE(ReadCorpusTsv(in, &loaded).ok());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.table(0).domain, "geo.example.com");
  EXPECT_EQ(loaded.table(0).source, TableSource::kWeb);
  EXPECT_EQ(loaded.table(1).domain, "");
  EXPECT_EQ(loaded.table(1).source, TableSource::kWiki);
  EXPECT_EQ(loaded.pool().Get(loaded.table(0).columns[0].cells[1]),
            "South Korea");
  EXPECT_EQ(loaded.table(1).columns[1].name, "Abbrev.");
}

TEST(TsvTest, ReadRejectsGarbage) {
  std::istringstream in("not a table header\n");
  TableCorpus corpus;
  Status s = ReadCorpusTsv(in, &corpus);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TsvTest, ReadEmptyStreamYieldsEmptyCorpus) {
  std::istringstream in("");
  TableCorpus corpus;
  ASSERT_TRUE(ReadCorpusTsv(in, &corpus).ok());
  EXPECT_EQ(corpus.size(), 0u);
}

TEST(TsvTest, LoadMissingFileFails) {
  TableCorpus corpus;
  Status s = LoadCorpus("/nonexistent/path/corpus.tsv", &corpus);
  EXPECT_FALSE(s.ok());
  // NotFound (not IOError) since the env refactor: missing input is a
  // distinct, recoverable condition, and the message names the path.
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("/nonexistent/path/corpus.tsv"),
            std::string::npos)
      << s.ToString();
}

TEST(TsvTest, RoundTripEnterpriseAndTrustedSources) {
  TableCorpus corpus;
  corpus.AddFromStrings("intra", TableSource::kEnterprise, {"a"}, {{"1"}});
  corpus.AddFromStrings("gov", TableSource::kTrusted, {"b"}, {{"2"}});
  std::ostringstream out;
  ASSERT_TRUE(WriteCorpusTsv(corpus, out).ok());
  std::istringstream in(out.str());
  TableCorpus loaded;
  ASSERT_TRUE(ReadCorpusTsv(in, &loaded).ok());
  EXPECT_EQ(loaded.table(0).source, TableSource::kEnterprise);
  EXPECT_EQ(loaded.table(1).source, TableSource::kTrusted);
}

}  // namespace
}  // namespace ms
