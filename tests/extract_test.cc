// Tests for Step 1 candidate extraction (Section 3, Algorithm 1): PMI-based
// column filtering and approximate-FD column-pair filtering, reproducing the
// paper's Table 7 walk-through (Examples 5 and 6).
#include <bit>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "extract/candidate_extraction.h"
#include "extract/normalization_cache.h"
#include "stats/inverted_index.h"
#include "table/corpus.h"

namespace ms {
namespace {

/// Builds the Table 7 scenario: a schedule table with coherent team/stadium
/// columns (values recur across many corpus tables) and an incoherent
/// Location column (values never recur).
class ExtractFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    teams_ = {"bears", "lions", "vikings", "packers", "eagles"};
    stadiums_ = {"soldier field", "ford field", "us bank stadium",
                 "lambeau field", "lincoln field"};
    // Background tables give teams/stadiums strong co-occurrence stats.
    for (int i = 0; i < 12; ++i) {
      corpus_.AddFromStrings("bg" + std::to_string(i), TableSource::kWeb,
                             {"team"}, {teams_});
      corpus_.AddFromStrings("bgs" + std::to_string(i), TableSource::kWeb,
                             {"stadium"}, {stadiums_});
    }
    // The schedule table under test: home, away, date, stadium, location.
    std::vector<std::string> home = {"bears", "lions", "lions", "vikings",
                                     "packers"};
    std::vector<std::string> away = {"packers", "vikings", "packers",
                                     "bears", "vikings"};
    std::vector<std::string> date = {"10-12", "10-12", "10-19", "10-19",
                                     "10-26"};
    std::vector<std::string> stadium = {"soldier field", "ford field",
                                        "ford field", "us bank stadium",
                                        "lambeau field"};
    std::vector<std::string> location = {"chicago il 60605", "detroit mi",
                                         "unique9183", "minneapolis zz1",
                                         "1265 lombardi ave"};
    schedule_id_ = corpus_.AddFromStrings(
        "nfl.example.com", TableSource::kWeb,
        {"Home Team", "Away Team", "Date", "Stadium", "Location"},
        {home, away, date, stadium, location});
    index_.Build(corpus_);
  }

  TableCorpus corpus_;
  ColumnInvertedIndex index_;
  TableId schedule_id_ = 0;
  std::vector<std::string> teams_, stadiums_;
};

TEST_F(ExtractFixture, CoherentColumnsPassPmiFilter) {
  const Table& t = corpus_.table(schedule_id_);
  ExtractionOptions opts;
  opts.coherence_threshold = 0.1;
  EXPECT_TRUE(ColumnPassesCoherence(index_, t.columns[0], opts));  // home
  EXPECT_TRUE(ColumnPassesCoherence(index_, t.columns[3], opts));  // stadium
}

TEST_F(ExtractFixture, IncoherentLocationColumnFails) {
  const Table& t = corpus_.table(schedule_id_);
  ExtractionOptions opts;
  opts.coherence_threshold = 0.1;
  EXPECT_FALSE(ColumnPassesCoherence(index_, t.columns[4], opts));
}

TEST_F(ExtractFixture, FdFilterKeepsHomeStadiumAndDropsHomeAway) {
  ExtractionOptions opts;
  opts.coherence_threshold = 0.05;
  opts.min_pairs = 3;
  opts.fd_theta = 0.95;
  auto result = ExtractCandidates(corpus_, index_, opts);

  bool home_stadium = false, home_away = false, stadium_home = false;
  for (const auto& c : result.candidates) {
    if (c.source_table != schedule_id_) continue;
    if (c.left_name == "Home Team" && c.right_name == "Stadium") {
      home_stadium = true;
    }
    if (c.left_name == "Home Team" && c.right_name == "Away Team") {
      home_away = true;
    }
    if (c.left_name == "Stadium" && c.right_name == "Home Team") {
      stadium_home = true;
    }
  }
  // Example 6: only (Home Team, Stadium) and (Stadium, Home Team) survive.
  EXPECT_TRUE(home_stadium);
  EXPECT_TRUE(stadium_home);
  EXPECT_FALSE(home_away);  // lions play two different opponents
}

TEST_F(ExtractFixture, ExtractionStatsAreConsistent) {
  auto result = ExtractCandidates(corpus_, index_, {});
  const auto& st = result.stats;
  EXPECT_EQ(st.tables_seen, corpus_.size());
  EXPECT_EQ(st.columns_seen, corpus_.TotalColumns());
  EXPECT_LE(st.columns_kept, st.columns_seen);
  EXPECT_LE(st.pairs_kept, st.pairs_considered);
  EXPECT_EQ(st.pairs_kept, result.candidates.size());
  EXPECT_GE(st.FilterRate(), 0.0);
  EXPECT_LE(st.FilterRate(), 1.0);
}

TEST_F(ExtractFixture, CandidateIdsAreDense) {
  auto result = ExtractCandidates(corpus_, index_, {});
  for (size_t i = 0; i < result.candidates.size(); ++i) {
    EXPECT_EQ(result.candidates[i].id, i);
  }
}

TEST_F(ExtractFixture, ParallelExtractionMatchesSerial) {
  ThreadPool pool(4);
  auto serial = ExtractCandidates(corpus_, index_, {});
  auto parallel = ExtractCandidates(corpus_, index_, {}, &pool);
  ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
  for (size_t i = 0; i < serial.candidates.size(); ++i) {
    EXPECT_EQ(serial.candidates[i].pairs(), parallel.candidates[i].pairs());
    EXPECT_EQ(serial.candidates[i].source_table,
              parallel.candidates[i].source_table);
  }
}

TEST(ExtractOptionsTest, MinPairsDropsTinyCandidates) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"a", "b"},
                        {{"x", "y"}, {"1", "2"}});
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;  // let everything through PMI
  opts.min_pairs = 3;
  auto result = ExtractCandidates(corpus, index, opts);
  EXPECT_TRUE(result.candidates.empty());
  opts.min_pairs = 2;
  result = ExtractCandidates(corpus, index, opts);
  EXPECT_EQ(result.candidates.size(), 2u);  // both orders
}

TEST(ExtractOptionsTest, MaxColumnsSkipsWideTables) {
  TableCorpus corpus;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> cols;
  for (int c = 0; c < 6; ++c) {
    names.push_back("c" + std::to_string(c));
    cols.push_back({"v" + std::to_string(c) + "a",
                    "v" + std::to_string(c) + "b",
                    "v" + std::to_string(c) + "c"});
  }
  corpus.AddFromStrings("d", TableSource::kWeb, names, cols);
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;
  opts.min_pairs = 2;
  opts.max_columns = 4;
  auto result = ExtractCandidates(corpus, index, opts);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(ExtractOptionsTest, CellsAreNormalized) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"Country", "Code"},
                        {{"United States[1]", "South  Korea", "France"},
                         {"USA", "KOR", "FRA"}});
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;
  auto result = ExtractCandidates(corpus, index, opts);
  ASSERT_FALSE(result.candidates.empty());
  const StringPool& pool = corpus.pool();
  bool found = false;
  for (const auto& c : result.candidates) {
    for (const auto& p : c.pairs()) {
      if (pool.Get(p.left) == "united states" && pool.Get(p.right) == "usa") {
        found = true;
      }
      // No raw (un-normalized) forms may leak through.
      EXPECT_EQ(pool.Get(p.left).find('['), std::string_view::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExtractOptionsTest, DropNumericLeft) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"rank", "team"},
                        {{"1", "2", "3", "4"},
                         {"bears", "lions", "vikings", "packers"}});
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;
  opts.drop_numeric_left = true;
  auto result = ExtractCandidates(corpus, index, opts);
  for (const auto& c : result.candidates) {
    EXPECT_NE(c.left_name, "rank");
  }
  opts.drop_numeric_left = false;
  result = ExtractCandidates(corpus, index, opts);
  bool rank_left = false;
  for (const auto& c : result.candidates) rank_left |= c.left_name == "rank";
  EXPECT_TRUE(rank_left);
}

TEST(ExtractOptionsTest, FdThetaControlsApproximateTolerance) {
  TableCorpus corpus;
  // 19 clean rows + 1 violating row: ratio 19/20 = 0.95.
  std::vector<std::string> left, right;
  for (int i = 0; i < 19; ++i) {
    left.push_back("l" + std::to_string(i));
    right.push_back("r" + std::to_string(i));
  }
  left.push_back("l0");
  right.push_back("rX");
  corpus.AddFromStrings("d", TableSource::kWeb, {"a", "b"}, {left, right});
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;
  opts.fd_theta = 0.95;
  auto result = ExtractCandidates(corpus, index, opts);
  bool ab = false;
  for (const auto& c : result.candidates) ab |= (c.left_name == "a");
  EXPECT_TRUE(ab);

  opts.fd_theta = 0.97;
  result = ExtractCandidates(corpus, index, opts);
  ab = false;
  for (const auto& c : result.candidates) ab |= (c.left_name == "a");
  EXPECT_FALSE(ab);
}

// ------------------------------------------------ sharded normalize cache

TEST(NormalizationCacheTest, EachRawValueNormalizedExactlyOnceUnderRace) {
  // Regression for the seed's double-normalize race: the global-mutex cache
  // released its lock while normalizing, so two threads could both miss on
  // the same raw value and normalize + intern it twice. The sharded cache
  // holds the owning shard's lock across the miss, so the number of
  // NormalizeCell invocations must equal the number of distinct raw values
  // no matter how many threads hammer it.
  StringPool pool;
  std::vector<ValueId> raw;
  for (int i = 0; i < 200; ++i) {
    raw.push_back(pool.Intern("  Value  " + std::to_string(i) + " [1]"));
  }
  ShardedNormalizationCache cache(&pool, {});
  constexpr int kThreads = 8;
  std::vector<std::vector<ValueId>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Offset start positions to maximize same-value collisions mid-flight.
      for (size_t k = 0; k < raw.size(); ++k) {
        results[t].push_back(cache.Normalized(raw[(k + t * 23) % raw.size()]));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.normalize_calls(), raw.size());
  EXPECT_EQ(cache.misses(), raw.size());
  EXPECT_EQ(cache.hits(), (kThreads - 1) * raw.size());
  // All threads observed identical normalizations: thread t's k-th lookup
  // was raw[(k + t*23) % n], which thread 0 saw at that same index.
  for (int t = 1; t < kThreads; ++t) {
    for (size_t k = 0; k < raw.size(); ++k) {
      EXPECT_EQ(results[t][k], results[0][(k + t * 23) % raw.size()]);
    }
  }
}

TEST(NormalizationCacheTest, BatchMatchesSingleLookups) {
  StringPool pool_a, pool_b;
  std::vector<ValueId> raw_a, raw_b;
  std::vector<std::string> cells = {"United States[1]", "South  Korea",
                                    "France", "   ", "United States[1]",
                                    "France"};
  for (const auto& c : cells) {
    raw_a.push_back(pool_a.Intern(c));
    raw_b.push_back(pool_b.Intern(c));
  }
  ShardedNormalizationCache single(&pool_a, {});
  ShardedNormalizationCache batch(&pool_b, {});
  std::vector<ValueId> out_single, out_batch;
  for (ValueId v : raw_a) out_single.push_back(single.Normalized(v));
  batch.NormalizeBatch(raw_b, &out_batch);
  ASSERT_EQ(out_single.size(), out_batch.size());
  for (size_t i = 0; i < out_single.size(); ++i) {
    // Ids may differ across pools; compare resolved strings (or both
    // invalid, for the all-whitespace cell).
    if (out_single[i] == kInvalidValueId) {
      EXPECT_EQ(out_batch[i], kInvalidValueId);
    } else {
      EXPECT_EQ(pool_a.Get(out_single[i]), pool_b.Get(out_batch[i]));
    }
  }
  // Batch path also normalizes each distinct value exactly once.
  EXPECT_EQ(batch.normalize_calls(), 4u);  // 4 distinct cells
  std::vector<ValueId> again;
  batch.NormalizeBatch(raw_b, &again);
  EXPECT_EQ(batch.normalize_calls(), 4u);
  EXPECT_EQ(again, out_batch);
}

TEST(NormalizationCacheTest, ExtractionReportsCacheCounters) {
  TableCorpus corpus;
  corpus.AddFromStrings("d", TableSource::kWeb, {"a", "b"},
                        {{"x1", "x2", "x3", "x1"}, {"y1", "y2", "y3", "y1"}});
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;
  auto result = ExtractCandidates(corpus, index, opts);
  EXPECT_EQ(result.stats.normalize_cache_misses, 6u);  // x1..x3, y1..y3
  EXPECT_GT(result.stats.normalize_cache_hits, 0u);
}

TEST(ExtractOptionsTest, SelfPairsAreDropped) {
  TableCorpus corpus;
  // Identical left/right values carry no mapping signal.
  corpus.AddFromStrings("d", TableSource::kWeb, {"a", "b"},
                        {{"x", "y", "z"}, {"x", "y", "z"}});
  ColumnInvertedIndex index;
  index.Build(corpus);
  ExtractionOptions opts;
  opts.coherence_threshold = -1.0;
  opts.min_pairs = 1;
  auto result = ExtractCandidates(corpus, index, opts);
  EXPECT_TRUE(result.candidates.empty());
}

// ------------------------------------------ concurrency (TSan leg)

/// Adds `n` random tables of two or three columns over one skewed
/// vocabulary; one in five is wider than 64 distinct values.
void AddRandomTables(Rng& rng, size_t n, TableCorpus* corpus) {
  for (size_t t = 0; t < n; ++t) {
    const bool wide = rng.Uniform(5) == 0;
    const size_t rows = wide ? 70 + rng.Uniform(40) : 3 + rng.Uniform(12);
    const size_t n_cols = 2 + rng.Uniform(2);
    std::vector<std::string> names;
    std::vector<std::vector<std::string>> cols(n_cols);
    for (size_t c = 0; c < n_cols; ++c) {
      names.push_back("c" + std::to_string(c));
      for (size_t r = 0; r < rows; ++r) {
        const uint64_t v = rng.Bernoulli(0.6) ? rng.Uniform(1 + rng.Uniform(30))
                                              : 30 + rng.Uniform(500);
        cols[c].push_back("value " + std::to_string(v));
      }
    }
    corpus->AddFromStrings("site" + std::to_string(rng.Uniform(4)),
                           TableSource::kWeb, names, cols);
  }
}

/// Everything the coherence pass writes per table: signatures, margins
/// (doubles compared bit for bit) and counts.
void ExpectSameCoherenceOutput(const ExtractionResult& want,
                               const ExtractionResult& got,
                               const std::string& ctx) {
  EXPECT_EQ(want.kept_offsets, got.kept_offsets) << ctx;
  EXPECT_EQ(want.kept_columns, got.kept_columns) << ctx;
  EXPECT_EQ(want.margin_offsets, got.margin_offsets) << ctx;
  ASSERT_EQ(want.margins.size(), got.margins.size()) << ctx;
  for (size_t k = 0; k < want.margins.size(); ++k) {
    EXPECT_EQ(std::bit_cast<uint64_t>(want.margins[k].score),
              std::bit_cast<uint64_t>(got.margins[k].score))
        << ctx << " margin " << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.margins[k].sum_pos),
              std::bit_cast<uint64_t>(got.margins[k].sum_pos))
        << ctx << " margin " << k;
    EXPECT_EQ(want.margins[k], got.margins[k]) << ctx << " margin " << k;
  }
  EXPECT_EQ(want.count_offsets, got.count_offsets) << ctx;
  EXPECT_EQ(want.counts, got.counts) << ctx;
  EXPECT_EQ(want.candidates.size(), got.candidates.size()) << ctx;
}

TEST(CoherenceCacheConcurrencyTest, ThreadCountsWriteIdenticalSlices) {
  // Each table writes its margins and count slices into one shared array
  // at offsets fixed before the pass. One, two and four threads must
  // write the same bytes, on a cold pass and on a mutation that re-scores
  // old columns from the cold pass's counts.
  Rng rng(2026);
  TableCorpus corpus;
  AddRandomTables(rng, 80, &corpus);
  ExtractionOptions opts;
  opts.coherence.max_sampled_values = 64;
  ColumnInvertedIndex index;
  index.Build(corpus);
  const size_t thread_counts[] = {1, 2, 4};

  std::vector<ExtractionResult> cold;
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    cold.push_back(ExtractCandidates(corpus, index, opts, &pool));
  }
  ASSERT_FALSE(cold[0].counts.empty());
  for (size_t i = 1; i < cold.size(); ++i) {
    ExpectSameCoherenceOutput(
        cold[0], cold[i],
        "cold, " + std::to_string(thread_counts[i]) + " threads");
  }

  // Replace: tombstone a few tables, append new ones, patch the index.
  const size_t first_new = corpus.size();
  const std::vector<TableId> removed = {3, 17, 40, 41};
  std::vector<std::vector<Column>> saved;
  DeltaExtractionRequest request;
  for (TableId id : removed) saved.push_back(corpus.Tombstone(id));
  for (const auto& columns : saved) {
    for (const Column& c : columns) request.removed_columns.push_back(&c.cells);
  }
  AddRandomTables(rng, 8, &corpus);
  index.RemoveTables(removed);
  index.AppendTables(corpus, first_new);
  request.first_new_table = first_new;
  request.first_new_id = static_cast<BinaryTableId>(cold[0].candidates.size());
  request.base_kept_offsets = &cold[0].kept_offsets;
  request.base_kept_columns = &cold[0].kept_columns;
  request.base_margin_offsets = &cold[0].margin_offsets;
  request.base_margins = &cold[0].margins;
  request.base_count_offsets = &cold[0].count_offsets;
  request.base_counts = &cold[0].counts;
  request.base_coherence = opts.coherence;
  request.removed_tables = removed;

  std::vector<DeltaExtractionResult> mutated;
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    mutated.push_back(
        ExtractCandidatesDelta(corpus, index, request, opts, &pool));
  }
  EXPECT_GT(mutated[0].cached_rechecks, 0u);
  for (size_t i = 1; i < mutated.size(); ++i) {
    const std::string ctx =
        "mutated, " + std::to_string(thread_counts[i]) + " threads";
    ExpectSameCoherenceOutput(mutated[0], mutated[i], ctx);
    EXPECT_EQ(mutated[0].flipped_tables, mutated[i].flipped_tables) << ctx;
    EXPECT_EQ(mutated[0].margin_skips, mutated[i].margin_skips) << ctx;
    EXPECT_EQ(mutated[0].cached_rechecks, mutated[i].cached_rechecks) << ctx;
  }
}

}  // namespace
}  // namespace ms
