// Tests for the staged SynthesisSession API: staged runs must be
// byte-identical to the one-call Run composite, warm re-runs must provably
// skip the upstream stages (asserted via session stage counters), malformed
// options must be rejected with Status::InvalidArgument instead of
// undefined behavior, artifact lineage misuse must fail with
// FailedPrecondition, and corpus-file failures must propagate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "apps/serving.h"
#include "corpusgen/builtin_domains.h"
#include "corpusgen/generator.h"
#include "graph/connected_components.h"
#include "synth/session.h"
#include "table/tsv.h"

namespace ms {
namespace {

GeneratedWorld SmallWorld(uint64_t seed = 7, size_t popularity = 12) {
  auto all = BuiltinWebRelationships();
  std::vector<RelationshipSpec> specs;
  for (auto& s : all) {
    if (s.name == "country_iso3" || s.name == "country_ioc" ||
        s.name == "state_abbrev" || s.name == "element_symbol") {
      s.popularity = popularity;
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

/// Canonical view of a mapping set: partition ids (and hence vector order)
/// depend on thread scheduling, so compare as a sorted multiset of
/// (labels, member count, exact pair list).
std::multiset<std::string> CanonicalMappings(const SynthesisResult& r,
                                             const StringPool& pool) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) {
    std::string key = m.left_label + "\x1f" + m.right_label + "\x1f" +
                      std::to_string(m.kept_tables.size()) + "\x1f";
    for (const auto& p : m.merged.pairs()) {
      key += std::string(pool.Get(p.left)) + "\x1e" +
             std::string(pool.Get(p.right)) + "\x1f";
    }
    out.insert(std::move(key));
  }
  return out;
}

// ------------------------------------------------------- staged equivalence

TEST(SessionStagedTest, StagedRunMatchesMonolithicByteIdentically) {
  GeneratedWorld world = SmallWorld(41);
  const StringPool& pool = world.corpus.pool();

  // Monolithic: the one-call composite on its own session.
  SynthesisSession mono_session(FastOptions());
  auto mono_run = mono_session.Run(world.corpus);
  ASSERT_TRUE(mono_run.ok()) << mono_run.status().ToString();
  const SynthesisResult& mono = mono_run.value();

  // Staged: every stage explicit.
  SynthesisSession session(FastOptions());
  ASSERT_TRUE(session.status().ok());
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok()) << cands.status().ToString();
  auto blocked = session.BlockPairs(cands.value());
  ASSERT_TRUE(blocked.ok());
  auto graph = session.ScorePairs(cands.value(), blocked.value());
  ASSERT_TRUE(graph.ok());
  auto parts = session.Partition(graph.value());
  ASSERT_TRUE(parts.ok());
  auto staged = session.Resolve(cands.value(), graph.value(), parts.value());
  ASSERT_TRUE(staged.ok());

  ASSERT_EQ(mono.mappings.size(), staged.value().mappings.size());
  EXPECT_EQ(CanonicalMappings(mono, pool),
            CanonicalMappings(staged.value(), pool));
  EXPECT_EQ(mono.stats.candidate_pairs, staged.value().stats.candidate_pairs);
  EXPECT_EQ(mono.stats.graph_edges, staged.value().stats.graph_edges);
  EXPECT_EQ(mono.stats.partitions, staged.value().stats.partitions);
  EXPECT_EQ(mono.stats.candidates, staged.value().stats.candidates);
}

TEST(SessionStagedTest, WarmRescoreSkipsExtractionAndBlocking) {
  GeneratedWorld world = SmallWorld(43);
  const StringPool& pool = world.corpus.pool();

  SynthesisSession session(FastOptions());
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok());
  auto blocked = session.BlockPairs(cands.value());
  ASSERT_TRUE(blocked.ok());
  auto first = session.FinishFromBlocked(cands.value(), blocked.value());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(session.session_stats().extract_runs, 1u);
  EXPECT_EQ(session.session_stats().blocking_runs, 1u);
  EXPECT_EQ(session.session_stats().scoring_runs, 1u);

  // Change scoring options; re-run from the blocked artifact.
  SynthesisOptions tweaked = FastOptions();
  tweaked.compat.edit.cap = 4;
  ASSERT_TRUE(session.UpdateOptions(tweaked).ok());
  auto warm = session.FinishFromBlocked(cands.value(), blocked.value());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  // The counters prove extraction + blocking did not re-run.
  EXPECT_EQ(session.session_stats().extract_runs, 1u);
  EXPECT_EQ(session.session_stats().blocking_runs, 1u);
  EXPECT_EQ(session.session_stats().scoring_runs, 2u);
  // cap change keeps edit.fractional, so matcher caches stayed warm.
  EXPECT_EQ(session.session_stats().warm_scoring_runs, 1u);

  // Warm result must be byte-identical to a cold run under the same
  // options (warm state is a speed lever, never a results lever).
  SynthesisSession cold_session(tweaked);
  auto cold = cold_session.Run(world.corpus);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(CanonicalMappings(cold.value(), pool),
            CanonicalMappings(warm.value(), pool));
}

TEST(SessionStagedTest, RepeatedScoringIsDeterministic) {
  // Warm per-worker matcher caches must not perturb scores: score the same
  // artifacts twice and compare graphs bitwise.
  GeneratedWorld world = SmallWorld(47);
  SynthesisSession session(FastOptions());
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok());
  auto blocked = session.BlockPairs(cands.value());
  ASSERT_TRUE(blocked.ok());
  auto g1 = session.ScorePairs(cands.value(), blocked.value());
  auto g2 = session.ScorePairs(cands.value(), blocked.value());
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  ASSERT_EQ(g1.value().graph.num_edges(), g2.value().graph.num_edges());
  for (size_t e = 0; e < g1.value().graph.edges().size(); ++e) {
    const auto& e1 = g1.value().graph.edges()[e];
    const auto& e2 = g2.value().graph.edges()[e];
    EXPECT_EQ(e1.u, e2.u);
    EXPECT_EQ(e1.v, e2.v);
    EXPECT_EQ(e1.w_pos, e2.w_pos);  // bitwise
    EXPECT_EQ(e1.w_neg, e2.w_neg);
  }
  EXPECT_EQ(session.session_stats().warm_scoring_runs, 1u);
}

TEST(ScoringConcurrencyTest, EdgesAreBitwiseEqualAcrossThreadCounts) {
  // One candidate set scored on 1, 2 and 4 threads: every worker sorts its
  // residues through its own matcher's cached strings and thread-local
  // scratch, so the thread count must not change a single edge. A tiny
  // matcher cache cap makes the workers flush mid-sort as well.
  GeneratedWorld world = SmallWorld(53, /*popularity=*/30);
  SynthesisOptions opts = FastOptions();
  opts.num_threads = 1;
  SynthesisSession session(opts);
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok());
  auto blocked = session.BlockPairs(cands.value());
  ASSERT_TRUE(blocked.ok());
  // Several scoring chunks per worker (chunks are 256 pairs).
  ASSERT_GT(blocked.value().pairs.size(), 4u * 2u * 256u);

  auto base = session.ScorePairs(cands.value(), blocked.value());
  ASSERT_TRUE(base.ok());
  const auto& want = base.value().graph.edges();
  ASSERT_FALSE(want.empty());
  for (const size_t cap : {size_t{1} << 20, size_t{16}}) {
    for (const size_t threads : {1u, 2u, 4u}) {
      opts.num_threads = threads;
      opts.matcher_cache_cap = cap;
      ASSERT_TRUE(session.UpdateOptions(opts).ok());
      auto g = session.ScorePairs(cands.value(), blocked.value());
      ASSERT_TRUE(g.ok());
      const auto& got = g.value().graph.edges();
      ASSERT_EQ(got.size(), want.size())
          << threads << " threads, cap " << cap;
      for (size_t e = 0; e < want.size(); ++e) {
        ASSERT_EQ(got[e].u, want[e].u) << "edge " << e;
        ASSERT_EQ(got[e].v, want[e].v) << "edge " << e;
        ASSERT_EQ(got[e].w_pos, want[e].w_pos) << "edge " << e;  // bitwise
        ASSERT_EQ(got[e].w_neg, want[e].w_neg) << "edge " << e;
      }
    }
  }
}

// ----------------------------------------------------------- Validate()

TEST(SessionValidateTest, RejectsMalformedOptions) {
  struct Case {
    const char* what;
    SynthesisOptions opts;
  };
  std::vector<Case> cases;
  {
    SynthesisOptions o;
    o.min_pairs = 0;
    cases.push_back({"min_pairs == 0", o});
  }
  {
    SynthesisOptions o;
    o.min_domains = 0;
    cases.push_back({"min_domains == 0", o});
  }
  {
    SynthesisOptions o;
    o.num_threads = static_cast<size_t>(-1);  // classic underflow
    cases.push_back({"num_threads overflow", o});
  }
  {
    SynthesisOptions o;
    o.compat.edit.fractional = -0.2;
    cases.push_back({"negative f_ed", o});
  }
  {
    SynthesisOptions o;
    o.compat.edit.fractional = 1.0;
    cases.push_back({"f_ed >= 1", o});
  }
  {
    SynthesisOptions o;
    o.compat.edit.fractional = std::nan("");
    cases.push_back({"NaN f_ed", o});
  }
  {
    SynthesisOptions o;
    o.blocking.theta_overlap = 0;
    cases.push_back({"theta_overlap == 0", o});
  }
  {
    SynthesisOptions o;
    o.blocking.max_posting = 1;
    cases.push_back({"max_posting < 2", o});
  }
  {
    SynthesisOptions o;
    o.extraction.fd_theta = 0.0;
    cases.push_back({"fd_theta == 0", o});
  }
  {
    SynthesisOptions o;
    o.extraction.fd_theta = 1.5;
    cases.push_back({"fd_theta > 1", o});
  }
  {
    SynthesisOptions o;
    o.extraction.min_pairs = 0;
    cases.push_back({"extraction.min_pairs == 0", o});
  }
  {
    SynthesisOptions o;
    o.partitioner.tau = 0.5;
    cases.push_back({"tau > 0", o});
  }
  {
    SynthesisOptions o;
    o.partitioner.tau = -2.0;
    cases.push_back({"tau < -1", o});
  }
  {
    SynthesisOptions o;
    o.partitioner.theta_edge = 1.5;
    cases.push_back({"theta_edge > 1", o});
  }
  for (const auto& c : cases) {
    Status st = c.opts.Validate();
    EXPECT_FALSE(st.ok()) << c.what;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.what;
    // A session constructed with bad options refuses to run every stage.
    SynthesisSession session(c.opts);
    EXPECT_FALSE(session.status().ok()) << c.what;
    GeneratedWorld world = SmallWorld(3);
    auto r = session.ExtractCandidates(world.corpus);
    EXPECT_FALSE(r.ok()) << c.what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << c.what;
  }
}

TEST(SessionValidateTest, AcceptsDefaultsAndBoundaryValues) {
  EXPECT_TRUE(SynthesisOptions{}.Validate().ok());
  SynthesisOptions o;
  o.compat.edit.fractional = 0.0;   // exact matching only: legal
  o.partitioner.tau = 0.0;          // most permissive constraint: legal
  o.partitioner.theta_edge = 1.0;   // hardest edge floor: legal
  o.extraction.fd_theta = 1.0;      // exact FDs only: legal
  EXPECT_TRUE(o.Validate().ok()) << o.Validate().ToString();
}

TEST(SessionValidateTest, UpdateOptionsRejectsAndKeepsOldConfig) {
  SynthesisSession session(FastOptions());
  SynthesisOptions bad = FastOptions();
  bad.min_pairs = 0;
  Status st = session.UpdateOptions(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Old (valid) options survive; the session still runs.
  EXPECT_TRUE(session.status().ok());
  EXPECT_EQ(session.options().min_pairs, FastOptions().min_pairs);
  GeneratedWorld world = SmallWorld(5);
  EXPECT_TRUE(session.Run(world.corpus).ok());
}

// ------------------------------------------------------- artifact lineage

TEST(SessionLineageTest, MixedArtifactsAreRejected) {
  GeneratedWorld world = SmallWorld(53);
  SynthesisSession session(FastOptions());
  auto c1 = session.ExtractCandidates(world.corpus);
  auto c2 = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto b1 = session.BlockPairs(c1.value());
  ASSERT_TRUE(b1.ok());
  // Blocked pairs of candidate set 1 scored against candidate set 2: the
  // ids would silently index the wrong tables without the lineage check.
  auto crossed = session.ScorePairs(c2.value(), b1.value());
  EXPECT_FALSE(crossed.ok());
  EXPECT_EQ(crossed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionLineageTest, ForeignCandidateSetRejectedEvenWithMatchingIds) {
  // Artifact ids count from 1 per session, so a CandidateSet from another
  // session can carry the id ScorePairs expects; the session check must
  // still reject it (the blocked pairs index a different table vector).
  GeneratedWorld world = SmallWorld(57);
  SynthesisSession a(FastOptions());
  SynthesisSession b(FastOptions());
  auto ca = a.ExtractCandidates(world.corpus);
  auto cb = b.ExtractCandidates(world.corpus);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  ASSERT_EQ(ca.value().artifact_id, cb.value().artifact_id);
  auto blocked = a.BlockPairs(ca.value());
  ASSERT_TRUE(blocked.ok());
  auto crossed = a.ScorePairs(cb.value(), blocked.value());
  EXPECT_FALSE(crossed.ok());
  EXPECT_EQ(crossed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionLineageTest, PartitionsFromAnotherGraphAreRejected) {
  // Two graphs scored from the same candidates under different options
  // share candidates_id; Resolve must still refuse to pair one graph with
  // the other's partitions.
  GeneratedWorld world = SmallWorld(63);
  SynthesisSession session(FastOptions());
  auto cands = session.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok());
  auto blocked = session.BlockPairs(cands.value());
  ASSERT_TRUE(blocked.ok());
  auto g1 = session.ScorePairs(cands.value(), blocked.value());
  ASSERT_TRUE(g1.ok());
  auto parts1 = session.Partition(g1.value());
  ASSERT_TRUE(parts1.ok());
  SynthesisOptions tweaked = FastOptions();
  tweaked.compat.edit.cap = 4;
  ASSERT_TRUE(session.UpdateOptions(tweaked).ok());
  auto g2 = session.ScorePairs(cands.value(), blocked.value());
  ASSERT_TRUE(g2.ok());
  auto mixed = session.Resolve(cands.value(), g2.value(), parts1.value());
  EXPECT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kFailedPrecondition);
  // The matching graph still resolves.
  auto ok = session.Resolve(cands.value(), g1.value(), parts1.value());
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(SessionLineageTest, ForeignSessionArtifactsAreRejected) {
  GeneratedWorld world = SmallWorld(59);
  SynthesisSession a(FastOptions());
  SynthesisSession b(FastOptions());
  auto cands = a.ExtractCandidates(world.corpus);
  ASSERT_TRUE(cands.ok());
  auto blocked = b.BlockPairs(cands.value());
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionLineageTest, AdoptRejectsNonDenseIds) {
  StringPool pool;
  std::vector<BinaryTable> cands;
  BinaryTable t = BinaryTable::FromPairs(
      {{pool.Intern("a"), pool.Intern("b")}});
  t.id = 7;  // not dense
  cands.push_back(std::move(t));
  SynthesisSession session(FastOptions());
  auto r = session.AdoptCandidates(cands, pool);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- corpus-file propagation

TEST(SessionCorpusFileTest, CorruptTsvPropagatesStatus) {
  const std::string path = "/tmp/ms_session_corrupt.tsv";
  {
    std::ofstream out(path);
    out << "this is not a #table header\nname1\tname2\n";
  }
  SynthesisSession session(FastOptions());
  TableCorpus corpus;
  auto r = session.RunOnCorpusFile(path, &corpus);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SessionCorpusFileTest, MissingFileIsNotFound) {
  SynthesisSession session(FastOptions());
  TableCorpus corpus;
  auto r = session.RunOnCorpusFile("/tmp/ms_no_such_corpus.tsv", &corpus);
  EXPECT_FALSE(r.ok());
  // The env layer distinguishes a missing file (NotFound) from an IO
  // failure on an existing one (IOError) — recovery walks rely on it.
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("/tmp/ms_no_such_corpus.tsv"),
            std::string::npos)
      << r.status().ToString();
}

TEST(SessionCorpusFileTest, ValidFileRoundTrips) {
  GeneratedWorld world = SmallWorld(61);
  const std::string path = "/tmp/ms_session_roundtrip.tsv";
  ASSERT_TRUE(SaveCorpus(world.corpus, path).ok());
  SynthesisSession session(FastOptions());
  TableCorpus corpus;
  auto r = session.RunOnCorpusFile(path, &corpus);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().mappings.empty());
  std::remove(path.c_str());
}

// --------------------------------------------------- synonym snapshot

TEST(SessionSnapshotTest, SnapshotMatchesDictionaryAndRefreshesOnChange) {
  auto pool = std::make_shared<StringPool>();
  SynonymDictionary dict(pool);
  dict.AddSynonym("usa", "united states");
  dict.AddSynonym("usa", "u.s.a.");
  dict.AddSynonym("uk", "united kingdom");

  SynonymSnapshot snap = dict.Snapshot();
  EXPECT_EQ(snap.source_version(), dict.version());
  auto check = [&](std::string_view x, std::string_view y) {
    ValueId a = pool->Find(x);
    ValueId b = pool->Find(y);
    ASSERT_NE(a, kInvalidValueId);
    ASSERT_NE(b, kInvalidValueId);
    EXPECT_EQ(snap.AreSynonyms(a, b), dict.AreSynonyms(a, b))
        << x << " / " << y;
  };
  check("usa", "united states");
  check("united states", "u.s.a.");
  check("usa", "uk");
  check("uk", "united kingdom");
  // Unknown-to-snapshot values are their own class.
  ValueId fresh = pool->Intern("france");
  EXPECT_FALSE(snap.AreSynonyms(fresh, pool->Find("usa")));
  EXPECT_TRUE(snap.AreSynonyms(fresh, fresh));

  // Mutation bumps the version; a stale snapshot is detectable.
  const uint64_t before = dict.version();
  dict.AddSynonym("france", "republique francaise");
  EXPECT_GT(dict.version(), before);
  EXPECT_NE(snap.source_version(), dict.version());
}

TEST(SessionSnapshotTest, SessionRebuildsSnapshotOnlyWhenDictionaryMoves) {
  GeneratedWorld world = SmallWorld(67);
  auto pool_handle = world.corpus.shared_pool();
  SynonymDictionary dict(pool_handle);
  dict.AddSynonym("usa", "united states");

  SynthesisOptions opts = FastOptions();
  opts.compat.synonyms = &dict;
  opts.conflict.synonyms = &dict;
  SynthesisSession session(opts);
  ASSERT_TRUE(session.Run(world.corpus).ok());
  const size_t builds_after_first = session.session_stats().snapshot_rebuilds;
  EXPECT_GE(builds_after_first, 1u);

  // Unchanged dictionary: no rebuild on the next run.
  ASSERT_TRUE(session.Run(world.corpus).ok());
  EXPECT_EQ(session.session_stats().snapshot_rebuilds, builds_after_first);

  // Dictionary moved: exactly one refresh on the next scoring run.
  dict.AddSynonym("uk", "united kingdom");
  ASSERT_TRUE(session.Run(world.corpus).ok());
  EXPECT_EQ(session.session_stats().snapshot_rebuilds, builds_after_first + 1);
}

TEST(SessionSnapshotTest, SnapshotScoringMatchesDictionaryScoring) {
  // ValuesMatch through a snapshot must agree with the locked dictionary
  // path on every pair (the snapshot is the hot-path replacement).
  auto pool = std::make_shared<StringPool>();
  SynonymDictionary dict(pool);
  dict.AddSynonym("ca", "california");
  dict.AddSynonym("wa", "washington");
  std::vector<ValueId> ids;
  for (const char* s : {"ca", "california", "wa", "washington", "oregon",
                        "calif"}) {
    ids.push_back(pool->Intern(s));
  }
  SynonymSnapshot snap = dict.Snapshot();
  CompatibilityOptions with_dict;
  with_dict.synonyms = &dict;
  CompatibilityOptions with_snap = with_dict;
  with_snap.synonym_snapshot = &snap;
  for (ValueId a : ids) {
    for (ValueId b : ids) {
      EXPECT_EQ(ValuesMatch(a, b, *pool, with_dict),
                ValuesMatch(a, b, *pool, with_snap))
          << pool->Get(a) << " / " << pool->Get(b);
    }
  }
}

// ----------------------------------------------- per-pair truncation reuse

TEST(SessionBlockingTest, TruncationTaintsOnlyTouchedPairs) {
  StringPool pool;
  uint32_t next_id = 0;
  auto make = [&](std::vector<std::pair<std::string, std::string>> rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool.Intern(l), pool.Intern(r)});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = next_id++;
    return b;
  };
  // Tables 0..9 share a hot key; the posting list truncates at 4, so ids
  // 4..9 are dropped (tainted). Tables 8 and 9 additionally share a private
  // key, so the pair (8, 9) survives — with an understated count (the hot
  // co-occurrence was lost to truncation), which per-pair tracking must
  // flag. Tables 10, 11 never touch the hot key and stay exact.
  std::vector<BinaryTable> cands;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::pair<std::string, std::string>> rows = {
        {"hot", "key"},
        {"u" + std::to_string(i), "v"},
        {"w" + std::to_string(i), "x"}};
    if (i >= 8) rows.push_back({"alt", "z"});
    cands.push_back(make(rows));
  }
  cands.push_back(make({{"cool", "pair"}, {"calm", "pair2"}}));
  cands.push_back(make({{"cool", "pair"}, {"calm", "pair2"}}));

  BlockingOptions opts;
  opts.theta_overlap = 1;
  opts.max_posting = 4;
  BlockingStats stats;
  auto pairs = GenerateCandidatePairs(cands, opts, nullptr, &stats);
  ASSERT_GT(stats.dropped_postings, 0u);
  EXPECT_FALSE(stats.exact_counts);          // whole-run flag: truncated
  EXPECT_EQ(stats.tainted_candidates, 6u);   // ids 4..9 only

  auto find_pair = [&](uint32_t a, uint32_t b) -> const CandidateTablePair* {
    for (const auto& p : pairs) {
      if (p.a == a && p.b == b) return &p;
    }
    return nullptr;
  };
  // The clean pair keeps exact counts despite truncation elsewhere — this
  // is exactly what the old global exact_counts flag threw away.
  const CandidateTablePair* clean = find_pair(10, 11);
  ASSERT_NE(clean, nullptr);
  EXPECT_TRUE(clean->counts_exact);
  EXPECT_EQ(clean->shared_pairs, 2u);
  // Pairs among the surviving hot-key tables (both kept) stay exact too.
  const CandidateTablePair* kept = find_pair(0, 1);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->counts_exact);
  // The dropped-id pair survives via its private key but its count misses
  // the truncated hot co-occurrence: flagged inexact.
  const CandidateTablePair* dropped = find_pair(8, 9);
  ASSERT_NE(dropped, nullptr);
  EXPECT_FALSE(dropped->counts_exact);
  EXPECT_EQ(dropped->shared_pairs, 1u);  // true value is 2 (hot + alt)

  // Reference implementation agrees on per-pair exactness.
  auto ref = GenerateCandidatePairsReference(cands, opts);
  ASSERT_EQ(ref.size(), pairs.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].counts_exact, pairs[i].counts_exact)
        << ref[i].a << "," << ref[i].b;
  }
}

// ------------------------------------------------ component partitioning

TEST(SessionPartitionTest, ColdDivideAndConquerKeepsAscendingIdOrder) {
  // Each triple (A, B, C) = ids (3t, 3t+1, 3t+2): A-B and B-C tie at
  // w+ = 0.5, A-C conflict (w- = -0.5 < τ). The greedy merges whichever tie
  // comes first in component-local order, so the partition depends on the
  // member order. Source tables run backwards (C's table < B's < A's):
  // a cold Partition() must still hand each component its members in
  // ascending id, not in the (source table, id) order mutations use.
  StringPool pool;
  std::vector<BinaryTable> cands;
  auto add = [&](const std::string& tag,
                 std::vector<std::pair<std::string, std::string>> rows) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool.Intern(tag + l), pool.Intern(tag + r)});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = static_cast<BinaryTableId>(cands.size());
    cands.push_back(std::move(b));
  };
  constexpr int kTriples = 4;
  for (int t = 0; t < kTriples; ++t) {
    const std::string tag = "t" + std::to_string(t) + "_";
    add(tag, {{"a", "1"}, {"b", "2"}, {"p", "5"}, {"q", "6"}});
    add(tag, {{"a", "1"}, {"b", "2"}, {"x", "9"}, {"y", "8"}});
    add(tag, {{"x", "9"}, {"y", "8"}, {"p", "7"}, {"q", "0"}});
  }
  add("lone_", {{"m", "1"}, {"n", "2"}, {"o", "3"}});
  for (BinaryTable& b : cands) {
    b.source_table = static_cast<uint32_t>(cands.size() - b.id);
  }

  SynthesisSession session(FastOptions());
  ASSERT_TRUE(session.options().divide_and_conquer);
  auto adopted = session.AdoptCandidates(cands, pool);
  ASSERT_TRUE(adopted.ok());
  auto blocked = session.BlockPairs(adopted.value());
  ASSERT_TRUE(blocked.ok());
  auto scored = session.ScorePairs(adopted.value(), blocked.value());
  ASSERT_TRUE(scored.ok());
  auto parts = session.Partition(scored.value());
  ASSERT_TRUE(parts.ok());

  // Test-local oracle: GreedyPartition per positive component, members in
  // the order `less` imposes; returns the partitions as sorted id sets.
  const CompatibilityGraph& graph = scored.value().graph;
  const PartitionerOptions& popts = session.options().partitioner;
  auto per_component = [&](auto less, size_t* merges) {
    const auto comp = ConnectedComponentsBfs(graph, popts.theta_edge);
    std::set<std::vector<VertexId>> out;
    for (std::vector<VertexId> members : GroupByComponent(comp)) {
      std::sort(members.begin(), members.end(), less);
      std::vector<uint32_t> local_of(graph.num_vertices(), 0);
      for (uint32_t i = 0; i < members.size(); ++i) local_of[members[i]] = i;
      CompatibilityGraph sub(members.size());
      for (const CompatEdge& e : graph.edges()) {
        if (comp[e.u] != comp[members[0]] || comp[e.v] != comp[e.u]) continue;
        sub.AddEdge(local_of[e.u], local_of[e.v], e.w_pos, e.w_neg);
      }
      sub.Finalize();
      const PartitionResult local = GreedyPartition(sub, popts);
      *merges += local.merges_performed;
      std::vector<std::vector<VertexId>> groups(local.num_partitions);
      for (uint32_t i = 0; i < members.size(); ++i) {
        groups[local.partition_of[i]].push_back(members[i]);
      }
      for (auto& g : groups) {
        std::sort(g.begin(), g.end());
        out.insert(std::move(g));
      }
    }
    return out;
  };
  size_t merges = 0, table_order_merges = 0;
  const auto want = per_component(std::less<VertexId>(), &merges);
  const auto table_order = per_component(
      [&](VertexId x, VertexId y) {
        return std::tie(cands[x].source_table, x) <
               std::tie(cands[y].source_table, y);
      },
      &table_order_merges);
  // The fixture really is order-sensitive.
  ASSERT_NE(want, table_order);

  std::set<std::vector<VertexId>> got;
  for (auto& g : parts.value().partition.Groups()) got.insert(std::move(g));
  EXPECT_EQ(got, want);
  EXPECT_EQ(parts.value().partition.num_partitions, want.size());
  EXPECT_EQ(parts.value().partition.merges_performed, merges);
  EXPECT_EQ(parts.value().stats.components, kTriples + 1u);
  // Concretely: every triple merges A with B and leaves C alone.
  for (int t = 0; t < kTriples; ++t) {
    const VertexId a = 3 * t;
    EXPECT_EQ(got.count({a, a + 1}), 1u) << "triple " << t;
    EXPECT_EQ(got.count({a + 2}), 1u) << "triple " << t;
  }
}

// --------------------------------------------------- matcher memory bounds

TEST(SessionMatcherTest, CompactPeqShrinksShortPatterns) {
  MyersPattern p;
  BuildMyersPattern("united states", &p);  // 9 distinct bytes
  // Dense layout was 256 * 8 = 2048 bytes; sparse is (1 + distinct) rows.
  EXPECT_LE(p.MaskBytes(), (1 + 13) * sizeof(uint64_t));
  // And it still computes exact distances.
  EXPECT_EQ(MyersDistance(p, "united states"), 0u);
  EXPECT_EQ(MyersDistance(p, "united  states"), 1u);
  EXPECT_EQ(MyersDistance(p, ""), 13u);

  // Blocked patterns (> 64 bytes) use the same sparse layout.
  std::string long_pattern;
  for (int i = 0; i < 10; ++i) long_pattern += "abcdefgh";
  MyersPattern pl;
  BuildMyersPattern(long_pattern, &pl);
  EXPECT_EQ(pl.words, 2u);
  EXPECT_LE(pl.MaskBytes(), (1 + 8) * 2 * sizeof(uint64_t));
  EXPECT_EQ(MyersDistance(pl, long_pattern), 0u);
  EXPECT_EQ(MyersDistance(pl, long_pattern.substr(1)), 1u);
}

TEST(SessionMatcherTest, CacheCapFlushesAndStaysCorrect) {
  StringPool pool;
  std::vector<ValueId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(pool.Intern("value_number_" + std::to_string(i)));
  }
  EditDistanceOptions edit;
  BatchApproxMatcher capped(pool, edit, true, nullptr, nullptr,
                            /*max_cached_values=*/8);
  BatchApproxMatcher unbounded(pool, edit, true, nullptr, nullptr);
  for (ValueId a : ids) {
    for (ValueId b : ids) {
      EXPECT_EQ(capped.Match(a, b), unbounded.Match(a, b));
    }
  }
  EXPECT_GT(capped.stats().cache_flushes, 0u);
  EXPECT_LE(capped.cached_values(), 8u);
  EXPECT_EQ(unbounded.stats().cache_flushes, 0u);
  EXPECT_GT(unbounded.cache_bytes(), 0u);
}

TEST(SessionMatcherTest, PoolTruncationRetiresWarmMatchers) {
  // An append rollback truncates the pool, and the retry can hand the
  // dropped ids to different strings. The session's warm matchers cache
  // each id's text, length floor and char mask, so a truncation must not
  // let them score the new strings as the old ones.
  StringPool pool;
  auto table = [&](std::vector<std::pair<std::string, std::string>> rows,
                   BinaryTableId id) {
    std::vector<ValuePair> pairs;
    for (const auto& [l, r] : rows) {
      pairs.push_back({pool.Intern(l), pool.Intern(r)});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = id;
    b.source_table = id;
    return b;
  };
  SynthesisOptions opts = FastOptions();
  opts.num_threads = 1;  // one worker slot: the second run must reuse it
  SynthesisSession session(opts);
  auto score = [](SynthesisSession& s, const std::vector<BinaryTable>& c,
                  const StringPool& p) {
    auto adopted = s.AdoptCandidates(c, p);
    auto blocked = s.BlockPairs(adopted.value());
    return s.ScorePairs(adopted.value(), blocked.value()).value().graph;
  };
  for (const char* v : {"a", "1", "b", "2", "code"}) pool.Intern(v);
  const size_t base_size = pool.size();

  // Short tail values: their cached length floor forbids any approximate
  // match.
  std::vector<BinaryTable> before = {
      table({{"a", "1"}, {"b", "2"}, {"qqqq", "code"}}, 0),
      table({{"a", "1"}, {"b", "2"}, {"xxxx", "code"}}, 1)};
  score(session, before, pool);

  pool.TruncateTo(base_size);
  // The same ids now name two long values one edit apart.
  std::vector<BinaryTable> after = {
      table({{"a", "1"}, {"b", "2"}, {"united kingdomx", "code"}}, 0),
      table({{"a", "1"}, {"b", "2"}, {"united kingdomy", "code"}}, 1)};
  ASSERT_EQ(after[0].pairs().back().left, before[0].pairs().back().left);
  const CompatibilityGraph warm = score(session, after, pool);
  EXPECT_EQ(session.session_stats().warm_scoring_runs, 0u);

  SynthesisSession fresh(opts);
  const CompatibilityGraph cold = score(fresh, after, pool);
  ASSERT_EQ(cold.num_edges(), 1u);
  EXPECT_EQ(cold.edges()[0].w_pos, 1.0);  // the residue matched
  ASSERT_EQ(warm.num_edges(), cold.num_edges());
  EXPECT_EQ(warm.edges()[0].w_pos, cold.edges()[0].w_pos);
  EXPECT_EQ(warm.edges()[0].w_neg, cold.edges()[0].w_neg);
}

// --------------------------------------------------------- mapping service

TEST(MappingServiceTest, WarmResynthesisReusesUpstreamArtifacts) {
  GeneratedWorld world = SmallWorld(71);
  MappingService service(FastOptions());
  ASSERT_TRUE(service.Synthesize(world.corpus).ok());
  const size_t mappings_before = service.num_mappings();
  ASSERT_GT(mappings_before, 0u);
  EXPECT_EQ(service.session_stats().extract_runs, 1u);
  EXPECT_EQ(service.session_stats().blocking_runs, 1u);
  EXPECT_EQ(service.session_stats().scoring_runs, 1u);

  // Scoring-only change: extraction + blocking artifacts reused.
  SynthesisOptions tweaked = FastOptions();
  tweaked.compat.edit.cap = 5;
  ASSERT_TRUE(service.Resynthesize(tweaked).ok());
  EXPECT_EQ(service.session_stats().extract_runs, 1u);
  EXPECT_EQ(service.session_stats().blocking_runs, 1u);
  EXPECT_EQ(service.session_stats().scoring_runs, 2u);

  // Partition-only change: even scoring is reused.
  SynthesisOptions partition_only = tweaked;
  partition_only.partitioner.tau = -0.1;
  ASSERT_TRUE(service.Resynthesize(partition_only).ok());
  EXPECT_EQ(service.session_stats().scoring_runs, 2u);
  EXPECT_EQ(service.session_stats().partition_runs, 3u);

  // Blocking change: re-blocks but does not re-extract.
  SynthesisOptions blocking_change = partition_only;
  blocking_change.blocking.theta_overlap = 3;
  ASSERT_TRUE(service.Resynthesize(blocking_change).ok());
  EXPECT_EQ(service.session_stats().extract_runs, 1u);
  EXPECT_EQ(service.session_stats().blocking_runs, 2u);
  EXPECT_EQ(service.session_stats().scoring_runs, 3u);

  // Warm results equal a cold service's results under the same options.
  MappingService cold(blocking_change);
  ASSERT_TRUE(cold.Synthesize(world.corpus).ok());
  EXPECT_EQ(cold.num_mappings(), service.num_mappings());
}

TEST(MappingServiceTest, SynonymMutationInvalidatesCachedGraph) {
  // AddSynonym mutates the dictionary behind an unchanged pointer; the
  // cached ScoredGraph was scored under the old classes and must not be
  // reused.
  GeneratedWorld world = SmallWorld(79);
  auto pool_handle = world.corpus.shared_pool();
  SynonymDictionary dict(pool_handle);
  dict.AddSynonym("usa", "united states");

  SynthesisOptions opts = FastOptions();
  opts.compat.synonyms = &dict;
  MappingService service(opts);
  ASSERT_TRUE(service.Synthesize(world.corpus).ok());
  EXPECT_EQ(service.session_stats().scoring_runs, 1u);

  // Identical options object, mutated dictionary: scoring must re-run.
  dict.AddSynonym("uk", "united kingdom");
  ASSERT_TRUE(service.Resynthesize(opts).ok());
  EXPECT_EQ(service.session_stats().scoring_runs, 2u);
  // Blocking is synonym-independent and stays reused.
  EXPECT_EQ(service.session_stats().blocking_runs, 1u);

  // Unchanged dictionary: the graph is reused again.
  ASSERT_TRUE(service.Resynthesize(opts).ok());
  EXPECT_EQ(service.session_stats().scoring_runs, 2u);
}

TEST(MappingServiceTest, ResynthesizeBeforeSynthesizeFails) {
  MappingService service(FastOptions());
  Status st = service.Resynthesize(FastOptions());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(MappingServiceTest, InvalidOptionsNeverBuildAStore) {
  SynthesisOptions bad = FastOptions();
  bad.min_domains = 0;
  MappingService service(bad);
  EXPECT_FALSE(service.status().ok());
  GeneratedWorld world = SmallWorld(73);
  EXPECT_FALSE(service.Synthesize(world.corpus).ok());
  EXPECT_FALSE(service.has_store());
  EXPECT_EQ(service.num_mappings(), 0u);
}

}  // namespace
}  // namespace ms
