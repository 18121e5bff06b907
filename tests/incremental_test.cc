// Lockdown suite for incremental corpus growth (SynthesisSession::
// AppendTables / AppendCorpus, MappingService append entry points).
//
// The core property: for ANY schedule that splits a corpus into k append
// batches (k in 1..5, empty and single-table batches included), growing the
// corpus batch by batch must produce results byte-equivalent to one cold
// rebuild over the whole corpus — same mappings (compared pool-
// independently), same blocked pairs including per-pair count-exactness,
// same graph edges bit-for-bit, same deterministic pipeline counters
// (candidates, pairs, keys, truncation taint, edges, partitions, mappings).
// One carve-out: an append that flips a minority of old coherence verdicts
// re-extracts only the flipped tables, keeping every other candidate id
// stable and parking the re-extractions at tail ids (removals likewise
// leave dead slots). Ids then legitimately differ from a cold run's dense
// table-order assignment, so those schedules map every live candidate to
// its cold id — live ids sorted by (source table, id) — and assert that
// blocked pairs (counts and exactness included), the taint bitmap and every
// graph edge are identical under that map, plus identical canonical
// mappings. This holds with truncation in play: posting lists truncate in
// (source table, id) order, so which postings a hot key keeps does not
// depend on where a re-extraction's ids landed, and Partition() and
// Resolve() take members in that order (ScoredGraph::order), so a later
// re-partition of such a family equals its cold rebuild too. Only a
// majority flip falls back to the internal cold rebuild.
// The randomized differential runs under the ASan+UBSan CI leg like every
// other suite; MS_FUZZ_ITERS deepens it in CI (see .github/workflows/ci.yml).
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/serving.h"
#include "common/random.h"
#include "graph/connected_components.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracles/blocking_reference.h"
#include "persist/corpus_store.h"
#include "persist/snapshot.h"
#include "stats/coherence.h"
#include "stats/inverted_index.h"
#include "synth/blocking.h"
#include "synth/session.h"
#include "table/corpus.h"
#include "table/tsv.h"

namespace ms {
namespace {

size_t FuzzIters(size_t fallback) {
  // MS_FUZZ_ITERS lets CI run the randomized schedules much deeper than a
  // local edit-compile-test loop wants to pay for.
  const char* env = std::getenv("MS_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return fallback;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

/// Coverage floors ("the generator really produced case X") hold at the
/// default depth or deeper: a deeper run replays the default run's
/// iterations first (one Rng, consumed in order), so it only adds cases.
bool AtDefaultDepth(size_t default_iters) {
  return FuzzIters(default_iters) >= default_iters;
}

std::string ScratchPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir ? dir : "/tmp") + "/" + name;
}

// ------------------------------------------------------ corpus construction

/// One corpus table as raw strings, so the identical table sequence can be
/// materialized into several independent TableCorpus objects (cold-rebuild
/// corpora must not share the incremental run's warm pool).
struct TableSpec {
  std::string domain;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> cols;
};

/// Random web-shaped tables over a small shared vocabulary: a ground
/// mapping name_i -> code_(i mod 16) sampled with noise, typos, occasional
/// junk third columns (coherence-filter food), and occasional conflicting
/// rights (conflict-resolution food). Small vocabulary => heavy value
/// co-occurrence => non-trivial blocking, components, and partitions.
std::vector<TableSpec> RandomCorpusSpec(Rng& rng, size_t n_tables) {
  std::vector<std::string> lefts, rights;
  for (size_t i = 0; i < 48; ++i) {
    lefts.push_back("entity name " + std::to_string(i));
    rights.push_back("code" + std::to_string(i % 16));
  }
  std::vector<TableSpec> specs;
  specs.reserve(n_tables);
  for (size_t t = 0; t < n_tables; ++t) {
    TableSpec spec;
    spec.domain = "domain" + std::to_string(rng.Uniform(6)) + ".example";
    const size_t rows = 4 + rng.Uniform(7);
    std::vector<std::string> lcol, rcol;
    std::set<uint64_t> seen;
    while (lcol.size() < rows) {
      const uint64_t li = rng.Uniform(lefts.size());
      if (!seen.insert(li).second) continue;
      std::string l = lefts[li];
      if (rng.Bernoulli(0.15)) {
        l[rng.Uniform(l.size())] =
            static_cast<char>('a' + rng.Uniform(26));  // typo
      }
      std::string r = rights[li];
      if (rng.Bernoulli(0.08)) r = "code" + std::to_string(rng.Uniform(16));
      lcol.push_back(std::move(l));
      rcol.push_back(std::move(r));
    }
    spec.names = {"name", "code"};
    spec.cols = {lcol, rcol};
    if (rng.Bernoulli(0.3)) {
      // Junk column: unique-ish values with low corpus coherence.
      std::vector<std::string> junk;
      for (size_t r = 0; r < rows; ++r) {
        junk.push_back("junk " + std::to_string(t) + "_" +
                       std::to_string(rng.Uniform(1000)));
      }
      spec.names.push_back("notes");
      spec.cols.push_back(std::move(junk));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void AddSpecs(TableCorpus* corpus, const std::vector<TableSpec>& specs,
              size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    corpus->AddFromStrings(specs[i].domain, TableSource::kWeb, specs[i].names,
                           specs[i].cols);
  }
}

// -------------------------------------------------------------- comparison

/// Pool-independent view of one mapping's content. Normalized values are
/// interned concurrently, so two pools built by different runs may order
/// ids differently: pair strings are sorted within the mapping.
std::string MappingKey(const SynthesizedMapping& m, const StringPool& pool) {
  std::multiset<std::string> pairs;
  for (const auto& p : m.merged.pairs()) {
    pairs.insert(std::string(pool.Get(p.left)) + "\x1e" +
                 std::string(pool.Get(p.right)));
  }
  std::string key = m.left_label + "\x1f" + m.right_label + "\x1f" +
                    std::to_string(m.member_tables.size()) + "\x1f" +
                    std::to_string(m.kept_tables.size()) + "\x1f" +
                    std::to_string(m.num_domains) + "\x1f";
  for (const auto& p : pairs) key += p + "\x1f";
  return key;
}

/// Order-independent view of a mapping set: mappings compared as a
/// multiset of their keys.
std::multiset<std::string> Canonical(const SynthesisResult& r,
                                     const StringPool& pool) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) out.insert(MappingKey(m, pool));
  return out;
}

/// The same per-mapping content in result order: the mapping index is
/// served (apps return it, LookupBatch addresses mappings by it), so a
/// maintained family must rank its mappings exactly as its cold rebuild.
std::vector<std::string> InOrder(const SynthesisResult& r,
                                 const StringPool& pool) {
  std::vector<std::string> out;
  for (const auto& m : r.mappings) out.push_back(MappingKey(m, pool));
  return out;
}

void ExpectPairsIdentical(const std::vector<CandidateTablePair>& cold,
                          const std::vector<CandidateTablePair>& inc) {
  ASSERT_EQ(cold.size(), inc.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].a, inc[i].a) << "pair " << i;
    EXPECT_EQ(cold[i].b, inc[i].b) << "pair " << i;
    EXPECT_EQ(cold[i].shared_pairs, inc[i].shared_pairs) << "pair " << i;
    EXPECT_EQ(cold[i].shared_lefts, inc[i].shared_lefts) << "pair " << i;
    EXPECT_EQ(cold[i].counts_exact, inc[i].counts_exact) << "pair " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

/// Maps every live candidate of an incremental family to the id a cold
/// rebuild over the same live tables assigns it: cold ids are dense in
/// (source table, extraction order), and so are live incremental
/// candidates sorted by (source table, id). Dead slots map to UINT32_MAX.
std::vector<uint32_t> ColdIds(const CandidateSet& inc) {
  const std::vector<BinaryTable>& tables = inc.tables();
  std::vector<uint32_t> live;
  for (uint32_t i = 0; i < tables.size(); ++i) {
    if (!inc.is_dead(i)) live.push_back(i);
  }
  std::sort(live.begin(), live.end(), [&](uint32_t x, uint32_t y) {
    return std::tie(tables[x].source_table, x) <
           std::tie(tables[y].source_table, y);
  });
  std::vector<uint32_t> cold(tables.size(), UINT32_MAX);
  for (uint32_t k = 0; k < live.size(); ++k) cold[live[k]] = k;
  return cold;
}

void ExpectEdgesIdentical(const CompatibilityGraph& cold,
                          const CompatibilityGraph& inc) {
  ASSERT_EQ(cold.num_vertices(), inc.num_vertices());
  ASSERT_EQ(cold.num_edges(), inc.num_edges());
  for (size_t e = 0; e < cold.edges().size(); ++e) {
    const auto& ce = cold.edges()[e];
    const auto& ie = inc.edges()[e];
    EXPECT_EQ(ce.u, ie.u) << "edge " << e;
    EXPECT_EQ(ce.v, ie.v) << "edge " << e;
    EXPECT_EQ(ce.w_pos, ie.w_pos) << "edge " << e;  // bitwise: same strings
    EXPECT_EQ(ce.w_neg, ie.w_neg) << "edge " << e;
    if (::testing::Test::HasFailure()) return;
  }
}

/// The deterministic counters a cold rebuild and an append schedule must
/// agree on (timings and cache counters legitimately differ).
void ExpectCountersIdentical(const PipelineStats& cold,
                             const PipelineStats& inc) {
  EXPECT_EQ(cold.candidates, inc.candidates);
  EXPECT_EQ(cold.candidate_pairs, inc.candidate_pairs);
  EXPECT_EQ(cold.blocking_keys, inc.blocking_keys);
  EXPECT_EQ(cold.blocking_dropped_postings, inc.blocking_dropped_postings);
  EXPECT_EQ(cold.blocking_tainted_candidates,
            inc.blocking_tainted_candidates);
  EXPECT_EQ(cold.graph_edges, inc.graph_edges);
  EXPECT_EQ(cold.components, inc.components);
  EXPECT_EQ(cold.partitions, inc.partitions);
  EXPECT_EQ(cold.mappings, inc.mappings);
  EXPECT_EQ(cold.extraction.tables_seen, inc.extraction.tables_seen);
  EXPECT_EQ(cold.extraction.columns_seen, inc.extraction.columns_seen);
  EXPECT_EQ(cold.extraction.columns_kept, inc.extraction.columns_kept);
  EXPECT_EQ(cold.extraction.pairs_considered,
            inc.extraction.pairs_considered);
  EXPECT_EQ(cold.extraction.pairs_kept, inc.extraction.pairs_kept);
}

/// The session's span histograms at one moment: how often each cold stage
/// (`ms_synth_stage_us`) and each mutation step
/// (`ms_synth_mutation_step_us`) was recorded, the steps' summed time and
/// the mutations' (`stage="append"`).
struct SpanCounts {
  static constexpr const char* kStages[] = {"extract", "block", "score",
                                            "partition", "resolve"};
  static constexpr const char* kSteps[] = {"index", "extract",   "block",
                                           "score", "partition", "resolve"};
  uint64_t stage[5] = {};
  uint64_t step[6] = {};
  uint64_t step_us = 0;
  uint64_t append_us = 0;

  static SpanCounts Take() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    SpanCounts c;
    for (size_t i = 0; i < 5; ++i) {
      c.stage[i] = reg.GetHistogram("ms_synth_stage_us", {{"stage", kStages[i]}})
                       ->Snapshot()
                       .TotalCount();
    }
    for (size_t i = 0; i < 6; ++i) {
      const obs::HistogramSnapshot s =
          reg.GetHistogram("ms_synth_mutation_step_us", {{"step", kSteps[i]}})
              ->Snapshot();
      c.step[i] = s.TotalCount();
      c.step_us += s.sum;
    }
    c.append_us =
        reg.GetHistogram("ms_synth_stage_us", {{"stage", "append"}})
            ->Snapshot()
            .sum;
    return c;
  }
};

/// Exactly one mutation ran between `before` and `after`: it recorded every
/// step once (none when it changed nothing), no cold stage, and no more
/// step time than its own.
void ExpectOneMutationOfSpans(const SpanCounts& before,
                              const SpanCounts& after, bool empty) {
  ASSERT_TRUE(obs::TracingEnabled());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(after.stage[i], before.stage[i])
        << "ms_synth_stage_us{stage=" << SpanCounts::kStages[i] << "}";
  }
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(after.step[i], before.step[i] + (empty ? 0 : 1))
        << "ms_synth_mutation_step_us{step=" << SpanCounts::kSteps[i] << "}";
  }
  EXPECT_LE(after.step_us - before.step_us, after.append_us - before.append_us);
}

/// One fully materialized artifact family, chained cold.
struct Family {
  CandidateSet candidates;
  BlockedPairs blocked;
  ScoredGraph scored;
  Partitions partitions;
  SynthesisResult result;
};

/// The id-level oracle for families whose ids moved: under ColdIds, the
/// blocked pairs (counts and per-pair exactness included), the taint
/// bitmap and every graph edge (bitwise) must equal the cold rebuild's.
/// Dead candidates must hold no pair, no taint bit and no edge.
void ExpectIdenticalUnderColdIds(const Family& cold, const Family& inc) {
  const std::vector<uint32_t> id = ColdIds(inc.candidates);
  const size_t n = cold.candidates.tables().size();
  ASSERT_EQ(n, inc.candidates.num_live());

  std::vector<CandidateTablePair> pairs;
  pairs.reserve(inc.blocked.pairs.size());
  for (CandidateTablePair p : inc.blocked.pairs) {
    ASSERT_NE(id[p.a], UINT32_MAX) << "pair on dead candidate " << p.a;
    ASSERT_NE(id[p.b], UINT32_MAX) << "pair on dead candidate " << p.b;
    p.a = id[p.a];
    p.b = id[p.b];
    if (p.a > p.b) std::swap(p.a, p.b);
    pairs.push_back(p);
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  ExpectPairsIdentical(cold.blocked.pairs, pairs);

  std::vector<uint8_t> want(n, 0), got(n, 0);
  for (size_t i = 0; i < cold.blocked.blocking.tainted.size(); ++i) {
    want[i] = cold.blocked.blocking.tainted[i];
  }
  for (size_t i = 0; i < inc.blocked.blocking.tainted.size(); ++i) {
    if (!inc.blocked.blocking.tainted[i]) continue;
    ASSERT_NE(id[i], UINT32_MAX) << "dead candidate " << i << " tainted";
    got[id[i]] = 1;
  }
  EXPECT_EQ(want, got);

  std::vector<CompatEdge> edges;
  for (CompatEdge e : inc.scored.graph.edges()) {
    ASSERT_NE(id[e.u], UINT32_MAX) << "edge on dead candidate " << e.u;
    ASSERT_NE(id[e.v], UINT32_MAX) << "edge on dead candidate " << e.v;
    e.u = id[e.u];
    e.v = id[e.v];
    if (e.u > e.v) std::swap(e.u, e.v);
    edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end(), [](const auto& x, const auto& y) {
    return std::tie(x.u, x.v) < std::tie(y.u, y.v);
  });
  CompatibilityGraph mapped(n);
  for (const CompatEdge& e : edges) mapped.AddEdge(e.u, e.v, e.w_pos, e.w_neg);
  mapped.Finalize();
  ExpectEdgesIdentical(cold.scored.graph, mapped);
}

Family ColdChain(SynthesisSession* session, const TableCorpus& corpus) {
  Family f;
  auto c = session->ExtractCandidates(corpus);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  f.candidates = std::move(c).value();
  auto b = session->BlockPairs(f.candidates);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  f.blocked = std::move(b).value();
  auto g = session->ScorePairs(f.candidates, f.blocked);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  f.scored = std::move(g).value();
  auto p = session->Partition(f.scored);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  f.partitions = std::move(p).value();
  auto r = session->Resolve(f.candidates, f.scored, f.partitions);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  f.result = std::move(r).value();
  return f;
}

/// Test-local member-order oracle: Algorithm 3 over the scopes Partition()
/// uses (each positive component, or the whole graph without
/// divide-and-conquer), members in ascending id rather than in the family's
/// cold order. Where this differs from a cold rebuild, member order matters.
PartitionResult AscendingIdPartition(const CompatibilityGraph& graph,
                                     const SynthesisOptions& o) {
  if (!o.divide_and_conquer) return GreedyPartition(graph, o.partitioner);
  const auto comp = ConnectedComponentsBfs(graph, o.partitioner.theta_edge);
  const auto groups = GroupByComponent(comp);
  std::vector<uint32_t> local_of(graph.num_vertices(), 0);
  for (const auto& members : groups) {
    for (uint32_t i = 0; i < members.size(); ++i) local_of[members[i]] = i;
  }
  PartitionResult out;
  out.partition_of.assign(graph.num_vertices(), 0);
  for (const auto& members : groups) {
    CompatibilityGraph sub(members.size());
    for (const CompatEdge& e : graph.edges()) {
      if (comp[e.u] != comp[members[0]] || comp[e.v] != comp[e.u]) continue;
      sub.AddEdge(local_of[e.u], local_of[e.v], e.w_pos, e.w_neg);
    }
    sub.Finalize();
    const PartitionResult local = GreedyPartition(sub, o.partitioner);
    for (uint32_t i = 0; i < members.size(); ++i) {
      out.partition_of[members[i]] =
          static_cast<uint32_t>(out.num_partitions) + local.partition_of[i];
    }
    out.num_partitions += local.num_partitions;
  }
  return out;
}

/// Resolves `scored` under `partition` instead of the session's own
/// partitioning (lineage taken from a real Partition() of the same graph).
SynthesisResult ResolveUnder(SynthesisSession* session,
                             const CandidateSet& candidates,
                             const ScoredGraph& scored,
                             PartitionResult partition) {
  auto parts = session->Partition(scored);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
  if (!parts.ok()) return {};
  Partitions p = std::move(parts).value();
  p.partition = std::move(partition);
  auto r = session->Resolve(candidates, scored, p);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  return std::move(r).value();
}

SynthesisOptions BaseOptions() {
  SynthesisOptions o;
  o.num_threads = 4;
  o.min_domains = 1;
  o.min_pairs = 1;
  return o;
}

// ------------------------------------------- randomized append schedules

TEST(IncrementalDifferentialTest, RandomAppendSchedulesMatchColdRebuild) {
  const size_t iters = FuzzIters(6);
  Rng rng(20260729);
  size_t stable_appends = 0, fallback_appends = 0, total_appends = 0;
  size_t flip_schedules = 0, flip_truncation_schedules = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    const size_t n_tables = 30 + rng.Uniform(50);
    auto specs = RandomCorpusSpec(rng, n_tables);

    // Random schedule: k batches, boundaries sorted, empties allowed.
    const size_t k = 1 + rng.Uniform(5);
    std::vector<size_t> bounds = {0, n_tables};
    for (size_t i = 1; i < k; ++i) {
      bounds.push_back(rng.Uniform(n_tables + 1));
    }
    std::sort(bounds.begin(), bounds.end());
    // Occasionally make one batch a single table.
    if (k > 1 && rng.Bernoulli(0.3) && bounds[1] < n_tables) {
      bounds[1] = bounds[0] + 1 <= n_tables ? bounds[0] + 1 : bounds[1];
      std::sort(bounds.begin(), bounds.end());
    }

    // Random result-affecting knobs, chosen to exercise truncation taint,
    // both partitioning modes, and both coherence regimes (threshold -1
    // passes every column => appends provably stable; positive thresholds
    // may flip verdicts, re-extracting the flipped tables at tail ids or,
    // on a majority flip, rebuilding internally).
    SynthesisOptions o = BaseOptions();
    const double coh[] = {-1.0, 0.05, 0.15};
    o.extraction.coherence_threshold = coh[rng.Uniform(3)];
    const size_t postings[] = {2, 4, 8, 256};
    o.blocking.max_posting = postings[rng.Uniform(4)];
    o.blocking.theta_overlap = 1 + rng.Uniform(2);
    o.divide_and_conquer = rng.Bernoulli(0.8);
    o.min_domains = 1 + rng.Uniform(2);

    SCOPED_TRACE("iter " + std::to_string(iter) + " tables " +
                 std::to_string(n_tables) + " k " + std::to_string(k) +
                 " coh " + std::to_string(o.extraction.coherence_threshold) +
                 " max_posting " + std::to_string(o.blocking.max_posting) +
                 " dnc " + std::to_string(o.divide_and_conquer));

    // Cold rebuild over the whole corpus.
    TableCorpus cold_corpus;
    AddSpecs(&cold_corpus, specs, 0, n_tables);
    SynthesisSession cold_session(o);
    ASSERT_TRUE(cold_session.status().ok());
    Family cold = ColdChain(&cold_session, cold_corpus);
    ASSERT_FALSE(HasFailure());

    // Incremental: batch 0 cold, every further batch appended.
    TableCorpus inc_corpus;
    AddSpecs(&inc_corpus, specs, 0, bounds[1]);
    SynthesisSession inc_session(o);
    ASSERT_TRUE(inc_session.status().ok());
    Family inc = ColdChain(&inc_session, inc_corpus);
    ASSERT_FALSE(HasFailure());
    size_t appends = 0;
    bool byte_exact = true;
    bool flip_with_truncation = false;
    for (size_t b = 1; b + 1 < bounds.size(); ++b) {
      const size_t base_dropped = inc.blocked.blocking.dropped_postings;
      const SpanCounts spans = SpanCounts::Take();
      Result<AppendedArtifacts> grown = [&] {
        if (rng.Bernoulli(0.5)) {
          // Ingestion shape: the batch arrives as its own corpus.
          TableCorpus delta;
          AddSpecs(&delta, specs, bounds[b], bounds[b + 1]);
          return inc_session.AppendCorpus(&inc_corpus, delta, inc.candidates,
                                          inc.blocked, inc.scored,
                                          inc.partitions, inc.result);
        }
        AddSpecs(&inc_corpus, specs, bounds[b], bounds[b + 1]);
        return inc_session.AppendTables(inc_corpus, bounds[b], inc.candidates,
                                        inc.blocked, inc.scored,
                                        inc.partitions, inc.result);
      }();
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
      // The steps run under their own spans, the fallback's included; the
      // cold stages' series count public stage calls only.
      ExpectOneMutationOfSpans(spans, SpanCounts::Take(),
                               bounds[b] == bounds[b + 1]);
      AppendedArtifacts family = std::move(grown).value();
      ++appends;
      ++total_appends;
      if (family.append.full_rebuild) {
        ++fallback_appends;
      } else {
        ++stable_appends;
      }
      // The internal cold rebuild is reserved for a majority flip: every
      // other mutation, truncated posting lists included, stays on the
      // delta path. Append schedules remove nothing, so the live old
      // tables are exactly the ones before this batch.
      EXPECT_EQ(family.append.full_rebuild,
                family.append.unstable_tables * 2 > bounds[b]);
      // A minority flip served by partial re-extraction keeps old ids
      // stable but parks re-extractions at tail ids: byte identity with a
      // cold run's table-order id assignment is forfeit for the rest of
      // the schedule (the cold-id oracle below takes over).
      const bool partial_flip =
          !family.append.extraction_stable && !family.append.full_rebuild;
      byte_exact = byte_exact && !partial_flip;
      flip_with_truncation =
          flip_with_truncation ||
          (partial_flip &&
           (base_dropped != 0 || family.blocked.blocking.dropped_postings != 0));
      // Coherence threshold -1 passes every column: the kept sets cannot
      // flip, so the delta fast path must have been taken.
      if (o.extraction.coherence_threshold == -1.0) {
        EXPECT_TRUE(family.append.extraction_stable);
        EXPECT_FALSE(family.append.full_rebuild);
      }
      EXPECT_EQ(family.candidates.generation, appends);
      EXPECT_EQ(family.blocked.candidates_id, family.candidates.artifact_id);
      EXPECT_EQ(family.scored.candidates_id, family.candidates.artifact_id);
      EXPECT_EQ(family.partitions.graph_id, family.scored.artifact_id);
      EXPECT_EQ(family.candidates.source_tables, inc_corpus.size());
      inc.candidates = std::move(family.candidates);
      inc.blocked = std::move(family.blocked);
      inc.scored = std::move(family.scored);
      inc.partitions = std::move(family.partitions);
      inc.result = std::move(family.result);
    }

    // --- The differential. Byte identity when every append was stable or
    // internally rebuilt cold; after a partial-flip append only ids moved,
    // so the content-level counters and the canonical mappings carry the
    // oracle comparison.
    if (byte_exact) {
      ExpectPairsIdentical(cold.blocked.pairs, inc.blocked.pairs);
      ExpectEdgesIdentical(cold.scored.graph, inc.scored.graph);
      EXPECT_EQ(cold.blocked.blocking.tainted, inc.blocked.blocking.tainted);
      EXPECT_EQ(cold.partitions.partition.num_partitions,
                inc.partitions.partition.num_partitions);
      ExpectCountersIdentical(cold.result.stats, inc.result.stats);
    } else {
      ++flip_schedules;
      flip_truncation_schedules += flip_with_truncation;
      // Ids moved, but truncation and partitioning follow (source table,
      // id), so blocking, scoring and the counters are identical under the
      // cold-id map.
      ExpectIdenticalUnderColdIds(cold, inc);
      EXPECT_EQ(cold.result.stats.candidates, inc.result.stats.candidates);
      EXPECT_EQ(cold.result.stats.candidate_pairs,
                inc.result.stats.candidate_pairs);
      EXPECT_EQ(cold.result.stats.blocking_dropped_postings,
                inc.result.stats.blocking_dropped_postings);
      EXPECT_EQ(cold.result.stats.blocking_tainted_candidates,
                inc.result.stats.blocking_tainted_candidates);
      EXPECT_EQ(cold.result.stats.graph_edges, inc.result.stats.graph_edges);
      EXPECT_EQ(cold.result.stats.components, inc.result.stats.components);
      EXPECT_EQ(cold.result.stats.partitions, inc.result.stats.partitions);
      EXPECT_EQ(cold.result.stats.mappings, inc.result.stats.mappings);
    }
    EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
              Canonical(inc.result, inc_corpus.pool()));
    // The merged ranking too: after a minority flip the family's cold order
    // is no longer its id order, and carried and fresh mappings must still
    // interleave as the cold rebuild ranks them.
    EXPECT_EQ(InOrder(cold.result, cold_corpus.pool()),
              InOrder(inc.result, inc_corpus.pool()));
    ASSERT_FALSE(HasFailure());
  }
  // The suite must exercise the delta fast path, not just the fallback,
  // and a partial flip on truncated posting lists, where truncation order
  // decides whether the re-extraction's tail ids stay cold-exact.
  EXPECT_GT(stable_appends, 0u)
      << "no append took the fast path across " << total_appends << " appends";
  if (AtDefaultDepth(6)) {
    EXPECT_GT(flip_truncation_schedules, 0u)
        << "no schedule flipped a verdict while posting lists truncated";
    // The majority-flip fallback re-runs the steps from an empty base; no
    // other suite or benchmark workload reaches it.
    EXPECT_GT(fallback_appends, 0u)
        << "no append fell back to a full rebuild across " << total_appends
        << " appends";
  }
  std::printf(
      "append schedules: %zu appends, %zu fast-path, %zu fallback, "
      "%zu flip schedules, %zu with truncation\n",
      total_appends, stable_appends, fallback_appends, flip_schedules,
      flip_truncation_schedules);
}

TEST(IncrementalDifferentialTest, ChainedKeyIndexPatchesMatchReference) {
  // Blocking-level differential for the session's key index: a chain of
  // patches (retirements, appended candidates, and re-extractions whose
  // truncation rank lands among the old candidates') must leave, after
  // every patch, exactly what the reference computes over the mutated set:
  // the base pairs spliced with the changed rows (counts and per-pair
  // exactness included), the taint bitmap, the key count and the dropped
  // postings. The fixture must really displace old postings from kept
  // prefixes and resurrect dropped ones.
  const size_t iters = FuzzIters(8) * 4;
  Rng rng(77);
  ThreadPool pool(4);
  size_t displaced = 0, resurrected = 0, patches = 0;
  const auto make_candidate = [&](uint32_t id) {
    std::vector<ValuePair> pairs;
    const size_t rows = 2 + rng.Uniform(8);
    for (size_t r = 0; r < rows; ++r) {
      pairs.push_back({static_cast<ValueId>(rng.Uniform(24)),
                       static_cast<ValueId>(24 + rng.Uniform(12))});
    }
    BinaryTable t = BinaryTable::FromPairs(std::move(pairs));
    t.id = id;
    return t;
  };
  for (size_t iter = 0; iter < iters; ++iter) {
    BlockingOptions options;
    options.theta_overlap = 1 + rng.Uniform(2);
    const size_t postings[] = {2, 3, 5, 256};
    options.max_posting = postings[rng.Uniform(4)];
    // Truncation order: 0 id order (new candidates rank last); 1 source
    // tables, two candidates per table, new ones on new tables; 2 as 1, but
    // a new candidate may re-extract an old table and rank among old ones.
    const uint64_t shape = rng.Uniform(3);
    ThreadPool* threads = rng.Bernoulli(0.5) ? &pool : nullptr;
    std::vector<BinaryTable> candidates;
    std::vector<uint32_t> source;
    const size_t n0 = rng.Uniform(60);
    for (uint32_t i = 0; i < n0; ++i) {
      candidates.push_back(make_candidate(i));
      source.push_back(i / 2);
    }
    uint32_t next_table = static_cast<uint32_t>(n0 / 2 + 1);
    std::vector<uint32_t> order = shape == 0 ? std::vector<uint32_t>{} : source;
    BlockingKeyIndex index;
    index.Build(candidates, options.max_posting, order);
    std::vector<CandidateTablePair> pairs =
        GenerateCandidatePairsReference(candidates, options, nullptr, order);
    ExpectPairsIdentical(pairs,
                         index.CountRows(options.theta_overlap, threads));

    const size_t steps = 1 + rng.Uniform(5);
    for (size_t step = 0; step < steps; ++step) {
      std::vector<uint8_t> retired(candidates.size(), 0);
      for (uint32_t i = 0; i < candidates.size(); ++i) {
        if (!candidates[i].pairs().empty() && rng.Bernoulli(0.2)) {
          retired[i] = 1;
          BinaryTable shell = BinaryTable::FromPairs({});
          shell.id = i;
          candidates[i] = std::move(shell);
        }
      }
      const size_t added = rng.Uniform(9);
      for (size_t k = 0; k < added; ++k) {
        candidates.push_back(
            make_candidate(static_cast<uint32_t>(candidates.size())));
        source.push_back(shape == 2 && rng.Bernoulli(0.5)
                             ? static_cast<uint32_t>(rng.Uniform(next_table))
                             : next_table++);
      }
      if (shape != 0) order = source;
      SCOPED_TRACE("iter " + std::to_string(iter) + " step " +
                   std::to_string(step) + " shape " + std::to_string(shape) +
                   " max_posting " + std::to_string(options.max_posting) +
                   " theta " + std::to_string(options.theta_overlap));

      const BlockingKeyIndex::Change change =
          index.Patch(candidates, retired, order);
      ++patches;
      displaced += change.displaced;
      resurrected += change.resurrected;
      std::vector<uint8_t> changed(candidates.size(), 0);
      for (uint32_t id : change.changed) changed[id] = 1;
      for (uint32_t id = 0; id < retired.size(); ++id) {
        EXPECT_TRUE(!retired[id] || changed[id]) << id;
      }
      for (size_t id = candidates.size() - added; id < candidates.size();
           ++id) {
        EXPECT_TRUE(changed[id]) << id;
      }
      const std::vector<CandidateTablePair> rows = index.CountRows(
          options.theta_overlap, threads, &change.changed);
      std::vector<CandidateTablePair> fresh;
      const std::vector<CandidateTablePair> spliced =
          SpliceChangedRows(pairs, changed, rows, &fresh);

      BlockingStats want;
      const std::vector<CandidateTablePair> reference =
          GenerateCandidatePairsReference(candidates, options, nullptr, order,
                                          &want);
      ExpectPairsIdentical(reference, spliced);
      std::vector<CandidateTablePair> want_fresh;
      std::set_difference(
          reference.begin(), reference.end(), pairs.begin(), pairs.end(),
          std::back_inserter(want_fresh), [](const auto& x, const auto& y) {
            return std::tie(x.a, x.b) < std::tie(y.a, y.b);
          });
      ExpectPairsIdentical(want_fresh, fresh);
      BlockingStats got;
      index.FillStats(&got);
      EXPECT_EQ(want.keys, got.keys);
      EXPECT_EQ(want.dropped_postings, got.dropped_postings);
      EXPECT_EQ(want.tainted_candidates, got.tainted_candidates);
      EXPECT_EQ(want.exact_counts, got.exact_counts);
      EXPECT_EQ(want.tainted, got.tainted);
      // The patched index as a whole, not just the recounted rows.
      ExpectPairsIdentical(reference,
                           index.CountRows(options.theta_overlap, threads));
      ASSERT_FALSE(HasFailure());
      pairs = spliced;
    }
  }
  if (AtDefaultDepth(8)) {
    EXPECT_GT(displaced, 0u) << "no patch displaced a kept posting";
    EXPECT_GT(resurrected, 0u) << "no patch resurrected a dropped posting";
  }
  std::printf(
      "key index patches: %zu patches, %zu displaced and %zu resurrected "
      "postings\n",
      patches, displaced, resurrected);
}

// ------------------------------------------- randomized mutation schedules

TEST(IncrementalDifferentialTest, RandomMutationSchedulesMatchColdRebuild) {
  // PR 10 tentpole lockdown: arbitrary schedules mixing appends, removals,
  // and replacements (empty batches, empty removal sets, and full-corpus
  // wipes included) must end up serving exactly the mappings a cold
  // rebuild over the surviving tables serves. Removals tombstone corpus
  // slots in place — ids stay stable by design — so candidate ids can
  // never match a cold run's dense table-order assignment; the oracle maps
  // every live candidate to its cold id (ExpectIdenticalUnderColdIds) and
  // compares blocked pairs, taint and edges under that map, plus canonical
  // mappings and the content-determined counters. Small max_posting caps
  // make posting lists truncate; truncation follows (source table, id), so
  // the dropped postings and tainted candidates must match the cold run's
  // at every step too.
  const size_t iters = FuzzIters(6);
  Rng rng(20260808);
  size_t appends = 0, removes = 0, replaces = 0, wipes = 0;
  size_t truncated_steps = 0, flip_steps = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    const size_t n_specs = 30 + rng.Uniform(40);
    auto specs = RandomCorpusSpec(rng, n_specs);
    SynthesisOptions o = BaseOptions();
    const double coh[] = {-1.0, 0.05, 0.15};
    o.extraction.coherence_threshold = coh[rng.Uniform(3)];
    const size_t postings[] = {2, 4, 8, 256};
    o.blocking.max_posting = postings[rng.Uniform(4)];
    o.blocking.theta_overlap = 1 + rng.Uniform(2);
    o.divide_and_conquer = rng.Bernoulli(0.8);
    o.min_domains = 1 + rng.Uniform(2);

    const size_t base_n = 1 + rng.Uniform(n_specs / 2);
    SCOPED_TRACE("iter " + std::to_string(iter) + " specs " +
                 std::to_string(n_specs) + " base " + std::to_string(base_n) +
                 " coh " + std::to_string(o.extraction.coherence_threshold) +
                 " max_posting " + std::to_string(o.blocking.max_posting) +
                 " theta " + std::to_string(o.blocking.theta_overlap) +
                 " dnc " + std::to_string(o.divide_and_conquer));

    // Incremental run state: which spec occupies which corpus slot, and
    // which slots still hold a live table.
    TableCorpus inc_corpus;
    AddSpecs(&inc_corpus, specs, 0, base_n);
    std::vector<size_t> slot_spec;
    std::vector<uint8_t> live;
    for (size_t i = 0; i < base_n; ++i) {
      slot_spec.push_back(i);
      live.push_back(1);
    }
    size_t next_spec = base_n;

    SynthesisSession inc_session(o);
    ASSERT_TRUE(inc_session.status().ok());
    Family inc = ColdChain(&inc_session, inc_corpus);
    ASSERT_FALSE(HasFailure());

    const size_t steps = 2 + rng.Uniform(4);
    size_t gen = 0;
    size_t total_removed = 0;
    for (size_t s = 0; s < steps; ++s) {
      const uint64_t op = rng.Uniform(3);  // 0 append, 1 remove, 2 replace
      std::vector<uint32_t> removed;
      if (op != 0) {
        const bool wipe = rng.Bernoulli(0.1);
        if (wipe) ++wipes;
        for (size_t slot = 0; slot < live.size(); ++slot) {
          if (live[slot] && (wipe || rng.Bernoulli(0.3))) {
            removed.push_back(static_cast<uint32_t>(slot));
          }
        }
      }
      size_t batch = 0;
      if (op != 1 && next_spec < n_specs) {
        batch = std::min<size_t>(rng.Uniform(9), n_specs - next_spec);
      }
      size_t live_before = 0;
      for (uint8_t l : live) live_before += l;
      Result<AppendedArtifacts> grown = [&] {
        if (op == 0) {
          ++appends;
          const size_t first_new = inc_corpus.size();
          AddSpecs(&inc_corpus, specs, next_spec, next_spec + batch);
          return inc_session.AppendTables(inc_corpus, first_new,
                                          inc.candidates, inc.blocked,
                                          inc.scored, inc.partitions,
                                          inc.result);
        }
        if (op == 1) {
          ++removes;
          return inc_session.RemoveTables(&inc_corpus, removed,
                                          inc.candidates, inc.blocked,
                                          inc.scored, inc.partitions,
                                          inc.result);
        }
        ++replaces;
        TableCorpus delta;
        AddSpecs(&delta, specs, next_spec, next_spec + batch);
        return inc_session.ReplaceTables(&inc_corpus, removed, delta,
                                         inc.candidates, inc.blocked,
                                         inc.scored, inc.partitions,
                                         inc.result);
      }();
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
      AppendedArtifacts family = std::move(grown).value();
      for (uint32_t slot : removed) live[slot] = 0;
      for (size_t i = 0; i < batch; ++i) {
        slot_spec.push_back(next_spec + i);
        live.push_back(1);
      }
      if (op != 1) next_spec += batch;
      total_removed += removed.size();
      ++gen;
      EXPECT_EQ(family.candidates.generation, gen);
      EXPECT_EQ(family.candidates.source_tables, inc_corpus.size());
      // Tombstone provenance accumulates exactly the removed slots (the
      // schedule never re-removes a dead slot, so no dedup is in play).
      EXPECT_EQ(family.candidates.tombstoned_tables.size(), total_removed);
      EXPECT_EQ(family.append.appended_tables, batch);
      EXPECT_EQ(family.append.removed_tables, removed.size());
      // Only a majority flip of the surviving old tables rebuilds.
      EXPECT_EQ(family.append.full_rebuild,
                family.append.unstable_tables * 2 >
                    live_before - removed.size());
      flip_steps += family.append.unstable_tables > 0;
      EXPECT_EQ(family.blocked.candidates_id, family.candidates.artifact_id);
      EXPECT_EQ(family.scored.candidates_id, family.candidates.artifact_id);
      EXPECT_EQ(family.partitions.graph_id, family.scored.artifact_id);
      inc.candidates = std::move(family.candidates);
      inc.blocked = std::move(family.blocked);
      inc.scored = std::move(family.scored);
      inc.partitions = std::move(family.partitions);
      inc.result = std::move(family.result);
      ASSERT_FALSE(HasFailure());

      // Cold oracle after EVERY step — only the surviving tables, in slot
      // order. Checking per step rather than once at the end pins any
      // divergence to the exact mutation that introduced it (the
      // incremental family is an induction: each step's output must equal
      // that step's cold rebuild or every later step inherits the drift).
      SCOPED_TRACE("step " + std::to_string(s) + " op " + std::to_string(op) +
                   " batch " + std::to_string(batch) + " removed " +
                   std::to_string(removed.size()));
      TableCorpus cold_corpus;
      for (size_t slot = 0; slot < slot_spec.size(); ++slot) {
        if (live[slot]) {
          AddSpecs(&cold_corpus, specs, slot_spec[slot], slot_spec[slot] + 1);
        }
      }
      SynthesisSession cold_session(o);
      ASSERT_TRUE(cold_session.status().ok());
      Family cold = ColdChain(&cold_session, cold_corpus);
      ASSERT_FALSE(HasFailure());

      truncated_steps += cold.blocked.blocking.dropped_postings != 0;
      EXPECT_EQ(cold.blocked.blocking.keys, inc.blocked.blocking.keys);
      EXPECT_EQ(cold.result.stats.blocking_keys,
                inc.result.stats.blocking_keys);
      EXPECT_EQ(cold.blocked.blocking.dropped_postings,
                inc.blocked.blocking.dropped_postings);
      EXPECT_EQ(cold.blocked.blocking.tainted_candidates,
                inc.blocked.blocking.tainted_candidates);
      ExpectIdenticalUnderColdIds(cold, inc);
      EXPECT_EQ(cold.result.stats.candidates, inc.result.stats.candidates);
      EXPECT_EQ(cold.blocked.pairs.size(), inc.blocked.pairs.size());
      EXPECT_EQ(cold.result.stats.graph_edges, inc.result.stats.graph_edges);
      EXPECT_EQ(cold.result.stats.mappings, inc.result.stats.mappings);
      EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
                Canonical(inc.result, inc_corpus.pool()));
      EXPECT_EQ(InOrder(cold.result, cold_corpus.pool()),
                InOrder(inc.result, inc_corpus.pool()));
      ASSERT_FALSE(HasFailure());
    }
  }
  EXPECT_GT(removes + replaces, 0u)
      << "the schedule generator produced no shrinking mutations";
  if (AtDefaultDepth(6)) {
    EXPECT_GT(truncated_steps, 0u)
        << "no mutation step ran with truncated posting lists";
  }
  std::printf(
      "mutation schedules: %zu appends, %zu removes, %zu replaces, "
      "%zu wipes, %zu truncated steps, %zu flip steps\n",
      appends, removes, replaces, wipes, truncated_steps, flip_steps);
}

TEST(IncrementalDifferentialTest, RemovalsKeepTheColdBlockingKeyCount) {
  // A removal must drop the keys only the retired candidates held, also
  // when no posting list truncated: the persisted key count equals a cold
  // rebuild's over the survivors.
  Rng rng(20261019);
  const size_t iters = FuzzIters(40);
  size_t merged_removals = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const auto specs = RandomCorpusSpec(rng, 40);
    SynthesisOptions o = BaseOptions();
    TableCorpus inc_corpus;
    AddSpecs(&inc_corpus, specs, 0, specs.size());
    SynthesisSession session(o);
    ASSERT_TRUE(session.status().ok());
    Family base = ColdChain(&session, inc_corpus);
    ASSERT_FALSE(HasFailure());

    std::vector<uint32_t> removed;
    std::vector<uint8_t> live(specs.size(), 1);
    for (uint32_t slot = 0; slot < specs.size(); ++slot) {
      if (rng.Bernoulli(0.3)) {
        removed.push_back(slot);
        live[slot] = 0;
      }
    }
    auto shrunk = session.RemoveTables(&inc_corpus, removed, base.candidates,
                                       base.blocked, base.scored,
                                       base.partitions, base.result);
    ASSERT_TRUE(shrunk.ok()) << shrunk.status().ToString();
    const AppendedArtifacts& inc = shrunk.value();
    merged_removals += base.blocked.blocking.dropped_postings == 0 &&
                       !inc.append.full_rebuild;

    TableCorpus cold_corpus;
    for (size_t slot = 0; slot < specs.size(); ++slot) {
      if (live[slot]) AddSpecs(&cold_corpus, specs, slot, slot + 1);
    }
    SynthesisSession cold_session(o);
    Family cold = ColdChain(&cold_session, cold_corpus);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(cold.blocked.blocking.keys, inc.blocked.blocking.keys);
    EXPECT_EQ(cold.result.stats.blocking_keys,
              inc.result.stats.blocking_keys);
  }
  if (AtDefaultDepth(40)) {
    EXPECT_GT(merged_removals, 0u);
  }
}

// ------------------------------------------------- coherence count cache

/// Tables of two or three columns over one skewed vocabulary. One in six is
/// far wider than 64 distinct values, so every sampling cap from 2 to 64
/// samples some column and caps past 32 split the count kernel into
/// blocks; the rest are short. Tail values sit in one to three columns, so
/// appends and removals lift some over min_value_support and drop others
/// under it.
std::vector<TableSpec> CoherenceCacheSpec(Rng& rng, size_t n_tables) {
  std::vector<TableSpec> specs;
  specs.reserve(n_tables);
  for (size_t t = 0; t < n_tables; ++t) {
    TableSpec spec;
    spec.domain = "site" + std::to_string(rng.Uniform(5)) + ".example";
    const bool wide = rng.Uniform(6) == 0;
    const size_t rows = wide ? 70 + rng.Uniform(50) : 2 + rng.Uniform(12);
    const size_t n_cols = 2 + rng.Uniform(2);
    for (size_t c = 0; c < n_cols; ++c) {
      spec.names.push_back("c" + std::to_string(c));
      std::vector<std::string> col;
      for (size_t r = 0; r < rows; ++r) {
        const uint64_t v = rng.Bernoulli(0.6) ? rng.Uniform(1 + rng.Uniform(30))
                                              : 30 + rng.Uniform(600);
        col.push_back("value " + std::to_string(v));
      }
      spec.cols.push_back(std::move(col));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The sample ColumnCoherence scores: distinct values, then a seeded
/// shuffle's first max_sampled_values of them.
std::vector<ValueId> SampledValues(const std::vector<ValueId>& cells,
                                   const CoherenceOptions& opts) {
  std::vector<ValueId> sample = cells;
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  if (sample.size() > opts.max_sampled_values) {
    Rng rng(opts.sample_seed);
    rng.Shuffle(sample);
    sample.resize(opts.max_sampled_values);
  }
  return sample;
}

bool SameBits(const CoherenceProfile& a, const CoherenceProfile& b) {
  return std::bit_cast<uint64_t>(a.score) == std::bit_cast<uint64_t>(b.score) &&
         std::bit_cast<uint64_t>(a.sum_pos) ==
             std::bit_cast<uint64_t>(b.sum_pos) &&
         a.pairs == b.pairs && a.sup_pos == b.sup_pos &&
         a.sup_zero == b.sup_zero && a.b_max == b.b_max &&
         a.n_eval == b.n_eval;
}

struct CacheTally {
  size_t rescored = 0;  ///< re-checked columns, profile checked bitwise
  size_t skipped = 0;   ///< margin-skipped columns, verdict checked
  /// Columns re-scored from cached counts while one of their sampled values
  /// rose to (up) or fell below (down) min_value_support.
  size_t crossed_up = 0;
  size_t crossed_down = 0;
};

/// The count cache's oracle over a fresh index of `corpus`. Every count of
/// every width-passed column equals CoOccurrence of its sampled pair. A
/// column re-checked this mutation (its profile evaluated at today's N)
/// carries ColumnCoherence's profile bit for bit; a margin-skipped one
/// carries an older profile whose verdict is still today's, and may hold
/// no counts (an empty slice, counted in `absent`) when its base held
/// none. When `before` indexes the corpus before the mutation and the
/// mutation re-scored every re-checked column from cached counts, the old
/// tables' re-scored columns whose sample crossed the support floor are
/// tallied.
void ExpectCacheMatchesFreshIndex(const CandidateSet& c,
                                  const TableCorpus& corpus,
                                  const ExtractionOptions& o,
                                  const ColumnInvertedIndex* before,
                                  size_t old_tables, CacheTally* tally,
                                  size_t* absent = nullptr) {
  ColumnInvertedIndex fresh;
  fresh.Build(corpus);
  const size_t n = fresh.num_columns();
  const CoherenceOptions& opts = o.coherence;
  ASSERT_EQ(c.margin_offsets.size(), corpus.size() + 1);
  ASSERT_EQ(c.count_offsets.size(), c.margins.size() + 1);
  ASSERT_EQ(c.count_offsets.back(), c.counts.size());
  EXPECT_EQ(c.counted_under, opts);
  if (absent != nullptr) *absent = 0;
  for (size_t ti = 0; ti < corpus.size(); ++ti) {
    const Table& t = corpus.table(ti);
    const bool width_passed =
        t.num_columns() >= 2 && t.num_columns() <= o.max_columns;
    ASSERT_EQ(c.margin_offsets[ti + 1] - c.margin_offsets[ti],
              width_passed ? t.num_columns() : 0u)
        << "table " << ti;
    if (!width_passed) continue;
    for (size_t col = 0; col < t.num_columns(); ++col) {
      const std::string ctx =
          "table " + std::to_string(ti) + " column " + std::to_string(col);
      const size_t k = c.margin_offsets[ti] + col;
      const std::vector<ValueId>& cells = t.columns[col].cells;
      const std::vector<ValueId> sample = SampledValues(cells, opts);
      const size_t m = sample.size();
      const uint32_t* counts = c.counts.data() + c.count_offsets[k];
      const size_t slice = c.count_offsets[k + 1] - c.count_offsets[k];
      const CoherenceProfile& got = c.margins[k];
      if (slice == 0 && m >= 2) {
        // Only a margin skip leaves a column without counts.
        ASSERT_NE(got.n_eval, n) << ctx << " re-checked without counts";
        ASSERT_NE(absent, nullptr) << ctx << " has no counts";
        ++*absent;
      } else {
        ASSERT_EQ(slice, m < 2 ? 0 : m * (m - 1) / 2) << ctx;
      }
      for (size_t i = 1; slice > 0 && i < m; ++i) {
        for (size_t j = 0; j < i; ++j) {
          ASSERT_EQ(counts[i * (i - 1) / 2 + j],
                    fresh.CoOccurrence(sample[j], sample[i]))
              << ctx << " pair " << j << ", " << i;
        }
      }
      CoherenceProfile want;
      ColumnCoherence(fresh, cells, opts, &want);
      if (got.n_eval == n) {
        ++tally->rescored;
        EXPECT_TRUE(SameBits(got, want)) << ctx;
      } else {
        ++tally->skipped;
        EXPECT_EQ(got.score >= o.coherence_threshold,
                  want.score >= o.coherence_threshold)
            << ctx;
      }
      if (before == nullptr || ti >= old_tables || got.n_eval != n) continue;
      bool up = false, down = false;
      for (ValueId v : sample) {
        const bool was = before->ColumnFrequency(v) >= opts.min_value_support;
        const bool is = fresh.ColumnFrequency(v) >= opts.min_value_support;
        up = up || (!was && is);
        down = down || (was && !is);
      }
      tally->crossed_up += up;
      tally->crossed_down += down;
    }
  }
}

TEST(IncrementalDifferentialTest, CoherenceCacheMatchesFreshEvaluation) {
  // Random append/remove/replace schedules under every sampling cap from
  // 2 to 64 and support floors of 1 to 3. After every step each cached
  // count, each re-checked profile and each margin-skipped verdict must be
  // what a fresh index of the mutated corpus gives. Some schedules restore
  // their family from a snapshot (which holds no counts) and mutate it
  // twice; some move the sampling options, or only the support floor,
  // between two mutations.
  const size_t iters = FuzzIters(10);
  Rng rng(20261020);
  const size_t caps[] = {2, 3, 32, 33, 64};
  const std::string snap = ScratchPath("incremental_coherence_cache.mssnap");
  CacheTally tally;
  size_t cached = 0, full_walks = 0, fallbacks = 0, restores = 0;
  size_t resampled = 0, resupported = 0, restored_skips = 0;
  for (size_t iter = 0; iter < iters; ++iter) {
    const size_t n_specs = 40 + rng.Uniform(30);
    const auto specs = CoherenceCacheSpec(rng, n_specs);
    SynthesisOptions o = BaseOptions();
    o.num_threads = 1 + rng.Uniform(4);
    const double coh[] = {0.0, 0.05, 0.2};
    o.extraction.coherence_threshold = coh[rng.Uniform(3)];
    o.extraction.coherence.max_sampled_values = caps[iter % 5];
    o.extraction.coherence.min_value_support = 1 + rng.Uniform(3);
    o.extraction.coherence.sample_seed = rng.Uniform(1000);
    // One event per schedule, at a random step: a save and restore before
    // it, new sampling (a new seed) or a new support floor.
    const uint64_t event = rng.Uniform(4);  // 0 none, 1-3 as listed
    const size_t steps = 3 + rng.Uniform(3);
    const size_t event_step = rng.Uniform(steps - 1);
    const size_t base_n = 10 + rng.Uniform(n_specs / 2);
    SCOPED_TRACE("iter " + std::to_string(iter) + " cap " +
                 std::to_string(o.extraction.coherence.max_sampled_values) +
                 " support " +
                 std::to_string(o.extraction.coherence.min_value_support) +
                 " coh " + std::to_string(o.extraction.coherence_threshold) +
                 " event " + std::to_string(event) + " at " +
                 std::to_string(event_step));

    TableCorpus corpus;
    AddSpecs(&corpus, specs, 0, base_n);
    std::vector<uint8_t> live(base_n, 1);
    size_t next_spec = base_n;
    SynthesisSession session(o);
    ASSERT_TRUE(session.status().ok());
    Family inc = ColdChain(&session, corpus);
    ASSERT_FALSE(HasFailure());
    {
      CacheTally cold_tally;
      ExpectCacheMatchesFreshIndex(inc.candidates, corpus, o.extraction,
                                   nullptr, 0, &cold_tally);
      EXPECT_EQ(cold_tally.skipped, 0u);
    }
    ASSERT_FALSE(HasFailure());
    // Whether the family's counts serve the session's sampling, how many
    // of its columns hold none, and whether its margins serve its options:
    // the path every re-check must take.
    bool counts_usable = true;
    size_t absent = 0;
    bool margins_usable = true;
    bool just_restored = false;
    SessionSnapshot restored;
    for (size_t s = 0; s < steps; ++s) {
      if (s == event_step && event == 1) {
        ++restores;
        ASSERT_TRUE(session
                        .SaveSnapshot(snap, inc.candidates, &inc.blocked,
                                      &inc.scored, &inc.result)
                        .ok());
        auto r = session.RestoreSnapshot(snap);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::remove(snap.c_str());
        restored = std::move(r).value();
        ASSERT_TRUE(restored.blocked && restored.scored &&
                    restored.has_result);
        EXPECT_TRUE(restored.candidates->counts.empty());
        auto parts = session.Partition(*restored.scored);
        ASSERT_TRUE(parts.ok()) << parts.status().ToString();
        inc.candidates = *restored.candidates;
        inc.blocked = *restored.blocked;
        inc.scored = *restored.scored;
        inc.partitions = std::move(parts).value();
        inc.result = restored.result;
        counts_usable = false;
        just_restored = true;
      } else if (s == event_step && event == 2) {
        ++resampled;
        o.extraction.coherence.sample_seed += 1;
        ASSERT_TRUE(session.UpdateOptions(o).ok());
        counts_usable = margins_usable = false;
      } else if (s == event_step && event == 3) {
        ++resupported;
        o.extraction.coherence.min_value_support =
            1 + o.extraction.coherence.min_value_support % 3;
        ASSERT_TRUE(session.UpdateOptions(o).ok());
        margins_usable = false;
      }

      const uint64_t op = rng.Uniform(3);  // 0 append, 1 remove, 2 replace
      std::vector<uint32_t> removed;
      for (size_t slot = 0; op != 0 && slot < live.size(); ++slot) {
        if (live[slot] && rng.Bernoulli(0.25)) {
          removed.push_back(static_cast<uint32_t>(slot));
        }
      }
      size_t batch = 0;
      if (op != 1 && next_spec < n_specs) {
        batch = std::min<size_t>(1 + rng.Uniform(8), n_specs - next_spec);
      }
      ColumnInvertedIndex before;
      before.Build(corpus);
      const size_t old_tables = corpus.size();
      Result<AppendedArtifacts> grown = [&] {
        TableCorpus delta;
        AddSpecs(&delta, specs, next_spec, next_spec + batch);
        if (op == 0) {
          return session.AppendCorpus(&corpus, delta, inc.candidates,
                                      inc.blocked, inc.scored,
                                      inc.partitions, inc.result);
        }
        if (op == 1) {
          return session.RemoveTables(&corpus, removed, inc.candidates,
                                      inc.blocked, inc.scored,
                                      inc.partitions, inc.result);
        }
        return session.ReplaceTables(&corpus, removed, delta, inc.candidates,
                                     inc.blocked, inc.scored, inc.partitions,
                                     inc.result);
      }();
      ASSERT_TRUE(grown.ok()) << grown.status().ToString();
      AppendedArtifacts family = std::move(grown).value();
      for (uint32_t slot : removed) live[slot] = 0;
      live.resize(live.size() + batch, 1);
      next_spec += batch;
      SCOPED_TRACE("step " + std::to_string(s) + " op " + std::to_string(op) +
                   " batch " + std::to_string(batch) + " removed " +
                   std::to_string(removed.size()));

      // The path each re-check took: cached counts whenever the base has
      // them under this sampling, a full walk otherwise, and a margin skip
      // only with margins usable. A restored family's margins serve.
      const AppendStats& a = family.append;
      if (batch > 0 || !removed.empty()) {
        if (!counts_usable) {
          EXPECT_EQ(a.cached_rechecks, 0u);
        } else if (absent == 0) {
          EXPECT_EQ(a.cached_rechecks, a.margin_rechecks);
        }
        if (!margins_usable) {
          EXPECT_EQ(a.margin_skips, 0u);
        }
      }
      if (just_restored) restored_skips += a.margin_skips;
      cached += a.cached_rechecks;
      full_walks += a.margin_rechecks - a.cached_rechecks;
      fallbacks += a.full_rebuild;
      // A majority flip re-extracts from an empty base: no old table keeps
      // its profile, so none is tallied as a cached re-score.
      const bool all_cached = a.margin_rechecks > 0 &&
                              a.cached_rechecks == a.margin_rechecks &&
                              !a.full_rebuild;
      ExpectCacheMatchesFreshIndex(family.candidates, corpus, o.extraction,
                                   all_cached ? &before : nullptr,
                                   old_tables, &tally, &absent);
      ASSERT_FALSE(HasFailure());
      inc.candidates = std::move(family.candidates);
      inc.blocked = std::move(family.blocked);
      inc.scored = std::move(family.scored);
      inc.partitions = std::move(family.partitions);
      inc.result = std::move(family.result);
      counts_usable = margins_usable = true;
      just_restored = false;
    }

    // The schedule's end state is the cold rebuild's under the final
    // options. The rebuild reads the same corpus, shells and all: a sample
    // of more than max_sampled_values distinct values follows ValueId
    // order, so a corpus interned afresh could sample other values.
    SynthesisSession cold_session(o);
    Family cold = ColdChain(&cold_session, corpus);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(Canonical(cold.result, corpus.pool()),
              Canonical(inc.result, corpus.pool()));
    ASSERT_FALSE(HasFailure());
  }
  if (AtDefaultDepth(10)) {
    EXPECT_GT(cached, 0u) << "no re-check read cached counts";
    EXPECT_GT(full_walks, 0u) << "no re-check walked the index in full";
    EXPECT_GT(tally.crossed_up, 0u)
        << "no cached re-score saw a sampled value rise to the support floor";
    EXPECT_GT(tally.crossed_down, 0u)
        << "no cached re-score saw a sampled value fall below the floor";
    EXPECT_GT(restores + resampled + resupported, 0u);
  }
  std::printf(
      "coherence cache: %zu cached re-scores, %zu full walks, %zu profiles "
      "checked bitwise, %zu margin skips, %zu/%zu support crossings up/down, "
      "%zu fallbacks, %zu restores (%zu margin skips right after one), "
      "%zu resampled, %zu resupported\n",
      cached, full_walks, tally.rescored, tally.skipped, tally.crossed_up,
      tally.crossed_down, fallbacks, restores, restored_skips, resampled,
      resupported);
}

/// Tables of one site each, drawing every value from that site's own
/// vocabulary, as on a sharded-vocabulary corpus: a mutation confined to
/// some sites leaves every other site's columns, and their counts, as
/// they were.
TableSpec SiteTable(Rng& rng, size_t site) {
  TableSpec spec;
  spec.domain = "site" + std::to_string(site) + ".example";
  const size_t rows = 4 + rng.Uniform(8);
  for (size_t c = 0; c < 2 + rng.Uniform(2); ++c) {
    spec.names.push_back("c" + std::to_string(c));
    std::vector<std::string> col;
    for (size_t r = 0; r < rows; ++r) {
      col.push_back("s" + std::to_string(site) + " " + std::to_string(c) +
                    " " + std::to_string(rng.Uniform(12)));
    }
    spec.cols.push_back(std::move(col));
  }
  return spec;
}

TEST(IncrementalDifferentialTest, RestoredFamilyKeepsTheMarginSkip) {
  // A snapshot holds margins but no counts. The first mutation of the
  // restored family must still settle the columns it did not touch by
  // the margin skip, walk the rest in full, and leave the skipped columns
  // without counts; a later mutation touching those walks them in full
  // once, and then re-scores from counts again. Each step must equal a
  // fresh evaluation and a cold rebuild.
  Rng rng(41);
  SynthesisOptions o = BaseOptions();
  o.extraction.coherence_threshold = 0.05;
  std::vector<TableSpec> specs;
  for (size_t t = 0; t < 48; ++t) specs.push_back(SiteTable(rng, t % 6));
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  const std::string snap = ScratchPath("incremental_restored_skip.mssnap");
  SynthesisSession session(o);
  Family inc = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_TRUE(session
                  .SaveSnapshot(snap, inc.candidates, &inc.blocked,
                                &inc.scored, &inc.result)
                  .ok());
  SynthesisSession restarted(o);
  auto r = restarted.RestoreSnapshot(snap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::remove(snap.c_str());
  SessionSnapshot restored = std::move(r).value();
  ASSERT_TRUE(restored.blocked && restored.scored && restored.has_result);
  ASSERT_TRUE(restored.candidates->counts.empty());
  ASSERT_FALSE(restored.candidates->margins.empty());
  auto parts = restarted.Partition(*restored.scored);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  inc = Family{*restored.candidates, *restored.blocked, *restored.scored,
               std::move(parts).value(), restored.result};

  // An append of a new site (6), a replace that touches sites 0 and 6,
  // and an append to site 0.
  const std::vector<std::vector<size_t>> appended_sites = {
      {6, 6, 6}, {0, 6}, {0}};
  const std::vector<std::vector<uint32_t>> removed = {{}, {0}, {}};
  for (size_t step = 0; step < 3; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    std::vector<TableSpec> batch;
    for (size_t site : appended_sites[step]) {
      batch.push_back(SiteTable(rng, site));
    }
    TableCorpus delta;
    AddSpecs(&delta, batch, 0, batch.size());
    auto grown = removed[step].empty()
                     ? restarted.AppendCorpus(&corpus, delta, inc.candidates,
                                              inc.blocked, inc.scored,
                                              inc.partitions, inc.result)
                     : restarted.ReplaceTables(
                           &corpus, removed[step], delta, inc.candidates,
                           inc.blocked, inc.scored, inc.partitions,
                           inc.result);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    AppendedArtifacts family = std::move(grown).value();
    const AppendStats& a = family.append;
    ASSERT_FALSE(a.full_rebuild);
    CacheTally tally;
    size_t absent = 0;
    ExpectCacheMatchesFreshIndex(family.candidates, corpus, o.extraction,
                                 nullptr, 0, &tally, &absent);
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(a.margin_skips, 0u);
    if (step == 0) {
      // No counts to re-score from; the skipped columns keep none.
      EXPECT_EQ(a.cached_rechecks, 0u);
      EXPECT_GT(absent, 0u);
    } else if (step == 1) {
      // Site 0's columns were skipped without counts; touched now, they
      // walk in full, while site 6's re-score from the counts the first
      // mutation took.
      EXPECT_GT(a.cached_rechecks, 0u);
      EXPECT_GT(a.margin_rechecks, a.cached_rechecks);
    } else {
      EXPECT_GT(a.cached_rechecks, 0u);
    }
    std::printf("restored family, step %zu: %zu margin skips, %zu re-checks "
                "(%zu from cached counts), %zu columns without counts\n",
                step, a.margin_skips, a.margin_rechecks, a.cached_rechecks,
                absent);
    inc = Family{std::move(family.candidates), std::move(family.blocked),
                 std::move(family.scored), std::move(family.partitions),
                 std::move(family.result)};
    SynthesisSession cold_session(o);
    const Family cold = ColdChain(&cold_session, corpus);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(Canonical(cold.result, corpus.pool()),
              Canonical(inc.result, corpus.pool()));
  }
}

// ------------------------------------------------------------- edge cases

TEST(IncrementalApiTest, EmptyAppendIsIdentityWithFreshGeneration) {
  Rng rng(5);
  auto specs = RandomCorpusSpec(rng, 24);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());

  auto grown = session.AppendTables(corpus, corpus.size(), f.candidates,
                                    f.blocked, f.scored, f.partitions,
                                    f.result);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const AppendedArtifacts& a = grown.value();
  EXPECT_EQ(a.candidates.generation, 1u);
  EXPECT_EQ(a.append.appended_tables, 0u);
  EXPECT_EQ(a.append.carried_mappings, f.result.mappings.size());
  ExpectPairsIdentical(f.blocked.pairs, a.blocked.pairs);
  EXPECT_EQ(Canonical(f.result, corpus.pool()),
            Canonical(a.result, corpus.pool()));
  // Fresh lineage: the copies feed downstream stages like any artifact.
  auto parts = session.Partition(a.scored);
  EXPECT_TRUE(parts.ok()) << parts.status().ToString();
}

TEST(IncrementalApiTest, AppendRejectsMisuse) {
  Rng rng(9);
  auto specs = RandomCorpusSpec(rng, 20);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 16);
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  AddSpecs(&corpus, specs, 16, 20);

  // Wrong first_new_table.
  auto wrong = session.AppendTables(corpus, 12, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Foreign session artifacts.
  SynthesisSession other(BaseOptions());
  auto foreign = other.AppendTables(corpus, 16, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  EXPECT_EQ(foreign.status().code(), StatusCode::kFailedPrecondition);

  // Adopted candidate sets carry no extraction signatures.
  auto adopted = session.AdoptCandidates(f.candidates.tables(),
                                         corpus.pool());
  ASSERT_TRUE(adopted.ok());
  auto blocked2 = session.BlockPairs(adopted.value());
  ASSERT_TRUE(blocked2.ok());
  auto scored2 = session.ScorePairs(adopted.value(), blocked2.value());
  ASSERT_TRUE(scored2.ok());
  auto parts2 = session.Partition(scored2.value());
  ASSERT_TRUE(parts2.ok());
  auto res2 = session.Resolve(adopted.value(), scored2.value(),
                              parts2.value());
  ASSERT_TRUE(res2.ok());
  auto no_sig = session.AppendTables(corpus, 0, adopted.value(),
                                     blocked2.value(), scored2.value(),
                                     parts2.value(), res2.value());
  EXPECT_EQ(no_sig.status().code(), StatusCode::kFailedPrecondition);

  // A shrunk corpus is not an append.
  TableCorpus small;
  AddSpecs(&small, specs, 0, 8);
  auto shrunk = session.AppendTables(small, 16, f.candidates, f.blocked,
                                     f.scored, f.partitions, f.result);
  EXPECT_EQ(shrunk.status().code(), StatusCode::kInvalidArgument);

  // A result from a different (larger) family is rejected before any
  // component array could be indexed with its out-of-range member ids.
  SynthesisResult fake = f.result;
  SynthesizedMapping oversized;
  oversized.member_tables = {
      static_cast<BinaryTableId>(f.candidates.tables().size() + 5)};
  fake.mappings.push_back(oversized);
  auto bad_result = session.AppendTables(corpus, 16, f.candidates, f.blocked,
                                         f.scored, f.partitions, fake);
  EXPECT_EQ(bad_result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IncrementalApiTest, RemoveRejectsMisuseBeforeMutating) {
  Rng rng(17);
  auto specs = RandomCorpusSpec(rng, 16);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 16);
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  const size_t columns_before = corpus.TotalColumns();

  // Out-of-range id: rejected before any tombstoning.
  auto oob = session.RemoveTables(&corpus, {3, 99}, f.candidates, f.blocked,
                                  f.scored, f.partitions, f.result);
  EXPECT_EQ(oob.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corpus.TotalColumns(), columns_before);

  // Duplicate ids in one removal set.
  auto dup = session.RemoveTables(&corpus, {5, 5}, f.candidates, f.blocked,
                                  f.scored, f.partitions, f.result);
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(corpus.TotalColumns(), columns_before);

  // Null corpus.
  auto null_corpus = session.RemoveTables(nullptr, {1}, f.candidates,
                                          f.blocked, f.scored, f.partitions,
                                          f.result);
  EXPECT_EQ(null_corpus.status().code(), StatusCode::kInvalidArgument);

  // Foreign session artifacts.
  SynthesisSession other(BaseOptions());
  auto foreign = other.RemoveTables(&corpus, {1}, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  EXPECT_EQ(foreign.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(corpus.TotalColumns(), columns_before);

  // Corpus/artifact size mismatch.
  TableCorpus small;
  AddSpecs(&small, specs, 0, 8);
  auto mismatch = session.RemoveTables(&small, {1}, f.candidates, f.blocked,
                                       f.scored, f.partitions, f.result);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);

  // A real removal succeeds; re-removing the now tombstoned slot is a
  // no-op contribution rather than an error (idempotent retries).
  auto once = session.RemoveTables(&corpus, {2}, f.candidates, f.blocked,
                                   f.scored, f.partitions, f.result);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  const AppendedArtifacts& a = once.value();
  EXPECT_EQ(a.candidates.tombstoned_tables, std::vector<uint32_t>{2});
  auto again = session.RemoveTables(&corpus, {2, 4}, a.candidates, a.blocked,
                                    a.scored, a.partitions, a.result);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().append.removed_tables, 1u);  // only table 4
  EXPECT_EQ(again.value().candidates.tombstoned_tables,
            (std::vector<uint32_t>{2, 4}));
}

TEST(IncrementalApiTest, ReplaceRollsBackOnFrozenPoolAppendFailure) {
  // ReplaceTables is atomic: when the delta merge fails mid-way (frozen
  // serving pool refusing an unseen value), the tombstoned tables come
  // back, the corpus does not grow, and the pool holds not one extra
  // string — a retry sees the exact pre-replace state.
  Rng rng(19);
  auto specs = RandomCorpusSpec(rng, 20);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 16);
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());

  corpus.pool().MarkReadOnly();
  const size_t tables_before = corpus.size();
  const size_t columns_before = corpus.TotalColumns();
  const size_t pool_before = corpus.pool().size();

  TableCorpus delta;
  delta.AddFromStrings("frozen.example", TableSource::kWeb,
                       {"name", "code"},
                       {{"value this pool has never seen"}, {"code0"}});
  auto failed = session.ReplaceTables(&corpus, {1, 3}, delta, f.candidates,
                                      f.blocked, f.scored, f.partitions,
                                      f.result);
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(corpus.size(), tables_before);
  EXPECT_EQ(corpus.TotalColumns(), columns_before);
  EXPECT_EQ(corpus.pool().size(), pool_before);

  // Removal has no interning to do: it still works on the frozen pool, so
  // the failed replace really was rolled back rather than half-applied.
  auto removed = session.RemoveTables(&corpus, {1, 3}, f.candidates,
                                      f.blocked, f.scored, f.partitions,
                                      f.result);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed.value().append.removed_tables, 2u);
}

TEST(IncrementalApiTest, AppendCorpusValidatesBeforeMutating) {
  // A failed AppendCorpus must not leave the corpus grown past the
  // artifacts — that would be a stuck state every retry re-rejects.
  Rng rng(11);
  auto specs = RandomCorpusSpec(rng, 20);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 16);
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());

  TableCorpus delta;
  AddSpecs(&delta, specs, 16, 20);
  SynthesisSession other(BaseOptions());
  auto foreign = other.AppendCorpus(&corpus, delta, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  EXPECT_EQ(foreign.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(corpus.size(), 16u);  // untouched

  // The same call against the owning session then succeeds.
  auto ok = session.AppendCorpus(&corpus, delta, f.candidates, f.blocked,
                                 f.scored, f.partitions, f.result);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(corpus.size(), 20u);
}

TEST(IncrementalApiTest, AppendCorpusRollsBackWhenThePoolDiverges) {
  // The family is built over one corpus; AppendCorpus gets another whose
  // pool interned the same strings in a different order. The pool check
  // fails after the delta was merged, and the merge must be undone: the
  // wrong corpus keeps its tables and pool, so a retry fails the same way
  // instead of on a grown corpus, and the right corpus still appends.
  Rng rng(23);
  auto specs = RandomCorpusSpec(rng, 20);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 16);
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());

  TableCorpus reordered;
  for (size_t i = corpus.pool().size(); i-- > 0;) {
    reordered.pool().Intern(corpus.pool().Get(static_cast<ValueId>(i)));
  }
  AddSpecs(&reordered, specs, 0, 16);
  ASSERT_EQ(reordered.pool().size(), corpus.pool().size());
  const size_t pool_before = reordered.pool().size();
  TableCorpus delta;
  AddSpecs(&delta, specs, 16, 20);
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto failed = session.AppendCorpus(&reordered, delta, f.candidates,
                                       f.blocked, f.scored, f.partitions,
                                       f.result);
    EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition)
        << failed.status().ToString();
    EXPECT_NE(failed.status().message().find("AppendCorpus: the corpus pool "
                                             "diverges"),
              std::string::npos)
        << failed.status().ToString();
    EXPECT_EQ(reordered.size(), 16u);
    EXPECT_EQ(reordered.pool().size(), pool_before);
  }

  auto ok = session.AppendCorpus(&corpus, delta, f.candidates, f.blocked,
                                 f.scored, f.partitions, f.result);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(corpus.size(), 20u);
  EXPECT_EQ(session.session_stats().append_runs, 1u);
}

TEST(IncrementalApiTest, MutationStepsRecordOneSpanEach) {
  // Each mutation records its index patch and its five steps once each
  // under ms_synth_mutation_step_us, inside its own append span, and leaves
  // the cold stages' ms_synth_stage_us series alone.
  Rng rng(29);
  auto specs = RandomCorpusSpec(rng, 28);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 20);
  SynthesisSession session(BaseOptions());
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  const auto adopt = [&f](AppendedArtifacts a) {
    f = Family{std::move(a.candidates), std::move(a.blocked),
               std::move(a.scored), std::move(a.partitions),
               std::move(a.result)};
  };

  TableCorpus delta;
  AddSpecs(&delta, specs, 20, 24);
  SpanCounts before = SpanCounts::Take();
  auto appended = session.AppendCorpus(&corpus, delta, f.candidates,
                                       f.blocked, f.scored, f.partitions,
                                       f.result);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ExpectOneMutationOfSpans(before, SpanCounts::Take(), false);
  adopt(std::move(appended).value());

  before = SpanCounts::Take();
  auto removed = session.RemoveTables(&corpus, {2, 7}, f.candidates,
                                      f.blocked, f.scored, f.partitions,
                                      f.result);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  ExpectOneMutationOfSpans(before, SpanCounts::Take(), false);
  adopt(std::move(removed).value());

  TableCorpus more;
  AddSpecs(&more, specs, 24, 28);
  before = SpanCounts::Take();
  auto replaced = session.ReplaceTables(&corpus, {5}, more, f.candidates,
                                        f.blocked, f.scored, f.partitions,
                                        f.result);
  ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  ExpectOneMutationOfSpans(before, SpanCounts::Take(), false);
  adopt(std::move(replaced).value());

  // An empty mutation hands back the family without running a step.
  before = SpanCounts::Take();
  auto empty = session.RemoveTables(&corpus, {}, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ExpectOneMutationOfSpans(before, SpanCounts::Take(), true);
}

/// The parts of a mutation step timed under
/// ms_synth_mutation_substep_us, each with its parent step, and how often
/// each was recorded and for how long at one moment.
struct SubstepCounts {
  static constexpr const char* kSubsteps[][2] = {
      {"extract.merge", "extract"},      {"block.splice", "block"},
      {"score.delta", "score"},          {"score.splice", "score"},
      {"partition.scopes", "partition"}, {"resolve.merge", "resolve"}};
  uint64_t count[6] = {};
  uint64_t us[6] = {};
  uint64_t step_us[6] = {};  ///< the parent step's sum, per substep

  static SubstepCounts Take() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    SubstepCounts c;
    for (size_t i = 0; i < 6; ++i) {
      const obs::HistogramSnapshot s =
          reg.GetHistogram("ms_synth_mutation_substep_us",
                           {{"substep", kSubsteps[i][0]}})
              ->Snapshot();
      c.count[i] = s.TotalCount();
      c.us[i] = s.sum;
      c.step_us[i] = reg.GetHistogram("ms_synth_mutation_step_us",
                                      {{"step", kSubsteps[i][1]}})
                         ->Snapshot()
                         .sum;
    }
    return c;
  }
};

/// Between `before` and `after`, every substep was recorded `times` times,
/// and the substeps of each step took no longer than the step.
void ExpectSubsteps(const SubstepCounts& before, const SubstepCounts& after,
                    uint64_t times) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_step;
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(after.count[i], before.count[i] + times)
        << "ms_synth_mutation_substep_us{substep="
        << SubstepCounts::kSubsteps[i][0] << "}";
    auto& [substeps_us, step_us] = per_step[SubstepCounts::kSubsteps[i][1]];
    substeps_us += after.us[i] - before.us[i];
    step_us = after.step_us[i] - before.step_us[i];
  }
  for (const auto& [step, sums] : per_step) {
    EXPECT_LE(sums.first, sums.second) << "substeps of step " << step;
  }
}

TEST(IncrementalApiTest, MutationSubstepsRecordOnceInsideTheirStep) {
  // A mutation on the delta path times the parts of its steps that splice
  // the family (candidate merge, pair splice, delta scoring, edge splice,
  // scopes, mapping merge) once each, inside their step. Cold stages and an
  // empty mutation record none.
  Rng rng(31);
  auto specs = RandomCorpusSpec(rng, 28);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 20);
  SynthesisSession session(BaseOptions());
  SubstepCounts before = SubstepCounts::Take();
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ExpectSubsteps(before, SubstepCounts::Take(), 0);
  const auto adopt = [&f](AppendedArtifacts a) {
    EXPECT_FALSE(a.append.full_rebuild);
    f = Family{std::move(a.candidates), std::move(a.blocked),
               std::move(a.scored), std::move(a.partitions),
               std::move(a.result)};
  };

  TableCorpus delta;
  AddSpecs(&delta, specs, 20, 24);
  before = SubstepCounts::Take();
  auto appended = session.AppendCorpus(&corpus, delta, f.candidates,
                                       f.blocked, f.scored, f.partitions,
                                       f.result);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  ExpectSubsteps(before, SubstepCounts::Take(), 1);
  adopt(std::move(appended).value());

  before = SubstepCounts::Take();
  auto removed = session.RemoveTables(&corpus, {3, 11}, f.candidates,
                                      f.blocked, f.scored, f.partitions,
                                      f.result);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  ExpectSubsteps(before, SubstepCounts::Take(), 1);
  adopt(std::move(removed).value());

  TableCorpus more;
  AddSpecs(&more, specs, 24, 28);
  before = SubstepCounts::Take();
  auto replaced = session.ReplaceTables(&corpus, {6}, more, f.candidates,
                                        f.blocked, f.scored, f.partitions,
                                        f.result);
  ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  ExpectSubsteps(before, SubstepCounts::Take(), 1);
  adopt(std::move(replaced).value());

  before = SubstepCounts::Take();
  auto empty = session.RemoveTables(&corpus, {}, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ExpectSubsteps(before, SubstepCounts::Take(), 0);
}

// ------------------------------------------------- ranking carried mappings

/// Adds `tables` two-column tables over island `name`'s own vocabulary,
/// each from its own domain: rows "<name> entity i" -> "<name> code
/// (i mod 3)", so only the left-to-right direction is a candidate. Tables
/// of one island are identical and merge into one mapping; islands share
/// no value, so no pair is blocked across them.
void AddIsland(TableCorpus* corpus, const std::string& name, size_t tables,
               size_t rows) {
  std::vector<std::string> lefts, rights;
  for (size_t i = 0; i < rows; ++i) {
    lefts.push_back(name + " entity " + std::to_string(i));
    rights.push_back(name + " code " + std::to_string(i % 3));
  }
  for (size_t t = 0; t < tables; ++t) {
    corpus->AddFromStrings(name + std::to_string(t) + ".example",
                           TableSource::kWeb, {"entity", "code"},
                           {lefts, rights});
  }
}

SynthesisOptions IslandOptions() {
  SynthesisOptions o = BaseOptions();
  o.extraction.coherence_threshold = -1.0;  // every column passes
  return o;
}

TEST(IncrementalRankTest, OutOfOrderCarriedMappingsAreRankedAfresh) {
  // Islands alpha and bravo give two mappings that tie on (domains, size),
  // so only their first members order them, alpha first. A base result
  // that lists them swapped (ranked under an older tie rule, or by a
  // caller) carries both through an append that touches neither, and the
  // mutation must still rank them as a cold rebuild does.
  const SynthesisOptions o = IslandOptions();
  TableCorpus corpus;
  AddIsland(&corpus, "alpha", 2, 6);
  AddIsland(&corpus, "bravo", 2, 6);
  SynthesisSession session(o);
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(f.result.mappings.size(), 2u);
  const SynthesizedMapping& first = f.result.mappings[0];
  const SynthesizedMapping& second = f.result.mappings[1];
  ASSERT_EQ(first.num_domains, second.num_domains);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_LT(first.member_tables[0], second.member_tables[0]);
  std::swap(f.result.mappings[0], f.result.mappings[1]);

  // Charlie ranks first (more pairs), so the merge interleaves.
  TableCorpus delta;
  AddIsland(&delta, "charlie", 2, 7);
  auto grown = session.AppendCorpus(&corpus, delta, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_FALSE(grown.value().append.full_rebuild);
  EXPECT_EQ(grown.value().append.carried_mappings, 2u);

  TableCorpus cold_corpus;
  AddIsland(&cold_corpus, "alpha", 2, 6);
  AddIsland(&cold_corpus, "bravo", 2, 6);
  AddIsland(&cold_corpus, "charlie", 2, 7);
  SynthesisSession cold_session(o);
  const Family cold = ColdChain(&cold_session, cold_corpus);
  ASSERT_EQ(cold.result.mappings.size(), 3u);
  EXPECT_EQ(InOrder(cold.result, cold_corpus.pool()),
            InOrder(grown.value().result, corpus.pool()));
}

TEST(IncrementalRankTest, RaisedMinPairsDropsCarriedMappings) {
  // The curation floor applies to carried mappings too: raising min_pairs
  // between two generations drops the carried mappings below it, exactly
  // as a cold rebuild under the new floor keeps none of them.
  SynthesisOptions o = IslandOptions();
  TableCorpus corpus;
  AddIsland(&corpus, "alpha", 2, 6);
  AddIsland(&corpus, "bravo", 2, 4);
  SynthesisSession session(o);
  Family f = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(f.result.mappings.size(), 2u);

  o.min_pairs = 5;
  ASSERT_TRUE(session.UpdateOptions(o).ok());
  TableCorpus delta;
  AddIsland(&delta, "charlie", 2, 6);
  auto grown = session.AppendCorpus(&corpus, delta, f.candidates, f.blocked,
                                    f.scored, f.partitions, f.result);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_FALSE(grown.value().append.full_rebuild);
  EXPECT_EQ(grown.value().append.carried_mappings, 2u);
  ASSERT_EQ(grown.value().result.mappings.size(), 2u);
  for (const SynthesizedMapping& m : grown.value().result.mappings) {
    EXPECT_GE(m.size(), 5u);
  }

  TableCorpus cold_corpus;
  AddIsland(&cold_corpus, "alpha", 2, 6);
  AddIsland(&cold_corpus, "bravo", 2, 4);
  AddIsland(&cold_corpus, "charlie", 2, 6);
  SynthesisSession cold_session(o);
  const Family cold = ColdChain(&cold_session, cold_corpus);
  EXPECT_EQ(InOrder(cold.result, cold_corpus.pool()),
            InOrder(grown.value().result, corpus.pool()));
}

TEST(IncrementalApiTest, AppendFromGrowingCorpusStartsEmpty) {
  // Degenerate but legal schedule: base corpus is empty, everything arrives
  // as appends.
  Rng rng(13);
  auto specs = RandomCorpusSpec(rng, 24);
  SynthesisOptions o = BaseOptions();
  o.extraction.coherence_threshold = -1.0;  // provably stable appends

  TableCorpus cold_corpus;
  AddSpecs(&cold_corpus, specs, 0, specs.size());
  SynthesisSession cold_session(o);
  Family cold = ColdChain(&cold_session, cold_corpus);

  TableCorpus inc_corpus;
  SynthesisSession session(o);
  Family inc = ColdChain(&session, inc_corpus);  // empty cold chain
  ASSERT_FALSE(HasFailure());
  AddSpecs(&inc_corpus, specs, 0, specs.size());
  auto grown = session.AppendTables(inc_corpus, 0, inc.candidates,
                                    inc.blocked, inc.scored, inc.partitions,
                                    inc.result);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_FALSE(grown.value().append.full_rebuild);
  EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
            Canonical(grown.value().result, inc_corpus.pool()));
  ExpectCountersIdentical(cold.result.stats, grown.value().result.stats);
}

TEST(IncrementalApiTest, EmptyFamilyAppendMatchesColdBlockedSection) {
  // A one-column table yields no candidate (a binary table needs two
  // columns). Growing such a corpus by another one-column table must report
  // the same blocking stats, and persist the same blocked section, as a
  // cold run over both tables: an empty cold run's stats are exact too.
  const auto add_one_column = [](TableCorpus* corpus, const std::string& tag) {
    corpus->AddFromStrings(tag + ".example", TableSource::kWeb, {"name"},
                           {{tag + " one", tag + " two", tag + " three"}});
  };
  SynthesisOptions o = BaseOptions();
  TableCorpus inc_corpus;
  add_one_column(&inc_corpus, "first");
  SynthesisSession session(o);
  Family inc = ColdChain(&session, inc_corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_TRUE(inc.candidates.tables().empty());
  add_one_column(&inc_corpus, "second");
  auto grown = session.AppendTables(inc_corpus, 1, inc.candidates,
                                    inc.blocked, inc.scored, inc.partitions,
                                    inc.result);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const AppendedArtifacts& a = grown.value();

  TableCorpus cold_corpus;
  add_one_column(&cold_corpus, "first");
  add_one_column(&cold_corpus, "second");
  SynthesisSession cold_session(o);
  Family cold = ColdChain(&cold_session, cold_corpus);
  ASSERT_FALSE(HasFailure());

  const BlockingStats& want = cold.blocked.blocking;
  const BlockingStats& got = a.blocked.blocking;
  EXPECT_TRUE(want.exact_counts);
  EXPECT_EQ(want.exact_counts, got.exact_counts);
  EXPECT_EQ(want.keys, got.keys);
  EXPECT_EQ(want.dropped_postings, got.dropped_postings);
  EXPECT_EQ(want.tainted_candidates, got.tainted_candidates);
  EXPECT_EQ(want.tainted, got.tainted);

  // The persisted blocked sections agree byte for byte once the
  // run-dependent timings and cumulative pipeline stats are cleared.
  const auto blocked_section = [](SynthesisSession* s,
                                  const CandidateSet& candidates,
                                  BlockedPairs blocked,
                                  const std::string& path) -> std::string {
    blocked.stats = PipelineStats{};
    blocked.blocking.map_shuffle_seconds = 0.0;
    blocked.blocking.count_seconds = 0.0;
    blocked.blocking.reduce_seconds = 0.0;
    EXPECT_TRUE(s->SaveSnapshot(path, candidates, &blocked).ok());
    auto reader =
        persist::ContainerReader::Open(path, persist::kSessionSnapshotMagic);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return {};
    auto section = reader.value().Section(persist::kSectionBlockedPairs);
    EXPECT_TRUE(section.ok());
    std::string bytes = section.ok() ? std::string(section.value()) : "";
    std::remove(path.c_str());
    return bytes;
  };
  const std::string cold_bytes =
      blocked_section(&cold_session, cold.candidates, cold.blocked,
                      ScratchPath("incremental_empty_cold.mssnap"));
  const std::string inc_bytes =
      blocked_section(&session, a.candidates, a.blocked,
                      ScratchPath("incremental_empty_inc.mssnap"));
  EXPECT_FALSE(cold_bytes.empty());
  EXPECT_EQ(cold_bytes, inc_bytes);
}

// ----------------------------------------------- key index lifecycle

/// A mutation's artifacts as the next base family.
Family NextFamily(AppendedArtifacts a) {
  Family f;
  f.candidates = std::move(a.candidates);
  f.blocked = std::move(a.blocked);
  f.scored = std::move(a.scored);
  f.partitions = std::move(a.partitions);
  f.result = std::move(a.result);
  return f;
}

/// The cold oracle for a family over `specs`' tables at `live` slots, in
/// slot order: blocked pairs, taint and edges under ColdIds, the blocking
/// counters, and canonical mappings.
void ExpectMatchesColdRebuild(const SynthesisOptions& o,
                              const std::vector<TableSpec>& specs,
                              const std::vector<size_t>& live,
                              const Family& inc, const StringPool& inc_pool) {
  TableCorpus cold_corpus;
  for (size_t i : live) AddSpecs(&cold_corpus, specs, i, i + 1);
  SynthesisSession cold_session(o);
  Family cold = ColdChain(&cold_session, cold_corpus);
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(cold.blocked.blocking.keys, inc.blocked.blocking.keys);
  EXPECT_EQ(cold.blocked.blocking.dropped_postings,
            inc.blocked.blocking.dropped_postings);
  EXPECT_EQ(cold.blocked.blocking.tainted_candidates,
            inc.blocked.blocking.tainted_candidates);
  ExpectIdenticalUnderColdIds(cold, inc);
  EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
            Canonical(inc.result, inc_pool));
}

/// Slots [0, n) minus `removed`.
std::vector<size_t> LiveSlots(size_t n, const std::vector<uint32_t>& removed) {
  std::vector<size_t> live;
  for (size_t i = 0; i < n; ++i) {
    if (std::find(removed.begin(), removed.end(), i) == removed.end()) {
      live.push_back(i);
    }
  }
  return live;
}

// The session keeps the key index of the family it blocked or mutated
// last. Each test below leaves it describing a family other than the one
// the next mutation starts from, and each would fail if the mutation
// patched it anyway instead of rebuilding it.

TEST(IncrementalKeyIndexTest, MaxPostingChangeBetweenMutationsMatchesCold) {
  // The index is truncated at the max_posting it was built under. After
  // UpdateOptions moves the cap, the next mutation rebuilds it under the
  // new cap and recounts every row.
  Rng rng(31);
  const auto specs = RandomCorpusSpec(rng, 40);
  SynthesisOptions o = BaseOptions();
  o.blocking.theta_overlap = 1;
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 34);
  SynthesisSession session(o);
  Family f0 = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(f0.blocked.blocking.dropped_postings, 0u);
  AddSpecs(&corpus, specs, 34, 40);
  auto m1 = session.AppendTables(corpus, 34, f0.candidates, f0.blocked,
                                 f0.scored, f0.partitions, f0.result);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  Family f1 = NextFamily(std::move(m1).value());

  SynthesisOptions tight = o;
  tight.blocking.max_posting = 3;
  ASSERT_TRUE(session.UpdateOptions(tight).ok());
  const std::vector<uint32_t> removed = {2, 7};
  auto m2 = session.RemoveTables(&corpus, removed, f1.candidates, f1.blocked,
                                 f1.scored, f1.partitions, f1.result);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString();
  Family f2 = NextFamily(std::move(m2).value());
  EXPECT_GT(f2.blocked.blocking.dropped_postings, 0u);
  ExpectMatchesColdRebuild(tight, specs, LiveSlots(40, removed), f2,
                           corpus.pool());
}

TEST(IncrementalKeyIndexTest, DiscardedMutationThenAnotherMatchesCold) {
  // A caller drops a mutation's family (undoing its corpus change, as a
  // failed publish does) and mutates the base again: the index describes
  // the dropped family and must be rebuilt from the base's candidates.
  Rng rng(32);
  const auto specs = RandomCorpusSpec(rng, 40);
  SynthesisOptions o = BaseOptions();
  o.blocking.max_posting = 4;
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 40);
  SynthesisSession session(o);
  Family f0 = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());

  const std::vector<uint32_t> dropped = {1, 4, 9};
  std::vector<std::vector<Column>> saved;
  for (uint32_t id : dropped) saved.push_back(corpus.table(id).columns);
  auto discarded = session.RemoveTables(&corpus, dropped, f0.candidates,
                                        f0.blocked, f0.scored, f0.partitions,
                                        f0.result);
  ASSERT_TRUE(discarded.ok()) << discarded.status().ToString();
  for (size_t i = 0; i < dropped.size(); ++i) {
    corpus.RestoreColumns(dropped[i], std::move(saved[i]));
  }

  const std::vector<uint32_t> removed = {2, 5};
  auto m = session.RemoveTables(&corpus, removed, f0.candidates, f0.blocked,
                                f0.scored, f0.partitions, f0.result);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ExpectMatchesColdRebuild(o, specs, LiveSlots(40, removed),
                           NextFamily(std::move(m).value()), corpus.pool());
}

TEST(IncrementalKeyIndexTest, MutationAfterAnInjectedCommitFaultMatchesCold) {
  // A service mutation that fails after the session mutated (an injected
  // commit fault) leaves the index describing a family nobody serves; the
  // next mutation of the served family rebuilds it.
  Rng rng(33);
  const auto specs = RandomCorpusSpec(rng, 40);
  SynthesisOptions o = BaseOptions();
  o.blocking.max_posting = 4;
  const std::string tsv = ScratchPath("incremental_key_index_fault.tsv");
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, 40);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService service(o);
  ASSERT_TRUE(service.SynthesizeFromFile(tsv).ok());
  service.InjectFaultForTests(MappingService::ServingFault::kAppendCommit);
  EXPECT_FALSE(service.RemoveAndResynthesize({1, 4, 9}).ok());
  const std::vector<uint32_t> removed = {2, 5};
  ASSERT_TRUE(service.RemoveAndResynthesize(removed).ok());
  std::remove(tsv.c_str());

  TableCorpus cold_corpus;
  for (size_t i : LiveSlots(40, removed)) {
    AddSpecs(&cold_corpus, specs, i, i + 1);
  }
  SynthesisSession cold_session(o);
  Family cold = ColdChain(&cold_session, cold_corpus);
  ASSERT_FALSE(HasFailure());
  const PipelineStats& got = service.last_result().stats;
  const PipelineStats& want = cold.result.stats;
  EXPECT_EQ(want.candidate_pairs, got.candidate_pairs);
  EXPECT_EQ(want.blocking_keys, got.blocking_keys);
  EXPECT_EQ(want.blocking_dropped_postings, got.blocking_dropped_postings);
  EXPECT_EQ(want.blocking_tainted_candidates,
            got.blocking_tainted_candidates);
  EXPECT_EQ(want.graph_edges, got.graph_edges);
  EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
            Canonical(service.last_result(), *service.shared_pool()));
}

TEST(IncrementalKeyIndexTest, MutationOfARestoredFamilyMatchesCold) {
  // A family restored into a session that has mutated since: the index
  // describes the later family, and the restored one rebuilds it.
  Rng rng(34);
  const auto specs = RandomCorpusSpec(rng, 40);
  SynthesisOptions o = BaseOptions();
  o.blocking.max_posting = 4;
  const std::string snap = ScratchPath("incremental_key_index.mssnap");
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, 40);
  SynthesisSession session(o);
  Family f0 = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_TRUE(session
                  .SaveSnapshot(snap, f0.candidates, &f0.blocked, &f0.scored,
                                &f0.result)
                  .ok());

  const std::vector<uint32_t> earlier = {1, 4, 9};
  std::vector<std::vector<Column>> saved;
  for (uint32_t id : earlier) saved.push_back(corpus.table(id).columns);
  auto m1 = session.RemoveTables(&corpus, earlier, f0.candidates, f0.blocked,
                                 f0.scored, f0.partitions, f0.result);
  ASSERT_TRUE(m1.ok()) << m1.status().ToString();
  for (size_t i = 0; i < earlier.size(); ++i) {
    corpus.RestoreColumns(earlier[i], std::move(saved[i]));
  }

  auto restored = session.RestoreSnapshot(snap);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(snap.c_str());
  SessionSnapshot r = std::move(restored).value();
  ASSERT_TRUE(r.blocked && r.scored && r.has_result);
  auto parts = session.Partition(*r.scored);
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  const std::vector<uint32_t> removed = {2, 5};
  auto m2 = session.RemoveTables(&corpus, removed, *r.candidates, *r.blocked,
                                 *r.scored, parts.value(), r.result);
  ASSERT_TRUE(m2.ok()) << m2.status().ToString();
  ExpectMatchesColdRebuild(o, specs, LiveSlots(40, removed),
                           NextFamily(std::move(m2).value()), corpus.pool());
}

TEST(IncrementalPartitionTest, RePartitionReportsTheMutationsLiveCounts) {
  // A removal leaves dead candidates as isolated vertices, and the family
  // it returns counts components and partitions over live structure only,
  // as a cold rebuild over the surviving tables does. Partition() on that
  // family's graph, in this session or restored from a snapshot into
  // another, must report the same counts, under either partitioning mode.
  Rng rng(35);
  const auto specs = RandomCorpusSpec(rng, 12);
  const std::vector<uint32_t> removed = {1, 4, 7};
  const std::string snap = ScratchPath("incremental_repartition.mssnap");
  for (const bool dnc : {true, false}) {
    SCOPED_TRACE(dnc ? "divide and conquer" : "global");
    SynthesisOptions o = BaseOptions();
    o.divide_and_conquer = dnc;
    TableCorpus corpus;
    AddSpecs(&corpus, specs, 0, specs.size());
    SynthesisSession session(o);
    Family f0 = ColdChain(&session, corpus);
    ASSERT_FALSE(HasFailure());
    auto m = session.RemoveTables(&corpus, removed, f0.candidates, f0.blocked,
                                  f0.scored, f0.partitions, f0.result);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    const Family f1 = NextFamily(std::move(m).value());
    ASSERT_GT(f1.candidates.num_dead(), 0u);
    const PipelineStats& want = f1.partitions.stats;

    TableCorpus cold_corpus;
    for (size_t i : LiveSlots(specs.size(), removed)) {
      AddSpecs(&cold_corpus, specs, i, i + 1);
    }
    SynthesisSession cold_session(o);
    const Family cold = ColdChain(&cold_session, cold_corpus);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(want.components, cold.partitions.stats.components);
    EXPECT_EQ(want.partitions, cold.partitions.stats.partitions);

    auto again = session.Partition(f1.scored);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value().stats.components, want.components);
    EXPECT_EQ(again.value().stats.partitions, want.partitions);

    ASSERT_TRUE(session
                    .SaveSnapshot(snap, f1.candidates, &f1.blocked,
                                  &f1.scored, &f1.result)
                    .ok());
    SynthesisSession other(o);
    auto restored = other.RestoreSnapshot(snap);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::remove(snap.c_str());
    ASSERT_TRUE(restored.value().scored != nullptr);
    auto parts = other.Partition(*restored.value().scored);
    ASSERT_TRUE(parts.ok()) << parts.status().ToString();
    EXPECT_EQ(parts.value().stats.components, want.components);
    EXPECT_EQ(parts.value().stats.partitions, want.partitions);
  }
}

TEST(IncrementalPartitionTest, ResurrectedPairRepartitionsItsEndpoints) {
  // Three tables share the pair (k1, v1); with max_posting = 2 its posting
  // lists keep tables 0 and 1 and drop table 2 (each table yields a
  // candidate per direction, and both directions behave alike). Tables 1
  // and 2 also share (s1, t1), so with θ_overlap = 2 they sit one
  // co-occurrence short of a blocked pair, and no pair reaches two: the
  // base graph has no edge. Removing table 0 frees a slot, table 2 comes
  // back under the cap, and tables 1 and 2 are blocked and scored. Their
  // candidates share no edge with anything retired, so only the delta
  // edges themselves mark the merged components dirty; a cold rebuild
  // merges the two tables' mappings.
  SynthesisOptions o = BaseOptions();
  o.extraction.coherence_threshold = -1.0;
  o.blocking.max_posting = 2;
  o.blocking.theta_overlap = 2;
  const std::vector<std::vector<std::vector<std::string>>> tables = {
      {{"k1", "a1", "a2"}, {"v1", "x1", "x2"}},
      {{"k1", "s1", "b1"}, {"v1", "t1", "y1"}},
      {{"k1", "s1", "c1"}, {"v1", "t1", "z1"}},
  };
  const auto add = [&](TableCorpus* corpus, size_t t) {
    corpus->AddFromStrings("site" + std::to_string(t) + ".example",
                           TableSource::kWeb, {"name", "code"}, tables[t]);
  };
  TableCorpus corpus;
  for (size_t t = 0; t < tables.size(); ++t) add(&corpus, t);
  SynthesisSession session(o);
  Family base = ColdChain(&session, corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(base.candidates.tables().size(), 6u);
  ASSERT_GT(base.blocked.blocking.dropped_postings, 0u);
  ASSERT_EQ(base.scored.graph.num_edges(), 0u);

  auto removed = session.RemoveTables(&corpus, {0}, base.candidates,
                                      base.blocked, base.scored,
                                      base.partitions, base.result);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  const AppendedArtifacts& a = removed.value();
  ASSERT_EQ(a.append.delta_edges, 2u);

  TableCorpus cold_corpus;
  add(&cold_corpus, 1);
  add(&cold_corpus, 2);
  SynthesisSession cold_session(o);
  Family cold = ColdChain(&cold_session, cold_corpus);
  ASSERT_FALSE(HasFailure());
  ASSERT_EQ(cold.result.mappings.size(), 2u);
  EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
            Canonical(a.result, corpus.pool()));
}

TEST(IncrementalPartitionTest, GlobalScopeWithFlippedTableMatchesColdRebuild) {
  // Without divide-and-conquer, Algorithm 3 runs over one scope holding
  // every vertex, taken in (source table, id) order. An append that flips a
  // minority of old coherence verdicts parks the re-extractions at tail
  // ids; the family must still equal its cold rebuild, with and without
  // truncated posting lists, and so must a Partition() + Resolve() of its
  // graph, as scored by the mutation or re-scored by ScorePairs. The search
  // runs until some flipped family's graph partitions differently in
  // ascending id order (AscendingIdPartition), so member order really is
  // under test.
  Rng rng(20261018);
  size_t flips = 0, truncated_flips = 0, order_sensitive = 0;
  for (size_t iter = 0;
       iter < 400 && (truncated_flips == 0 || order_sensitive == 0); ++iter) {
    const size_t n_tables = 30 + rng.Uniform(40);
    auto specs = RandomCorpusSpec(rng, n_tables);
    SynthesisOptions o = BaseOptions();
    o.divide_and_conquer = false;
    o.extraction.coherence_threshold = rng.Bernoulli(0.5) ? 0.05 : 0.15;
    o.blocking.max_posting = rng.Bernoulli(0.5) ? 4 : 256;
    const size_t split = n_tables / 2 + rng.Uniform(n_tables / 2);

    TableCorpus inc_corpus;
    AddSpecs(&inc_corpus, specs, 0, split);
    SynthesisSession session(o);
    Family inc = ColdChain(&session, inc_corpus);
    ASSERT_FALSE(HasFailure());
    AddSpecs(&inc_corpus, specs, split, n_tables);
    auto grown = session.AppendTables(inc_corpus, split, inc.candidates,
                                      inc.blocked, inc.scored,
                                      inc.partitions, inc.result);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    AppendedArtifacts a = std::move(grown).value();
    if (a.append.extraction_stable || a.append.full_rebuild) continue;
    ++flips;
    truncated_flips += a.blocked.blocking.dropped_postings != 0;
    SCOPED_TRACE("iter " + std::to_string(iter) + " tables " +
                 std::to_string(n_tables) + " split " + std::to_string(split) +
                 " max_posting " + std::to_string(o.blocking.max_posting));
    EXPECT_EQ(a.append.dirty_components, 1u);

    TableCorpus cold_corpus;
    AddSpecs(&cold_corpus, specs, 0, n_tables);
    SynthesisSession cold_session(o);
    Family cold = ColdChain(&cold_session, cold_corpus);
    ASSERT_FALSE(HasFailure());
    const auto want = Canonical(cold.result, cold_corpus.pool());

    order_sensitive +=
        Canonical(ResolveUnder(&session, a.candidates, a.scored,
                               AscendingIdPartition(a.scored.graph, o)),
                  inc_corpus.pool()) != want;
    auto rescored = session.ScorePairs(a.candidates, a.blocked);
    ASSERT_TRUE(rescored.ok());
    EXPECT_EQ(rescored.value().order, a.scored.order);
    for (const ScoredGraph* g : {&a.scored, &rescored.value()}) {
      auto parts = session.Partition(*g);
      ASSERT_TRUE(parts.ok());
      auto again = session.Resolve(a.candidates, *g, parts.value());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(want, Canonical(again.value(), inc_corpus.pool()));
    }

    inc.candidates = std::move(a.candidates);
    inc.blocked = std::move(a.blocked);
    inc.scored = std::move(a.scored);
    inc.result = std::move(a.result);
    ExpectIdenticalUnderColdIds(cold, inc);
    EXPECT_EQ(cold.result.stats.partitions, inc.result.stats.partitions);
    EXPECT_EQ(want, Canonical(inc.result, inc_corpus.pool()));
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(truncated_flips, 0u)
      << "no append flipped a minority of verdicts under truncation";
  EXPECT_GT(order_sensitive, 0u)
      << "no flipped family was sensitive to partition member order";
  std::printf("global scope: %zu flips, %zu with truncation, %zu order-"
              "sensitive\n",
              flips, truncated_flips, order_sensitive);
}

// --------------------------------------------- snapshot round trips (PR 4)

TEST(IncrementalSnapshotTest, RestoreAppendSnapshotRoundTrip) {
  Rng rng(31);
  auto specs = RandomCorpusSpec(rng, 40);
  const size_t base_n = 28;
  SynthesisOptions o = BaseOptions();
  const std::string snap1 = ScratchPath("incremental_rt1.mssnap");
  const std::string snap2 = ScratchPath("incremental_rt2.mssnap");
  const std::string store = ScratchPath("incremental_rt.mscorp");

  // Offline: synthesize the base corpus, persist snapshot AND corpus store
  // from the same pool state (so normalized values share ids — the contract
  // restore-then-append verifies).
  {
    TableCorpus corpus;
    AddSpecs(&corpus, specs, 0, base_n);
    SynthesisSession session(o);
    Family f = ColdChain(&session, corpus);
    ASSERT_FALSE(HasFailure());
    ASSERT_TRUE(session
                    .SaveSnapshot(snap1, f.candidates, &f.blocked, &f.scored,
                                  &f.result)
                    .ok());
    ASSERT_TRUE(persist::SaveCorpusStore(corpus, store).ok());
  }

  // Restart: restore the snapshot, reopen the corpus (different pool
  // object, id-compatible), grow it, append, persist the merged artifacts.
  std::multiset<std::string> appended_canonical;
  {
    SynthesisSession session(o);
    auto restored = session.RestoreSnapshot(snap1);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const SessionSnapshot& snap = restored.value();
    EXPECT_EQ(snap.candidates->generation, 0u);
    EXPECT_EQ(snap.candidates->source_tables, base_n);
    ASSERT_EQ(snap.candidates->kept_offsets.size(), base_n + 1);

    auto reopened = persist::OpenCorpusStore(store);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    TableCorpus corpus = std::move(reopened).value();
    AddSpecs(&corpus, specs, base_n, specs.size());

    auto parts = session.Partition(*snap.scored);
    ASSERT_TRUE(parts.ok());
    ASSERT_TRUE(snap.has_result);
    auto grown = session.AppendTables(corpus, base_n, *snap.candidates,
                                      *snap.blocked, *snap.scored,
                                      parts.value(), snap.result);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    const AppendedArtifacts& a = grown.value();
    EXPECT_EQ(a.candidates.generation, 1u);
    EXPECT_EQ(a.candidates.source_tables, specs.size());
    appended_canonical = Canonical(a.result, corpus.pool());

    ASSERT_TRUE(session
                    .SaveSnapshot(snap2, a.candidates, &a.blocked, &a.scored,
                                  &a.result)
                    .ok());
  }

  // The merged snapshot restores with its append lineage and matches a
  // cold rebuild over the grown corpus.
  {
    SynthesisSession session(o);
    auto restored = session.RestoreSnapshot(snap2);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value().candidates->generation, 1u);
    EXPECT_EQ(restored.value().candidates->source_tables, specs.size());
    ASSERT_TRUE(restored.value().has_result);
    EXPECT_EQ(Canonical(restored.value().result, *restored.value().pool),
              appended_canonical);

    TableCorpus cold_corpus;
    AddSpecs(&cold_corpus, specs, 0, specs.size());
    SynthesisSession cold_session(o);
    Family cold = ColdChain(&cold_session, cold_corpus);
    EXPECT_EQ(Canonical(cold.result, cold_corpus.pool()),
              appended_canonical);
  }

  // Fingerprint compatibility rules survive the append: a session with
  // different result-affecting options refuses the merged snapshot.
  {
    SynthesisOptions other = o;
    other.partitioner.tau = -0.4;
    SynthesisSession session(other);
    auto refused = session.RestoreSnapshot(snap2);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  }

  // Corruption of the merged file is DataLoss, never a silent divergence.
  {
    std::ifstream in(snap2, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0x10;
    std::ofstream out(snap2, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    SynthesisSession session(o);
    auto corrupt = session.RestoreSnapshot(snap2);
    EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  }

  std::remove(snap1.c_str());
  std::remove(snap2.c_str());
  std::remove(store.c_str());
}

// ------------------------------------------------------------ service layer

TEST(IncrementalServiceTest, AppendAndResynthesizeServesWithoutColdRebuild) {
  Rng rng(41);
  auto specs = RandomCorpusSpec(rng, 40);
  const size_t base_n = 30;
  SynthesisOptions o = BaseOptions();

  // Owned-corpus service (loaded from a TSV dump).
  const std::string tsv = ScratchPath("incremental_service.tsv");
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, base_n);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService service(o);
  ASSERT_TRUE(service.SynthesizeFromFile(tsv).ok());
  const size_t extract_runs_before = service.session_stats().extract_runs;

  TableCorpus delta;
  AddSpecs(&delta, specs, base_n, specs.size());
  Status st = service.AppendAndResynthesize(delta);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(service.session_stats().append_runs, 1u);
  // No cold rebuild: the session-level extract stage never re-ran (the
  // append path extracts the delta internally, not via ExtractCandidates,
  // unless it had to fall back).
  if (service.session_stats().append_full_rebuilds == 0) {
    EXPECT_EQ(service.session_stats().extract_runs, extract_runs_before);
  }

  // Served mappings match a cold service over the grown corpus.
  TableCorpus full;
  AddSpecs(&full, specs, 0, specs.size());
  MappingService cold(o);
  ASSERT_TRUE(cold.Synthesize(full).ok());
  ASSERT_EQ(cold.num_mappings(), service.num_mappings());

  // External-corpus service: grow in place, then ResynthesizeAppended.
  TableCorpus external;
  AddSpecs(&external, specs, 0, base_n);
  MappingService ext_service(o);
  ASSERT_TRUE(ext_service.Synthesize(external).ok());
  // The corpus has not grown yet: fail-closed.
  EXPECT_EQ(ext_service.ResynthesizeAppended().code(),
            StatusCode::kFailedPrecondition);
  AddSpecs(&external, specs, base_n, specs.size());
  ASSERT_TRUE(ext_service.ResynthesizeAppended().ok());
  EXPECT_EQ(ext_service.num_mappings(), cold.num_mappings());

  std::remove(tsv.c_str());
}

TEST(IncrementalServiceTest, RetuneAfterTruncatedFlipMatchesColdRebuild) {
  // An append that flips a minority of old coherence verdicts while posting
  // lists truncate leaves the family's re-extractions at tail ids.
  // Resynthesize with new partitioner options keeps that family's graph and
  // re-runs Partition() and Resolve() on it, and so does a service
  // restarted from the family's snapshot. Both must serve what a cold build
  // over the grown corpus under the new options serves, in both
  // partitioning modes. The search runs until, in each mode, some case
  // partitions differently in ascending id order (AscendingIdPartition),
  // so member order really is under test. Every case checks the session's
  // own Partition() + Resolve(); the slower service replay runs on the
  // first cases of each mode and on every order-sensitive one.
  Rng rng(20261019);
  const std::string snap = ScratchPath("incremental_retune.mssnap");
  size_t cases[2] = {0, 0}, order_sensitive[2] = {0, 0}, replays = 0;
  for (size_t iter = 0;
       iter < 800 && (order_sensitive[0] == 0 || order_sensitive[1] == 0);
       ++iter) {
    const bool dnc = iter % 2 == 1;
    const size_t n_tables = 30 + rng.Uniform(40);
    auto specs = RandomCorpusSpec(rng, n_tables);
    SynthesisOptions o = BaseOptions();
    o.divide_and_conquer = dnc;
    o.extraction.coherence_threshold = rng.Bernoulli(0.5) ? 0.05 : 0.15;
    o.blocking.max_posting = 2 + rng.Uniform(3);
    const size_t split = n_tables / 2 + rng.Uniform(n_tables / 2);
    SynthesisOptions retuned = o;
    retuned.partitioner.tau = -0.4;

    TableCorpus corpus;
    AddSpecs(&corpus, specs, 0, split);
    SynthesisSession session(o);
    Family base = ColdChain(&session, corpus);
    ASSERT_FALSE(HasFailure());
    AddSpecs(&corpus, specs, split, n_tables);
    auto grown = session.AppendTables(corpus, split, base.candidates,
                                      base.blocked, base.scored,
                                      base.partitions, base.result);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    const AppendedArtifacts& a = grown.value();
    if (a.append.extraction_stable || a.append.full_rebuild ||
        a.blocked.blocking.dropped_postings == 0) {
      continue;
    }
    ++cases[dnc];
    SCOPED_TRACE("iter " + std::to_string(iter) + " dnc " +
                 std::to_string(dnc) + " max_posting " +
                 std::to_string(o.blocking.max_posting));

    TableCorpus cold_corpus;
    AddSpecs(&cold_corpus, specs, 0, n_tables);
    SynthesisSession cold_session(retuned);
    Family cold = ColdChain(&cold_session, cold_corpus);
    ASSERT_FALSE(HasFailure());
    const auto want = Canonical(cold.result, cold_corpus.pool());
    ASSERT_TRUE(session.UpdateOptions(retuned).ok());
    auto parts = session.Partition(a.scored);
    ASSERT_TRUE(parts.ok());
    auto again = session.Resolve(a.candidates, a.scored, parts.value());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(want, Canonical(again.value(), corpus.pool()));
    const bool sensitive =
        Canonical(ResolveUnder(&session, a.candidates, a.scored,
                               AscendingIdPartition(a.scored.graph, retuned)),
                  corpus.pool()) != want;
    order_sensitive[dnc] += sensitive;
    if (!sensitive && cases[dnc] > 2) continue;

    ++replays;
    TableCorpus external;
    AddSpecs(&external, specs, 0, split);
    MappingService service(o);
    ASSERT_TRUE(service.Synthesize(external).ok());
    AddSpecs(&external, specs, split, n_tables);
    ASSERT_TRUE(service.ResynthesizeAppended().ok());
    ASSERT_TRUE(service.SaveSnapshot(snap).ok());
    ASSERT_TRUE(service.Resynthesize(retuned).ok());
    EXPECT_EQ(want, Canonical(service.last_result(), *service.shared_pool()));

    MappingService restarted(o);
    ASSERT_TRUE(restarted.OpenFromSnapshot(snap).ok());
    ASSERT_TRUE(restarted.Resynthesize(retuned).ok());
    EXPECT_EQ(want,
              Canonical(restarted.last_result(), *restarted.shared_pool()));
    ASSERT_FALSE(HasFailure());
  }
  std::remove(snap.c_str());
  for (int dnc = 0; dnc < 2; ++dnc) {
    EXPECT_GT(order_sensitive[dnc], 0u)
        << "no truncated flip was sensitive to member order, dnc " << dnc;
  }
  std::printf("retune after truncated flips: %zu/%zu cases, %zu/%zu "
              "order-sensitive (global/divide-and-conquer), %zu service "
              "replays\n",
              cases[0], cases[1], order_sensitive[0], order_sensitive[1],
              replays);
}

TEST(IncrementalServiceTest, AppendRequiresACorpus) {
  Rng rng(47);
  auto specs = RandomCorpusSpec(rng, 24);
  SynthesisOptions o = BaseOptions();
  const std::string snap = ScratchPath("incremental_service.mssnap");
  {
    TableCorpus corpus;
    AddSpecs(&corpus, specs, 0, specs.size());
    MappingService service(o);
    ASSERT_TRUE(service.Synthesize(corpus).ok());
    ASSERT_TRUE(service.SaveSnapshot(snap).ok());
  }
  MappingService restored(o);
  ASSERT_TRUE(restored.OpenFromSnapshot(snap).ok());
  TableCorpus delta;
  AddSpecs(&delta, specs, 0, 2);
  // Snapshot-restored service without a corpus: fail-closed with guidance.
  EXPECT_EQ(restored.AppendAndResynthesize(delta).code(),
            StatusCode::kFailedPrecondition);
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace ms
