// Acceptance gates for the engine's efficiency machinery. Each gate times an
// optimized path against what it replaced, after checking that the two give
// the same output:
//
//   ./bench/bench_gates <gate|all> [n] [out.json] [scratch_dir]
//
//   gate      n (default)          times, against its bar
//   blocking  candidates (100000)  key-index row count vs the reference, 2x;
//                                  CSR index build vs the reference, 2x
//   scoring   candidates (100000)  PairScorer vs the scalar banded DP, 2x
//   rescore   tables (118000)      warm re-score vs cold full runs, 3x
//   restore   tables (118000)      snapshot restore vs a cold run, 5x;
//                                  mmap corpus open vs TSV parse, 2x
//   append    tables (118000)      AppendTables of the last 10% vs cold, 5x
//   churn     tables (118000)      append / remove / replace 10% with
//                                  coherence on vs cold, 5x / 3x / 3x
//
// Divergence, equivalence and validation checks fail a gate at every n.
// The bars only mean something once fixed costs stop dominating, so they
// arm at n >= 100000, where every table gate also requires >= 100k
// candidates. `all` runs every gate at n (each at its default when n is
// left out or 0). The JSON holds one object per gate, keyed by name, and
// the binary exits non-zero if any gate failed. Only the restore gate
// writes scratch files (snapshot, TSV and mmap corpus), under scratch_dir.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "oracles/blocking_reference.h"
#include "oracles/compatibility_reference.h"
#include "oracles/edit_distance_reference.h"
#include "oracles/inverted_index_reference.h"
#include "persist/corpus_store.h"
#include "stats/inverted_index.h"
#include "synth/blocking.h"
#include "synth/compatibility.h"
#include "synth/session.h"
#include "table/corpus.h"
#include "table/tsv.h"
#include "text/myers.h"

#ifndef MS_PERSIST_SCRATCH_DIR
#define MS_PERSIST_SCRATCH_DIR "."
#endif

namespace ms::bench {
namespace {

constexpr size_t kAcceptanceScale = 100000;
constexpr int kRepeats = 3;
/// Cold full runs take minutes at acceptance scale, and the comparison
/// takes the best, so noise only ever understates a speedup.
constexpr int kColdRepeats = 2;

/// Reports a failed check on stderr and returns whether it held.
bool Check(bool ok, const std::string& what) {
  if (!ok) std::cerr << "FAIL: " << what << "\n";
  return ok;
}

/// `n` candidate tables of 6–13 rows, each row drawn by `row()`, with the
/// same popularity skew web-extracted binary relations have.
template <typename Row>
std::vector<BinaryTable> BuildCandidates(size_t n, Rng& rng, Row&& row) {
  std::vector<BinaryTable> cands;
  cands.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<ValuePair> pairs;
    const size_t rows = 6 + rng.Uniform(8);
    pairs.reserve(rows);
    for (size_t r = 0; r < rows; ++r) pairs.push_back(row());
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = static_cast<BinaryTableId>(t);
    cands.push_back(std::move(b));
  }
  return cands;
}

/// The table gates' world: the web vocabulary and the table stream that
/// follows it. Every table gate grows its corpus from this seed; about 14%
/// of tables fall to extraction, so 118000 tables yield >= 100k candidates.
struct World {
  Rng rng{4321};
  Vocab vocab{30000, 4000, rng};
};

// -------------------------------------------------------------- blocking

/// Blocking one candidate row at a time over the key index, and the CSR
/// inverted-index build, each against the seed implementation it replaced;
/// both outputs must equal the references' at every scale.
bool RunBlocking(size_t n_candidates, const std::string&, JsonObject* out) {
  std::cout << "building " << n_candidates << " candidate tables...\n"
            << std::flush;
  Rng rng(1234);
  const auto candidates = BuildCandidates(n_candidates, rng, [&] {
    const auto left = static_cast<ValueId>(SkewedIndex(rng, 40000, 400));
    const auto right = static_cast<ValueId>(rng.Uniform(5000));
    return ValuePair{left, right};
  });

  BlockingOptions bopts;  // defaults: theta_overlap=2, max_posting=256
  std::cout << "blocking: reference (emit-then-count)...\n" << std::flush;
  std::vector<CandidateTablePair> ref_pairs;
  const double ref_blocking = MinSeconds(kRepeats, [&] {
    ref_pairs = GenerateCandidatePairsReference(candidates, bopts);
  });
  std::cout << "blocking: row count over the key index...\n" << std::flush;
  std::vector<CandidateTablePair> new_pairs;
  BlockingStats bstats;
  const double new_blocking = MinSeconds(kRepeats, [&] {
    bstats = BlockingStats{};
    new_pairs = GenerateCandidatePairs(candidates, bopts, nullptr, &bstats);
  });
  bool blocking_equal = ref_pairs.size() == new_pairs.size();
  for (size_t i = 0; blocking_equal && i < ref_pairs.size(); ++i) {
    blocking_equal = ref_pairs[i].a == new_pairs[i].a &&
                     ref_pairs[i].b == new_pairs[i].b &&
                     ref_pairs[i].shared_pairs == new_pairs[i].shared_pairs &&
                     ref_pairs[i].shared_lefts == new_pairs[i].shared_lefts;
  }
  const double blocking_speedup = ref_blocking / new_blocking;
  std::cout << "  reference " << ref_blocking << "s, engine " << new_blocking
            << "s  => " << blocking_speedup << "x, " << new_pairs.size()
            << " pairs, equal=" << blocking_equal << ", dropped postings "
            << bstats.dropped_postings << "\n";

  // Web-shaped corpus for the index build: many narrow tables, skewed
  // value popularity, a large distinct-value space.
  const size_t n_tables = n_candidates / 2;
  std::cout << "building corpus of " << n_tables << " tables...\n"
            << std::flush;
  TableCorpus corpus;
  Rng corpus_rng(99);
  for (size_t t = 0; t < n_tables; ++t) {
    std::vector<std::string> cells;
    const size_t rows = 10 + corpus_rng.Uniform(15);
    cells.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      cells.push_back("v" +
                      std::to_string(SkewedIndex(corpus_rng, 400000, 4000)));
    }
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {cells});
  }

  std::cout << "index: reference (vector<vector>)...\n" << std::flush;
  ReferenceInvertedIndex ref_index;
  const double ref_build = MinSeconds(kRepeats, [&] {
    ReferenceInvertedIndex idx;
    idx.Build(corpus);
    ref_index = std::move(idx);
  });
  std::cout << "index: CSR two-pass...\n" << std::flush;
  ColumnInvertedIndex csr_index;
  const double csr_build = MinSeconds(kRepeats, [&] {
    ColumnInvertedIndex idx;
    idx.Build(corpus);
    csr_index = std::move(idx);
  });
  const auto n_values = static_cast<uint32_t>(corpus.pool().size());
  bool index_equal = csr_index.num_columns() == ref_index.num_columns();
  for (ValueId u = 0; index_equal && u < n_values; ++u) {
    index_equal = csr_index.ColumnFrequency(u) == ref_index.ColumnFrequency(u);
  }
  Rng probe(7);
  size_t checked_cooc = 0;
  for (int i = 0; index_equal && i < 2000; ++i) {
    const auto u = static_cast<ValueId>(probe.Uniform(n_values));
    const auto v = static_cast<ValueId>(
        SkewedIndex(probe, n_values, n_values / 100));
    index_equal = csr_index.CoOccurrence(u, v) == ref_index.CoOccurrence(u, v);
    ++checked_cooc;
  }
  const double index_speedup = ref_build / csr_build;
  std::cout << "  reference " << ref_build << "s, CSR " << csr_build
            << "s  => " << index_speedup << "x over "
            << csr_index.num_columns() << " columns (" << checked_cooc
            << " co-occurrence probes verified), equal=" << index_equal
            << "\n";

  bool pass = Check(blocking_equal && index_equal,
                    "engine diverges from the reference");
  if (n_candidates >= kAcceptanceScale) {
    pass &= Check(blocking_speedup >= 2.0 && index_speedup >= 2.0,
                  "speedup below 2x at acceptance scale");
  }
  out->Add("bench", "bench_gates blocking (blocking + inverted-index hot path)")
      .Add("repeats", kRepeats)
      .Add("blocking", JsonObject()
                           .Add("candidates", candidates.size())
                           .Add("candidate_pairs", new_pairs.size())
                           .Add("blocking_keys", bstats.keys)
                           .Add("dropped_postings", bstats.dropped_postings)
                           .Add("reference_seconds", ref_blocking)
                           .Add("engine_seconds", new_blocking)
                           .Add("speedup", blocking_speedup)
                           .Add("equivalent", blocking_equal))
      .Add("index_build", JsonObject()
                              .Add("tables", corpus.size())
                              .Add("columns", csr_index.num_columns())
                              .Add("distinct_values", corpus.pool().size())
                              .Add("reference_seconds", ref_build)
                              .Add("csr_seconds", csr_build)
                              .Add("speedup", index_speedup)
                              .Add("equivalent", index_equal))
      .Add("passed", pass);
  return pass;
}

// --------------------------------------------------------------- scoring

/// Pair scoring through the batched Myers path against the seed scalar
/// scorer. Two checks hold at every scale: every scored pair gets
/// byte-identical PairScores from both, and the Myers kernels agree with
/// EditDistanceFull on a sweep of vocabulary string pairs.
bool RunScoring(size_t n_candidates, const std::string&, JsonObject* out) {
  std::cout << "building vocabulary + " << n_candidates
            << " candidate tables...\n"
            << std::flush;
  Rng rng(4321);
  const Vocab vocab(30000, 4000, rng);
  StringPool pool;
  std::vector<ValueId> lefts, rights;
  for (const auto& s : vocab.lefts) lefts.push_back(pool.Intern(s));
  for (const auto& s : vocab.rights) rights.push_back(pool.Intern(s));
  const auto nl = static_cast<uint32_t>(lefts.size());
  const auto nr = static_cast<uint32_t>(rights.size());
  const auto candidates = BuildCandidates(n_candidates, rng, [&] {
    return ValuePair{lefts[SkewedIndex(rng, nl)], rights[SkewedIndex(rng, nr)]};
  });

  std::cout << "blocking...\n" << std::flush;
  BlockingStats bstats;
  const auto pairs = GenerateCandidatePairs(candidates, {}, nullptr, &bstats);
  std::cout << "  " << pairs.size() << " candidate pairs to score ("
            << bstats.dropped_postings << " postings dropped, exact_counts="
            << bstats.exact_counts << ")\n";

  // The reference matches values through the banded DP itself, so both
  // sides run under the same options.
  const CompatibilityOptions opts;
  std::cout << "pair scoring: seed scalar (banded DP, per-pair matching)...\n"
            << std::flush;
  std::vector<PairScores> ref_scores(pairs.size());
  const double scalar_s = MinSeconds(kRepeats, [&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      ref_scores[i] = ComputeCompatibilityReference(
          candidates[pairs[i].a], candidates[pairs[i].b], pool, opts);
    }
  });

  // The session's chunked loop: one BatchApproxMatcher and PairScorer per
  // chunk so mask builds and table resolutions amortize, blocking hints
  // threaded through.
  std::vector<PairScores> fast_scores(pairs.size());
  ScoringStats sstats;
  const double fast_s = MinSeconds(kRepeats, [&] {
    sstats = ScoringStats{};
    constexpr size_t kChunk = 256;
    for (size_t begin = 0; begin < pairs.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, pairs.size());
      BatchApproxMatcher matcher(pool, opts.edit, opts.approximate_matching,
                                 opts.synonyms);
      PairScorer scorer(opts, &matcher);
      for (size_t i = begin; i < end; ++i) {
        const BlockingHint hint{pairs[i].shared_pairs, pairs[i].shared_lefts,
                                bstats.exact_counts};
        fast_scores[i] = scorer.Score(candidates[pairs[i].a],
                                      candidates[pairs[i].b], &hint, &sstats);
      }
      sstats.matcher.Add(matcher.stats());
    }
  });

  size_t score_divergence = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const PairScores& x = ref_scores[i];
    const PairScores& y = fast_scores[i];
    if (x.overlap != y.overlap || x.conflicts != y.conflicts ||
        x.w_pos != y.w_pos || x.w_neg != y.w_neg) {
      ++score_divergence;
    }
  }

  std::cout << "oracle sweep: Myers vs EditDistanceFull on vocabulary pairs"
            << "...\n"
            << std::flush;
  std::vector<std::string> strings = vocab.lefts;
  strings.insert(strings.end(), vocab.rights.begin(), vocab.rights.end());
  size_t oracle_divergence = 0;
  constexpr size_t kOracleSamples = 20000;
  Rng probe(7);
  for (size_t i = 0; i < kOracleSamples; ++i) {
    const std::string& a = probe.Pick(strings);
    const std::string& b = probe.Pick(strings);
    const size_t truth = EditDistanceFull(a, b);
    if (MyersBlocked(a, b) != truth) ++oracle_divergence;
    if (a.size() <= 64 && Myers64(a, b) != truth) ++oracle_divergence;
  }

  const double speedup = scalar_s / fast_s;
  const auto& m = sstats.matcher;
  std::cout << "  scalar " << scalar_s << "s, fast " << fast_s << "s  => "
            << speedup << "x over " << pairs.size() << " pairs\n"
            << "  score divergence " << score_divergence
            << ", oracle divergence " << oracle_divergence << " / "
            << kOracleSamples << " samples\n"
            << "  kernels: " << m.myers64_calls << " myers64, "
            << m.myers_blocked_calls << " blocked, " << m.banded_calls
            << " banded; mask cache " << m.pattern_cache_hits << " hits / "
            << m.pattern_cache_misses << " builds; reuse skipped "
            << sstats.overlap_merges_skipped << " merges\n";

  bool pass = Check(score_divergence == 0 && oracle_divergence == 0,
                    "fast path diverges from the scalar/full oracle");
  if (n_candidates >= kAcceptanceScale) {
    pass &= Check(speedup >= 2.0,
                  "pair-scoring speedup below 2x at acceptance scale");
  }
  out->Add("bench", "bench_gates scoring (bit-parallel Myers pair scoring)")
      .Add("repeats", kRepeats)
      .Add("pair_scoring",
           JsonObject()
               .Add("candidates", candidates.size())
               .Add("pairs_scored", pairs.size())
               .Add("scalar_seconds", scalar_s)
               .Add("fast_seconds", fast_s)
               .Add("speedup", speedup)
               .Add("score_divergence", score_divergence)
               .Add("myers64_calls", m.myers64_calls)
               .Add("myers_blocked_calls", m.myers_blocked_calls)
               .Add("banded_fallback_calls", m.banded_calls)
               .Add("mask_cache_hits", m.pattern_cache_hits)
               .Add("mask_cache_builds", m.pattern_cache_misses)
               .Add("charmask_rejects", m.charmask_rejects)
               .Add("overlap_merges_skipped", sstats.overlap_merges_skipped))
      .Add("oracle_sweep", JsonObject()
                               .Add("samples", kOracleSamples)
                               .Add("divergence", oracle_divergence))
      .Add("passed", pass);
  return pass;
}

// --------------------------------------------------------------- rescore

SynthesisOptions RescoreOptions(size_t edit_cap) {
  SynthesisOptions o = WorldOptions();
  o.compat.edit.cap = edit_cap;
  return o;
}

/// A curator sweeping the approximate-matching cap: one staged session
/// re-runs scoring onward over its materialized candidates and blocked
/// pairs with warm matcher caches, while the monolithic path re-pays index
/// build, extraction, blocking and cold scoring for every option change.
/// The warm results must equal the cold runs', and malformed options must
/// be rejected with InvalidArgument instead of running.
bool RunRescore(size_t n_tables, const std::string&, JsonObject* out) {
  std::cout << "building vocabulary + corpus of " << n_tables
            << " two-column tables...\n"
            << std::flush;
  World world;
  TableCorpus corpus;
  GrowCorpus(&corpus, n_tables, world.vocab, world.rng);

  SynthesisOptions bad = RescoreOptions(10);
  bad.min_pairs = 0;
  bool pass = Check(SynthesisSession(bad).status().code() ==
                        StatusCode::kInvalidArgument,
                    "min_pairs == 0 was not rejected");
  bad = RescoreOptions(10);
  bad.compat.edit.fractional = -1.0;
  pass &= Check(SynthesisSession(bad).status().code() ==
                    StatusCode::kInvalidArgument,
                "negative f_ed was not rejected");

  // Both paths run cap=10 then cap=8, so each repeat compares the same
  // pair of configurations.
  const std::vector<size_t> cap_sweep = {10, 8};
  std::cout << "cold: monolithic full run per option change...\n"
            << std::flush;
  std::map<size_t, SynthesisResult> cold;
  const double cold_s = MinSeconds(kColdRepeats, [&] {
    for (size_t cap : cap_sweep) {
      cold[cap] = Synthesize(RescoreOptions(cap), corpus);
    }
  });

  std::cout << "warm: staged re-score per option change on one session...\n"
            << std::flush;
  SynthesisSession session(RescoreOptions(10));
  const CandidateSet cands =
      Must(session.ExtractCandidates(corpus), "ExtractCandidates");
  const BlockedPairs blocked = Must(session.BlockPairs(cands), "BlockPairs");
  std::map<size_t, SynthesisResult> warm;
  const double warm_s = MinSeconds(kRepeats, [&] {
    for (size_t cap : cap_sweep) {
      Must(session.UpdateOptions(RescoreOptions(cap)), "UpdateOptions");
      warm[cap] = Must(session.FinishFromBlocked(cands, blocked),
                       "FinishFromBlocked");
    }
  });

  size_t divergence = 0;
  for (size_t cap : cap_sweep) {
    if (Canonical(cold[cap], corpus.pool()) !=
        Canonical(warm[cap], corpus.pool())) {
      ++divergence;
    }
  }
  const PipelineStats& cold_stats = cold[cap_sweep.back()].stats;
  const PipelineStats& warm_stats = warm[cap_sweep.back()].stats;
  const double speedup = cold_s / warm_s;
  const auto& ss = session.session_stats();
  std::cout << "  cold " << cold_s << "s, warm " << warm_s << "s  => "
            << speedup << "x over " << cap_sweep.size()
            << " option changes\n"
            << "  candidates " << warm_stats.candidates << ", blocked pairs "
            << warm_stats.candidate_pairs << " (reused verbatim), mappings "
            << warm_stats.mappings << "\n"
            << "  cold per-config stages: index+extract "
            << cold_stats.index_seconds + cold_stats.extract_seconds
            << "s, blocking " << cold_stats.blocking_seconds
            << "s, scoring " << cold_stats.scoring_seconds << "s\n"
            << "  mapping divergence " << divergence << " / "
            << cap_sweep.size() << " configs\n"
            << "  session stage runs: " << ss.extract_runs << " extract, "
            << ss.blocking_runs << " blocking, " << ss.scoring_runs
            << " scoring (" << ss.warm_scoring_runs << " warm), "
            << ss.partition_runs << " partition\n";

  pass &= Check(divergence == 0,
                "warm staged results diverge from cold monolithic results");
  if (n_tables >= kAcceptanceScale) {
    pass &= Check(warm_stats.candidates >= kAcceptanceScale,
                  "corpus yielded fewer than 100k candidates");
    pass &= Check(speedup >= 3.0,
                  "warm re-score speedup below 3x at acceptance scale");
  }
  out->Add("bench",
           "bench_gates rescore (staged session warm re-score vs cold full "
           "run)")
      .Add("repeats", kRepeats)
      .Add("warm_rescore",
           JsonObject()
               .Add("corpus_tables", corpus.size())
               .Add("candidates", warm_stats.candidates)
               .Add("blocked_pairs", warm_stats.candidate_pairs)
               .Add("mappings", warm_stats.mappings)
               .Add("option_changes_per_run", cap_sweep.size())
               .Add("cold_seconds", cold_s)
               .Add("warm_seconds", warm_s)
               .Add("speedup", speedup)
               .Add("mapping_divergence", divergence)
               .Add("cold_index_extract_seconds",
                    cold_stats.index_seconds + cold_stats.extract_seconds)
               .Add("cold_blocking_seconds", cold_stats.blocking_seconds)
               .Add("cold_scoring_seconds", cold_stats.scoring_seconds)
               .Add("warm_scoring_seconds", warm_stats.scoring_seconds)
               .Add("blocking_runs", ss.blocking_runs)
               .Add("scoring_runs", ss.scoring_runs)
               .Add("warm_scoring_runs", ss.warm_scoring_runs))
      .Add("passed", pass);
  return pass;
}

// --------------------------------------------------------------- restore

bool CorporaIdentical(const TableCorpus& a, const TableCorpus& b) {
  if (a.size() != b.size() || a.pool().size() != b.pool().size()) return false;
  for (size_t v = 0; v < a.pool().size(); ++v) {
    if (a.pool().Get(static_cast<ValueId>(v)) !=
        b.pool().Get(static_cast<ValueId>(v))) {
      return false;
    }
  }
  for (size_t t = 0; t < a.size(); ++t) {
    const Table& ta = a.tables()[t];
    const Table& tb = b.tables()[t];
    if (ta.domain != tb.domain || ta.source != tb.source ||
        ta.columns.size() != tb.columns.size()) {
      return false;
    }
    for (size_t c = 0; c < ta.columns.size(); ++c) {
      if (ta.columns[c].name != tb.columns[c].name ||
          ta.columns[c].cells != tb.columns[c].cells) {
        return false;
      }
    }
  }
  return true;
}

size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

/// A restarting deployment restores its staged artifacts from a
/// checksummed snapshot and resumes at partitioning instead of re-paying
/// extraction, blocking and cold scoring; a large corpus opens by mmap
/// instead of cell-by-cell TSV parsing. Checked at every scale: restored
/// mappings equal the cold run's, the mmap store reproduces the parsed
/// corpus, and a corrupted snapshot fails to restore with DataLoss.
bool RunRestore(size_t n_tables, const std::string& scratch,
                JsonObject* out) {
  const std::string snap_path = scratch + "/bench_gates_restore.mssnap";
  const std::string bad_path = scratch + "/bench_gates_corrupt.mssnap";
  const std::string tsv_path = scratch + "/bench_gates_corpus.tsv";
  const std::string store_path = scratch + "/bench_gates_corpus.mscorp";
  std::cout << "building vocabulary + corpus of " << n_tables
            << " two-column tables...\n"
            << std::flush;
  World world;
  TableCorpus corpus;
  GrowCorpus(&corpus, n_tables, world.vocab, world.rng);

  std::cout << "cold: full pipeline run per process start...\n" << std::flush;
  SynthesisResult cold;
  const double cold_s = MinSeconds(
      kColdRepeats, [&] { cold = Synthesize(WorldOptions(), corpus); });

  std::cout << "saving snapshot of staged artifacts...\n" << std::flush;
  double save_s = 0.0;
  {
    SynthesisSession session(WorldOptions());
    const Family f = ColdChain(&session, corpus);
    Timer t;
    Must(session.SaveSnapshot(snap_path, f.candidates, &f.blocked, &f.scored,
                              &f.result),
         "SaveSnapshot");
    save_s = t.ElapsedSeconds();
  }

  bool corruption_rejected = false;
  {
    std::ifstream in(snap_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x04;
    std::ofstream(bad_path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    SynthesisSession session(WorldOptions());
    const auto restored = session.RestoreSnapshot(bad_path);
    corruption_rejected = !restored.ok() &&
                          restored.status().code() == StatusCode::kDataLoss;
    std::remove(bad_path.c_str());
  }

  std::cout << "warm: restore snapshot + partition + resolve per process "
               "start...\n"
            << std::flush;
  SessionSnapshot snap;
  SynthesisResult warm;
  const double warm_s = MinSeconds(kRepeats, [&] {
    SynthesisSession session(WorldOptions());
    snap = Must(session.RestoreSnapshot(snap_path), "RestoreSnapshot");
    const Partitions parts =
        Must(session.Partition(*snap.scored), "Partition");
    warm = Must(session.Resolve(*snap.candidates, *snap.scored, parts),
                "Resolve");
  });
  const size_t warm_candidates = snap.candidates->stats.candidates;
  const size_t divergence =
      Canonical(cold, corpus.pool()) == Canonical(warm, *snap.pool) ? 0 : 1;
  const double restore_speedup = cold_s / warm_s;

  std::cout << "corpus: TSV parse vs mmap store open...\n" << std::flush;
  Must(SaveCorpus(corpus, tsv_path), "SaveCorpus");
  Timer convert_timer;
  Must(persist::ConvertTsvCorpusToStore(tsv_path, store_path),
       "ConvertTsvCorpusToStore");
  const double convert_s = convert_timer.ElapsedSeconds();
  double tsv_s = 1e100;
  double mmap_s = 1e100;
  bool corpora_identical = true;
  for (int r = 0; r < kRepeats; ++r) {
    Timer t1;
    TableCorpus from_tsv;
    Must(LoadCorpus(tsv_path, &from_tsv), "LoadCorpus");
    tsv_s = std::min(tsv_s, t1.ElapsedSeconds());
    Timer t2;
    const auto from_store =
        Must(persist::OpenCorpusStore(store_path), "OpenCorpusStore");
    mmap_s = std::min(mmap_s, t2.ElapsedSeconds());
    corpora_identical =
        corpora_identical && CorporaIdentical(from_tsv, from_store);
  }
  const double open_speedup = tsv_s / mmap_s;
  const size_t snapshot_bytes = FileSize(snap_path);
  const size_t tsv_bytes = FileSize(tsv_path);
  const size_t store_bytes = FileSize(store_path);
  std::remove(snap_path.c_str());
  std::remove(tsv_path.c_str());
  std::remove(store_path.c_str());

  std::cout << "  cold full run " << cold_s << "s, warm restore+resolve "
            << warm_s << "s  => " << restore_speedup << "x\n"
            << "  snapshot: " << snapshot_bytes / (1024.0 * 1024.0)
            << " MiB, saved in " << save_s << "s; mapping divergence "
            << divergence << "\n"
            << "  corpus open: TSV parse " << tsv_s << "s, mmap store "
            << mmap_s << "s  => " << open_speedup << "x (convert once: "
            << convert_s << "s); identical " << corpora_identical << "\n"
            << "  candidates " << warm_candidates << ", mappings "
            << warm.stats.mappings << "\n";

  bool pass = Check(corruption_rejected,
                    "corrupted snapshot did not fail with DataLoss");
  pass &= Check(divergence == 0,
                "restored mappings diverge from the cold run");
  pass &= Check(corpora_identical,
                "mmap corpus store does not reproduce the TSV corpus");
  if (n_tables >= kAcceptanceScale) {
    pass &= Check(warm_candidates >= kAcceptanceScale,
                  "corpus yielded fewer than 100k candidates");
    pass &= Check(restore_speedup >= 5.0,
                  "snapshot-restore speedup below 5x at acceptance scale");
    pass &= Check(open_speedup >= 2.0,
                  "mmap corpus open speedup below 2x at acceptance scale");
  }
  out->Add("bench",
           "bench_gates restore (snapshot restore vs cold run; mmap corpus "
           "open vs TSV parse)")
      .Add("repeats", kRepeats)
      .Add("snapshot_restore",
           JsonObject()
               .Add("corpus_tables", corpus.size())
               .Add("candidates", warm_candidates)
               .Add("blocked_pairs", warm.stats.candidate_pairs)
               .Add("graph_edges", warm.stats.graph_edges)
               .Add("mappings", warm.stats.mappings)
               .Add("cold_seconds", cold_s)
               .Add("warm_seconds", warm_s)
               .Add("speedup", restore_speedup)
               .Add("mapping_divergence", divergence)
               .Add("snapshot_bytes", snapshot_bytes)
               .Add("save_seconds", save_s))
      .Add("corpus_store", JsonObject()
                               .Add("tsv_bytes", tsv_bytes)
                               .Add("store_bytes", store_bytes)
                               .Add("tsv_parse_seconds", tsv_s)
                               .Add("mmap_open_seconds", mmap_s)
                               .Add("open_speedup", open_speedup)
                               .Add("convert_seconds", convert_s)
                               .Add("identical", corpora_identical))
      .Add("passed", pass);
  return pass;
}

// ---------------------------------------------------------------- append

/// Coherence is corpus-global, so a threshold inside the score
/// distribution flips a few verdicts on every 10% growth of this world,
/// and the append then also re-extracts the flipped tables (only a
/// majority flip rebuilds in full). Keeping every column times the plain
/// delta path; the corpus-global re-check still runs and is timed. Flips
/// are covered by tests/incremental_test.cc and the churn gate.
SynthesisOptions AppendOptions() { return WorldOptions(-1.0); }

/// A fleet ingesting new tables: AppendTables re-extracts only the
/// appended tables, blocks and scores only the delta pairs, and re-resolves
/// only the components the delta touched, against a cold full run over the
/// grown corpus. Checked at every scale: mappings and the deterministic
/// counters equal the cold run's.
bool RunAppend(size_t n_tables, const std::string&, JsonObject* out) {
  const size_t n_delta = n_tables / 10;
  const size_t n_base = n_tables - n_delta;
  std::cout << "building vocabulary + corpus of " << n_tables
            << " two-column tables (" << n_base << " base + " << n_delta
            << " appended)...\n"
            << std::flush;
  // The cold corpus holds every table; each incremental one starts with the
  // base prefix and grows mid-gate. Equal streams keep their tables equal.
  World world;
  Rng cold_rng = world.rng;
  TableCorpus cold_corpus;
  GrowCorpus(&cold_corpus, n_tables, world.vocab, cold_rng);

  std::cout << "cold: full pipeline over the grown corpus...\n" << std::flush;
  SynthesisResult cold;
  const double cold_s = MinSeconds(
      kColdRepeats, [&] { cold = Synthesize(AppendOptions(), cold_corpus); });

  // Each timed repeat appends to its own base: a fresh corpus, session and
  // staged chain over the prefix, built outside the timed region. Appending
  // twice from one base would leave the session's blocking key index
  // describing the first append's family, so later repeats would re-block
  // every candidate instead of patching the index.
  std::cout << "append: per repeat, a staged chain over the " << n_base
            << "-table prefix, then (timed) delta extraction + blocking + "
               "scoring + component-restricted resolve...\n"
            << std::flush;
  std::unique_ptr<TableCorpus> inc_corpus;
  std::unique_ptr<SynthesisSession> session;
  AppendedArtifacts grown;
  double append_s = 1e100;
  for (int r = 0; r < kRepeats; ++r) {
    grown = AppendedArtifacts();
    session = std::make_unique<SynthesisSession>(AppendOptions());
    inc_corpus = std::make_unique<TableCorpus>();
    Rng inc_rng = world.rng;
    GrowCorpus(inc_corpus.get(), n_base, world.vocab, inc_rng);
    const Family base = ColdChain(session.get(), *inc_corpus);
    GrowCorpus(inc_corpus.get(), n_delta, world.vocab, inc_rng);
    Timer timer;
    grown = Must(session->AppendTables(*inc_corpus, n_base, base.candidates,
                                       base.blocked, base.scored,
                                       base.partitions, base.result),
                 "AppendTables");
    append_s = std::min(append_s, timer.ElapsedSeconds());
  }
  const PipelineStats& cold_stats = cold.stats;
  const PipelineStats& append_stats = grown.result.stats;
  const AppendStats& info = grown.append;
  const size_t append_candidates = grown.candidates.stats.candidates;
  const size_t divergence = Canonical(cold, cold_corpus.pool()) ==
                                    Canonical(grown.result, inc_corpus->pool())
                                ? 0
                                : 1;
  const bool counters_match =
      cold_stats.candidates == append_stats.candidates &&
      cold_stats.candidate_pairs == append_stats.candidate_pairs &&
      cold_stats.graph_edges == append_stats.graph_edges &&
      cold_stats.partitions == append_stats.partitions &&
      cold_stats.mappings == append_stats.mappings;
  const double speedup = cold_s / append_s;
  std::cout << "  cold full run " << cold_s << "s, append " << append_s
            << "s  => " << speedup << "x\n"
            << "  +" << info.appended_tables << " tables, +"
            << info.new_candidates << " candidates, " << info.delta_pairs
            << " delta pairs (" << cold_stats.candidate_pairs << " total), "
            << info.dirty_components << " dirty / " << info.clean_components
            << " clean components, " << info.carried_mappings
            << " mappings carried\n"
            << "  divergence " << divergence << ", counters match "
            << counters_match << ", fast path "
            << (info.full_rebuild ? "NO (fallback)" : "yes")
            << ", unstable tables " << info.unstable_tables << "\n";

  bool pass = Check(divergence == 0,
                    "appended mappings diverge from the cold rebuild");
  pass &= Check(counters_match,
                "deterministic counters diverge from the cold rebuild");
  if (n_tables >= kAcceptanceScale) {
    pass &= Check(append_candidates >= kAcceptanceScale,
                  "corpus yielded fewer than 100k candidates");
    pass &= Check(!info.full_rebuild,
                  "append fell back to a full rebuild at acceptance scale; "
                  "the delta path was not measured");
    pass &= Check(speedup >= 5.0, "append speedup below the 5x bar");
  }
  out->Add("bench",
           "bench_gates append (incremental corpus growth: append 10% new "
           "tables vs cold full run)")
      .Add("repeats", kRepeats)
      .Add("corpus_tables", n_tables)
      .Add("appended_tables", info.appended_tables)
      .Add("candidates", append_candidates)
      .Add("new_candidates", info.new_candidates)
      .Add("blocked_pairs", append_stats.candidate_pairs)
      .Add("delta_pairs", info.delta_pairs)
      .Add("graph_edges", append_stats.graph_edges)
      .Add("delta_edges", info.delta_edges)
      .Add("dirty_components", info.dirty_components)
      .Add("clean_components", info.clean_components)
      .Add("carried_mappings", info.carried_mappings)
      .Add("mappings", append_stats.mappings)
      .Add("unstable_tables", info.unstable_tables)
      .Add("extraction_stable", info.extraction_stable)
      .Add("full_rebuild_fallback", info.full_rebuild)
      .Add("cold_seconds", cold_s)
      .Add("append_seconds", append_s)
      .Add("speedup", speedup)
      .Add("mapping_divergence", divergence)
      .Add("counters_match", counters_match)
      .Add("passed", pass);
  return pass;
}

// ----------------------------------------------------------------- churn

/// Coherence on: shard-local vocabularies make every name/code column
/// strongly coherent, so scores sit well above this threshold and every
/// verdict holds. The corpus-global re-check still runs inside every timed
/// mutation, and the margin cache keeps it off the inverted index. A
/// threshold inside the score distribution would flip verdicts on every
/// mutation, which would then also re-extract the flipped tables (a
/// majority flip rebuilds in full); tests/incremental_test.cc covers that.
SynthesisOptions ChurnOptions() { return WorldOptions(0.05); }

struct ChurnPhase {
  double seconds = 0;
  double cold_seconds = 0;
  double speedup = 0;
  size_t divergence = 0;
  AppendStats info;
};

/// Times one mutation of `family`, then a cold full run over the mutated
/// corpus as the oracle: tombstoned shells contribute no columns, so the
/// mutated corpus is the surviving corpus.
template <typename Mutate>
ChurnPhase TimeChurnPhase(const char* what, Family* family,
                          const TableCorpus& corpus, Mutate&& mutate) {
  ChurnPhase p;
  Timer t;
  AppendedArtifacts a = Must(mutate(), what);
  p.seconds = t.ElapsedSeconds();
  p.info = a.append;
  Adopt(family, std::move(a));
  Timer cold_timer;
  const SynthesisResult cold = Synthesize(ChurnOptions(), corpus);
  p.cold_seconds = cold_timer.ElapsedSeconds();
  p.divergence = Canonical(family->result, corpus.pool()) ==
                         Canonical(cold, corpus.pool())
                     ? 0
                     : 1;
  p.speedup = p.cold_seconds / p.seconds;
  std::cout << "  " << what << " " << p.seconds << "s vs cold "
            << p.cold_seconds << "s => " << p.speedup << "x, divergence "
            << p.divergence << ", margin skips " << p.info.margin_skips
            << " / rechecks " << p.info.margin_rechecks << ", fast path "
            << (p.info.full_rebuild ? "NO (fallback)" : "yes") << "\n";
  return p;
}

/// A fleet that grows, retracts (takedowns, de-listings) and re-crawls:
/// one warm session appends the last 10% of the corpus, removes 10% of the
/// survivors and replaces another 10% with fresh variants, each timed
/// against a cold full run over the same mutated corpus, all with the
/// coherence filter on. Every phase's mappings must equal its cold run's.
///
/// Table id picks a vocabulary shard, so a contiguous 10% span of ids
/// touches about 7 of the 64 shards, the way crawls arrive site by site.
/// That locality lets the margin cache rule the other shards' columns
/// stable; a corpus-wide vocabulary (the append gate's) defeats it by
/// construction.
bool RunChurn(size_t n_tables, const std::string&, JsonObject* out) {
  const size_t n_delta = n_tables / 10;
  const size_t n_base = n_tables - n_delta;
  const size_t shard_block = n_tables / kShards > 0 ? n_tables / kShards : 1;
  std::cout << "building vocabulary + corpus of " << n_tables
            << " two-column tables (" << n_base << " base + " << n_delta
            << " appended)...\n"
            << std::flush;
  World world;
  TableCorpus corpus;
  GrowCorpus(&corpus, n_base, world.vocab, world.rng, shard_block);

  std::cout << "base: staged chain over the " << n_base
            << "-table prefix (coherence ON)...\n"
            << std::flush;
  SynthesisSession session(ChurnOptions());
  Family fam = ColdChain(&session, corpus);

  std::cout << "phase 1: append " << n_delta << " tables...\n" << std::flush;
  GrowCorpus(&corpus, n_delta, world.vocab, world.rng, shard_block);
  const ChurnPhase append = TimeChurnPhase("append", &fam, corpus, [&] {
    return session.AppendTables(corpus, n_base, fam.candidates, fam.blocked,
                                fam.scored, fam.partitions, fam.result);
  });

  // Takedowns and re-crawls arrive site-clustered: contiguous 10% spans.
  const auto span = [&](size_t begin) {
    std::vector<uint32_t> ids;
    for (size_t id = begin; id < corpus.size() && ids.size() < n_tables / 10;
         ++id) {
      ids.push_back(static_cast<uint32_t>(id));
    }
    return ids;
  };
  const std::vector<uint32_t> removed = span(shard_block * 10);
  std::cout << "phase 2: remove " << removed.size() << " tables...\n"
            << std::flush;
  const ChurnPhase remove = TimeChurnPhase("remove", &fam, corpus, [&] {
    return session.RemoveTables(&corpus, removed, fam.candidates, fam.blocked,
                                fam.scored, fam.partitions, fam.result);
  });

  const std::vector<uint32_t> replaced = span(shard_block * 30);
  TableCorpus delta;
  GrowCorpus(&delta, replaced.size(), world.vocab, world.rng, shard_block);
  std::cout << "phase 3: replace " << replaced.size() << " tables...\n"
            << std::flush;
  const ChurnPhase replace = TimeChurnPhase("replace", &fam, corpus, [&] {
    return session.ReplaceTables(&corpus, replaced, delta, fam.candidates,
                                 fam.blocked, fam.scored, fam.partitions,
                                 fam.result);
  });

  const size_t candidates = fam.candidates.num_live();
  bool pass = Check(
      append.divergence + remove.divergence + replace.divergence == 0,
      "a mutation diverged from its cold-rebuild oracle");
  if (n_tables >= kAcceptanceScale) {
    pass &= Check(candidates >= kAcceptanceScale,
                  "corpus yielded fewer than 100k live candidates");
    pass &= Check(!append.info.full_rebuild,
                  "append fell back to a full rebuild at acceptance scale; "
                  "the delta path was not measured");
    pass &= Check(append.speedup >= 5.0, "append speedup below the 5x bar");
    pass &= Check(remove.speedup >= 3.0, "remove speedup below the 3x bar");
    pass &= Check(replace.speedup >= 3.0, "replace speedup below the 3x bar");
  }
  out->Add("bench",
           "bench_gates churn (incremental churn with coherence ON: 10% "
           "append / remove / replace vs cold full runs)")
      .Add("corpus_tables", n_tables)
      .Add("coherence_threshold", ChurnOptions().extraction.coherence_threshold)
      .Add("live_candidates", candidates);
  const auto add_phase = [&](const std::string& name, const ChurnPhase& p) {
    out->Add(name + "_seconds", p.seconds)
        .Add(name + "_cold_seconds", p.cold_seconds)
        .Add(name + "_speedup", p.speedup)
        .Add(name + "_divergence", p.divergence)
        .Add(name + "_margin_skips", p.info.margin_skips)
        .Add(name + "_margin_rechecks", p.info.margin_rechecks);
  };
  add_phase("append", append);
  out->Add("append_unstable_tables", append.info.unstable_tables)
      .Add("append_full_rebuild", append.info.full_rebuild)
      .Add("removed_tables", removed.size());
  add_phase("remove", remove);
  out->Add("replaced_tables", replaced.size());
  add_phase("replace", replace);
  out->Add("passed", pass);
  return pass;
}

struct Gate {
  const char* name;
  size_t default_n;
  bool (*run)(size_t n, const std::string& scratch, JsonObject* out);
};

constexpr Gate kGates[] = {
    {"blocking", 100000, RunBlocking}, {"scoring", 100000, RunScoring},
    {"rescore", 118000, RunRescore},   {"restore", 118000, RunRestore},
    {"append", 118000, RunAppend},     {"churn", 118000, RunChurn},
};

}  // namespace
}  // namespace ms::bench

int main(int argc, char** argv) {
  using namespace ms::bench;
  const std::string which = argc > 1 ? argv[1] : "";
  const size_t n = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 0;
  const std::string out_path = argc > 3 ? argv[3] : "bench_gates.json";
  const std::string scratch = argc > 4 ? argv[4] : MS_PERSIST_SCRATCH_DIR;

  JsonObject json;
  std::string summary;
  bool ran = false;
  bool pass = true;
  for (const Gate& gate : kGates) {
    if (which != "all" && which != gate.name) continue;
    ran = true;
    std::cout << "=== " << gate.name << "\n" << std::flush;
    JsonObject result;
    const bool ok = gate.run(n > 0 ? n : gate.default_n, scratch, &result);
    json.Add(gate.name, result);
    summary += std::string(gate.name) + (ok ? " PASS\n" : " FAIL\n");
    pass = pass && ok;
  }
  if (!ran) {
    std::cerr << "usage: " << argv[0]
              << " <blocking|scoring|rescore|restore|append|churn|all> [n] "
                 "[out.json] [scratch_dir]\n";
    return 2;
  }
  std::cout << summary;
  if (!json.Write(out_path)) return 1;
  return pass ? 0 : 1;
}
