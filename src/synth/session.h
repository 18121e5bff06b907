// Staged synthesis session: the production entry point to the paper's
// pipeline (Figure 1), redesigned around explicit, individually-runnable
// stages with materialized artifacts:
//
//   ExtractCandidates() -> CandidateSet
//   BlockPairs()        -> BlockedPairs
//   ScorePairs()        -> ScoredGraph
//   Partition()         -> Partitions
//   Resolve()           -> SynthesisResult
//
// Each stage takes the previous stage's artifact, so callers that
// re-synthesize with tweaked thresholds only re-run the stages downstream
// of the change: new CompatibilityOptions re-score the *same* BlockedPairs
// verbatim; new PartitionerOptions re-partition the same ScoredGraph. The
// session owns the warm state worth keeping across runs — the ThreadPool,
// per-worker BatchApproxMatcher caches (pattern bitmasks survive re-scoring
// runs), and an immutable SynonymSnapshot refreshed only when the
// dictionary actually changed.
//
// All fallible entry points return Status / Result<T> (common/status.h):
// malformed options are rejected with InvalidArgument by
// SynthesisOptions::Validate() instead of silently misbehaving, artifacts
// fed to the wrong stage or the wrong session fail with FailedPrecondition
// instead of undefined behavior, and corpus-loading failures propagate.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "extract/candidate_extraction.h"
#include "graph/weighted_graph.h"
#include "synth/blocking.h"
#include "synth/compatibility.h"
#include "synth/conflict_resolution.h"
#include "synth/mapping.h"
#include "synth/partitioner.h"
#include "table/corpus.h"

namespace ms {

struct SynthesisOptions {
  ExtractionOptions extraction;
  BlockingOptions blocking;
  CompatibilityOptions compat;
  PartitionerOptions partitioner;
  ConflictResolutionOptions conflict;

  /// Run Algorithm 4 after partitioning (Section 5.6 ablates this).
  bool resolve_conflicts = true;
  /// Use majority voting instead of Algorithm 4 (Section 5.6 comparison).
  bool use_majority_voting = false;
  /// Split the graph into positively-connected components first and
  /// partition each independently (Appendix F). Off = one global run.
  bool divide_and_conquer = true;

  /// Curation filter (Section 4.3: the paper keeps mappings from >= 8
  /// independent domains; defaults here suit laptop-scale corpora).
  size_t min_domains = 2;
  size_t min_pairs = 4;

  /// Worker threads (0 = hardware concurrency).
  size_t num_threads = 0;

  /// Per-worker cap on the session matchers' value caches (0 = unbounded).
  /// Long-lived sessions re-score many corpora; the cap bounds mask-table
  /// memory at a whole-cache flush per overflow (cache contents never
  /// affect results).
  size_t matcher_cache_cap = 1 << 20;

  /// Rejects configurations that would silently misbehave — min_pairs == 0,
  /// thresholds outside their domain, num_threads overflow — with
  /// InvalidArgument, composing every sub-option's Validate().
  Status Validate() const;
};

/// Wall-clock and cardinality accounting for each pipeline step; feeds the
/// runtime/scalability figures. Stage artifacts carry the cumulative stats
/// of their ancestry, so a staged run reports exactly what a monolithic one
/// does.
struct PipelineStats {
  double index_seconds = 0.0;
  double extract_seconds = 0.0;
  double blocking_seconds = 0.0;
  double scoring_seconds = 0.0;
  double partition_seconds = 0.0;
  double resolve_seconds = 0.0;
  double total_seconds = 0.0;

  /// Blocking-internal phase breakdown (sums to ~blocking_seconds; names
  /// kept from an earlier engine because snapshots persist them).
  double blocking_map_shuffle_seconds = 0.0;  ///< key-index build or patch
  double blocking_count_seconds = 0.0;        ///< row count
  double blocking_reduce_seconds = 0.0;       ///< a mutation's pair splice

  /// Scoring-stage breakdown: bit-parallel kernel mix (Myers64 vs blocked),
  /// pattern-mask cache effectiveness, and how many pair merges the
  /// blocking-count reuse eliminated.
  ScoringStats scoring;

  size_t candidates = 0;
  size_t candidate_pairs = 0;  ///< pairs surviving blocking
  size_t blocking_keys = 0;    ///< distinct blocking keys
  /// Postings dropped by BlockingOptions::max_posting truncation; non-zero
  /// means high-id candidates silently lost potential pairs.
  size_t blocking_dropped_postings = 0;
  /// Candidates touched by truncation (only their pairs lose count reuse).
  size_t blocking_tainted_candidates = 0;
  size_t graph_edges = 0;      ///< pairs with non-zero w+ or w-
  size_t components = 0;
  size_t partitions = 0;
  size_t mappings = 0;         ///< after curation filter
  ExtractionStats extraction;  ///< includes normalize-cache hit/miss counts
};

struct SynthesisResult {
  std::vector<SynthesizedMapping> mappings;
  PipelineStats stats;
};

/// Stage 1 artifact: extracted (or adopted) candidate binary tables plus
/// the pool their ValueIds resolve against. The pool and any borrowed
/// candidate vector must outlive the artifact.
struct CandidateSet {
  const std::vector<BinaryTable>& tables() const {
    return borrowed ? *borrowed : owned;
  }
  const StringPool* pool = nullptr;
  PipelineStats stats;  ///< cumulative: index + extraction

  std::vector<BinaryTable> owned;              ///< ExtractCandidates fills
  const std::vector<BinaryTable>* borrowed = nullptr;  ///< AdoptCandidates

  uint64_t artifact_id = 0;   ///< session-unique; stages verify lineage
  const void* session = nullptr;

  /// Append generation: 0 for a cold extraction, +1 per AppendTables merge.
  /// Persists through snapshots, so lineage records how a restored artifact
  /// family was grown.
  uint32_t generation = 0;
  /// Number of corpus tables this candidate set was extracted from; the
  /// required `first_new_table` of the next append.
  uint64_t source_tables = 0;
  /// Per-table kept-column signatures from extraction (see
  /// ExtractionResult); empty for adopted candidate sets, which therefore
  /// cannot be appended to. Incremental mutations re-check these under the
  /// mutated corpus index — coherence is corpus-global — re-extracting
  /// just the tables whose verdict flipped.
  std::vector<uint32_t> kept_offsets;
  std::vector<uint32_t> kept_columns;
  /// Margin cache mirroring ExtractionResult::margins: one profile per
  /// column of each width-passed source table, CSR over table index. Lets
  /// the next mutation skip coherence re-checks whose verdict provably
  /// cannot flip. Empty when the filter is disabled or the set was adopted
  /// or restored from a pre-v3 snapshot.
  std::vector<uint32_t> margin_offsets;
  std::vector<CoherenceProfile> margins;
  /// Count cache mirroring ExtractionResult::counts: every sampled pair's
  /// c_uv per margin, so the next mutation re-scores a column from these
  /// moved by its delta columns instead of walking posting lists. Held in
  /// memory only: snapshots do not persist it, so a restored family (like
  /// an adopted one, or one whose filter is disabled) has none. Its first
  /// mutation still settles what the margin skip can, and walks every
  /// other column in full, which fills that column's slice; a skipped
  /// column keeps an empty slice until it is re-checked.
  std::vector<uint64_t> count_offsets;
  std::vector<uint32_t> counts;
  /// The coherence options `margins` and `counts` were computed under (a
  /// restored family's are the session's, which its snapshot's fingerprint
  /// matched). A mutation under other options re-checks every column;
  /// only a change of min_value_support keeps the counts.
  CoherenceOptions counted_under;
  /// Corpus table ids tombstoned by RemoveTables/ReplaceTables, sorted.
  /// Tombstoned tables keep their corpus slots (ids stay stable); their
  /// candidates are marked dead below.
  std::vector<uint32_t> tombstoned_tables;
  /// Per-candidate tombstone bitmap; empty means all live. Dead candidates
  /// keep their ids (graph-vertex stability) but their pair contents are
  /// cleared, so every downstream stage sees them as empty vertices with
  /// no pairs, no blocking keys, and no edges — exactly the footprint of a
  /// candidate that was never extracted.
  std::vector<uint8_t> dead;

  bool is_dead(BinaryTableId id) const {
    return id < dead.size() && dead[id] != 0;
  }
  size_t num_dead() const {
    size_t n = 0;
    for (uint8_t d : dead) n += d;
    return n;
  }
  size_t num_live() const { return tables().size() - num_dead(); }
};

/// Stage 2 artifact: the candidate pairs that survived blocking, with
/// per-pair count-exactness for the scoring fast path.
struct BlockedPairs {
  std::vector<CandidateTablePair> pairs;
  BlockingStats blocking;
  PipelineStats stats;  ///< cumulative through blocking

  uint64_t artifact_id = 0;
  uint64_t candidates_id = 0;  ///< the CandidateSet this was blocked from
  const void* session = nullptr;
};

/// Stage 3 artifact: the exact w+/w- compatibility graph.
struct ScoredGraph {
  CompatibilityGraph graph;
  PipelineStats stats;  ///< cumulative through scoring
  /// The candidate set's cold order, one key per vertex: each candidate's
  /// source table when its live ids have left table order (a minority
  /// coherence flip re-extracts tables at tail ids), empty otherwise (id
  /// order). Partition() and Resolve() take every scope's and every
  /// group's members by (order[v], v), the order a cold rebuild's dense
  /// ids impose, since the greedy partitioner and conflict resolution break
  /// ties on member position. Derived from the candidates, never persisted.
  std::vector<uint32_t> order;

  uint64_t artifact_id = 0;
  uint64_t candidates_id = 0;
  const void* session = nullptr;
};

/// Stage 4 artifact: the greedy partitioning (Algorithm 3).
struct Partitions {
  PartitionResult partition;
  PipelineStats stats;  ///< cumulative through partitioning

  uint64_t artifact_id = 0;
  uint64_t candidates_id = 0;
  uint64_t graph_id = 0;  ///< the ScoredGraph this was partitioned from
  const void* session = nullptr;
};

/// What one incremental mutation (AppendTables / RemoveTables /
/// ReplaceTables) did, for observability and tests. The contract is
/// equivalence with a cold rebuild over the mutated corpus — byte-level
/// for appends that flip no coherence verdict; otherwise identical once
/// each live candidate is mapped to its cold id (live ids in (source table,
/// id) order; dead slots ignored): same blocked pairs, taint, graph edges
/// and mappings. These counters expose how much work the delta restriction
/// actually saved.
struct AppendStats {
  size_t appended_tables = 0;
  size_t removed_tables = 0;
  size_t new_candidates = 0;
  /// Candidates tombstoned by this mutation (removed tables' plus flipped
  /// tables' superseded extractions).
  size_t removed_candidates = 0;
  /// Blocked pairs the base run did not have: every pair touching a new
  /// candidate, plus old pairs a removal pulled back under a truncated
  /// posting list. The only pairs that were scored.
  size_t delta_pairs = 0;
  /// Graph edges spliced in from the delta pairs.
  size_t delta_edges = 0;
  /// Blocking rows recounted: new, retired, displaced and resurrected
  /// candidates, or every live one when the key index was rebuilt.
  size_t block_rows = 0;
  /// Partition scopes (positive components; the whole graph without
  /// divide-and-conquer) holding a dirty vertex — a new or retired
  /// candidate, or an endpoint of a delta edge or of a base edge whose pair
  /// no longer survives blocking. The only ones re-partitioned and
  /// re-resolved; clean scopes carry their partitions and mappings.
  size_t dirty_components = 0;
  size_t clean_components = 0;
  /// Mappings carried over verbatim from the previous result (their scopes
  /// hold no dirty vertex, so their greedy partition and conflict
  /// resolution are provably unchanged).
  size_t carried_mappings = 0;
  /// False iff some pre-existing table's coherence verdict flipped under
  /// the mutated corpus statistics. A flip stays on the delta path: the
  /// flipped tables are re-extracted at tail ids, and truncation,
  /// partitioning and conflict resolution follow (source table, id) order,
  /// so where those ids landed does not matter (ScoredGraph::order).
  bool extraction_stable = false;
  /// How many old tables flipped (0 when extraction_stable). Flipped
  /// tables are re-extracted in place (their old candidates tombstoned,
  /// fresh ones appended); only a majority flip degrades to a full
  /// rebuild. Thresholds sitting on a score's decision boundary drive
  /// this up.
  size_t unstable_tables = 0;
  /// Margin-cache effectiveness for this mutation: coherence verdicts
  /// settled by the cached monotonicity bound vs exact re-checks paid.
  /// `cached_rechecks` of the re-checks re-scored from the base family's
  /// cached counts; the rest walked the index in full.
  size_t margin_skips = 0;
  size_t margin_rechecks = 0;
  size_t cached_rechecks = 0;
  /// True only when a majority of the surviving old tables flipped their
  /// coherence verdict (unstable_tables * 2 > live old tables): an internal
  /// cold re-run then replaces partial re-extraction (results are still
  /// exact; ids re-densify and tombstones compact away). Every other
  /// mutation, truncated posting lists included, stays on the delta path.
  bool full_rebuild = false;
  double append_seconds = 0.0;
};

/// The merged artifact family one AppendTables call produces: a complete,
/// self-consistent replacement for the inputs, byte-equivalent to running
/// the full chain cold over the grown corpus.
struct AppendedArtifacts {
  CandidateSet candidates;
  BlockedPairs blocked;
  ScoredGraph scored;
  Partitions partitions;
  SynthesisResult result;
  AppendStats append;
};

/// Stable 64-bit fingerprint of every option that affects artifact
/// *contents* (extraction, blocking, scoring, partitioning, conflict and
/// curation knobs, plus the synonym dictionary version when one is wired
/// in). Pure-speed knobs — num_threads, matcher_cache_cap — are excluded:
/// results are identical across them by construction, so a snapshot saved
/// under one machine's tuning restores under another's. Snapshots embed this
/// fingerprint and RestoreSnapshot refuses (FailedPrecondition) when it does
/// not match the restoring session's options.
uint64_t OptionsFingerprint(const SynthesisOptions& options);

/// A process-restart image restored from a snapshot file: the stage
/// artifacts (and, when saved, the final result) of a previous session,
/// rebuilt without re-running extraction, blocking, or scoring. The pool is
/// zero-copy — its strings are string_views into the mmap'd snapshot, which
/// the pool itself keeps alive (StringPool::RetainBacking) — so the
/// snapshot holder can hand `pool` to long-lived consumers (MappingStore)
/// and drop the rest. Artifacts reference `pool` and must not outlive it.
struct SessionSnapshot {
  std::shared_ptr<StringPool> pool;
  std::unique_ptr<CandidateSet> candidates;
  std::unique_ptr<BlockedPairs> blocked;  ///< null when not saved
  std::unique_ptr<ScoredGraph> scored;    ///< null when not saved
  bool has_result = false;
  SynthesisResult result;
};

class SynthesisSession {
 public:
  /// Validates `options` into status(); every stage refuses to run while
  /// status() is not OK, so a misconfigured session fails loudly instead
  /// of synthesizing garbage.
  explicit SynthesisSession(SynthesisOptions options = {});
  ~SynthesisSession();

  SynthesisSession(const SynthesisSession&) = delete;
  SynthesisSession& operator=(const SynthesisSession&) = delete;

  /// Construction-time (or last UpdateOptions) validation verdict.
  Status status() const { return init_status_; }

  /// Validates and swaps in a new configuration. Warm state survives where
  /// validity allows (matcher caches keep their masks unless
  /// edit.fractional changed; the thread pool is rebuilt only when
  /// num_threads changed). Existing artifacts stay usable — feed them to
  /// the stages downstream of what the new options changed.
  Status UpdateOptions(SynthesisOptions options);

  const SynthesisOptions& options() const { return options_; }
  ThreadPool* threads() { return threads_.get(); }

  /// The IO environment Save/RestoreSnapshot route through. Defaults to
  /// Env::Default() (real syscalls); tests install a FaultInjectionEnv to
  /// exercise the failure paths deterministically. Not part of the options
  /// fingerprint — the env changes how bytes reach disk, never the bytes.
  void set_env(Env* env) { env_ = env != nullptr ? env : Env::Default(); }
  Env* env() const { return env_; }

  /// Stage 1: inverted-index build + candidate extraction (Algorithm 1).
  /// The corpus (and its pool) must outlive the returned artifact.
  Result<CandidateSet> ExtractCandidates(const TableCorpus& corpus);

  /// Stage 1 alternative: adopt pre-extracted candidates (ids must be dense
  /// 0..n-1). Borrows `candidates`; both it and `pool` must outlive the
  /// artifact.
  Result<CandidateSet> AdoptCandidates(
      const std::vector<BinaryTable>& candidates, const StringPool& pool);

  /// Stage 2: inverted-index blocking (Section 4.1 "Efficiency"). Posting
  /// lists truncate in (source table, id) order, which is id order for
  /// every cold extraction and adopted set, so a mutated family re-blocks
  /// exactly as its cold rebuild would.
  Result<BlockedPairs> BlockPairs(const CandidateSet& candidates);

  /// Stage 3: exact w+/w- scoring of every blocked pair through the
  /// session's warm per-worker matchers. Re-running after a
  /// CompatibilityOptions change reuses the BlockedPairs verbatim and every
  /// still-valid cached pattern mask.
  Result<ScoredGraph> ScorePairs(const CandidateSet& candidates,
                                 const BlockedPairs& blocked);

  /// Stage 4: greedy partitioning (Algorithm 3), divide-and-conquer per
  /// positive component when options().divide_and_conquer. Members are
  /// taken in `graph.order` (see ScoredGraph), so a mutated family
  /// re-partitions exactly as its cold rebuild would.
  Result<Partitions> Partition(const ScoredGraph& graph);

  /// Stage 5: conflict resolution (Algorithm 4) + mapping assembly +
  /// curation filter. `graph` supplies the member order (ScoredGraph::order)
  /// and stats lineage.
  Result<SynthesisResult> Resolve(const CandidateSet& candidates,
                                  const ScoredGraph& graph,
                                  const Partitions& partitions);

  // ------------------------------------------------------------ composites

  /// Full chain from a raw corpus.
  Result<SynthesisResult> Run(const TableCorpus& corpus);

  /// Full chain from pre-extracted candidates.
  Result<SynthesisResult> RunOnCandidates(
      const std::vector<BinaryTable>& candidates, const StringPool& pool);

  /// Loads a TSV corpus into `*corpus` (caller-owned: mappings reference
  /// its pool) and runs the full chain. IO and parse failures propagate —
  /// previously a corrupt dump synthesized zero mappings indistinguishably
  /// from an empty corpus.
  Result<SynthesisResult> RunOnCorpusFile(const std::string& path,
                                          TableCorpus* corpus);

  /// Blocking onward from an existing candidate artifact (warm re-run after
  /// extraction-irrelevant option changes).
  Result<SynthesisResult> FinishFromCandidates(const CandidateSet& candidates);

  /// Scoring onward from existing artifacts: the warm re-score path.
  Result<SynthesisResult> FinishFromBlocked(const CandidateSet& candidates,
                                            const BlockedPairs& blocked);

  // ------------------------------------------------------- incremental growth

  /// Incremental corpus growth: `corpus` is the *grown* corpus — the same
  /// tables the input artifacts were synthesized from at indices
  /// [0, first_new_table) plus the appended tables after them — and the
  /// returned artifact family is byte-equivalent to a cold full run over
  /// it, at delta cost:
  ///   - the session's inverted index is patched in place and every old
  ///     table's kept-column signature re-checked (coherence is
  ///     corpus-global; this is the exactness tax), but extraction's
  ///     normalize + FD work runs only over the appended tables;
  ///   - blocking patches the session's key index and recounts only the
  ///     rows of candidates whose kept posting-list membership changed
  ///     (any other family rebuilds it and recounts every row); base pairs
  ///     and edges that no longer survive are dropped;
  ///   - only pairs the base never scored are scored (through the warm
  ///     per-worker matchers) and spliced into the existing graph;
  ///   - only partition scopes holding a new candidate or touching a
  ///     changed edge are re-partitioned and re-resolved; the others'
  ///     mappings carry over verbatim.
  /// Tables whose coherence verdict flipped are re-extracted in place; only
  /// a majority flip falls back to running the steps again from an empty
  /// base (AppendStats::full_rebuild) — exactness is never traded for
  /// speed.
  ///
  /// `first_new_table` must equal candidates.source_tables. All artifacts
  /// must share lineage. `candidates` must carry extraction signatures
  /// (adopted candidate sets fail with FailedPrecondition). The corpus pool
  /// may be a different object than the artifacts' pool (the
  /// restore-then-append path) as long as it is id-compatible — verified.
  Result<AppendedArtifacts> AppendTables(const TableCorpus& corpus,
                                         size_t first_new_table,
                                         const CandidateSet& candidates,
                                         const BlockedPairs& blocked,
                                         const ScoredGraph& scored,
                                         const Partitions& partitions,
                                         const SynthesisResult& result);

  /// Convenience: merges `delta`'s tables into `*corpus` (re-interning into
  /// its pool) and appends them. The ingestion shape of a serving fleet:
  /// batches arrive as independently-loaded corpora. A failure after the
  /// merge rolls the corpus (tables and pool tail) back, as the removing
  /// entry points below do.
  Result<AppendedArtifacts> AppendCorpus(TableCorpus* corpus,
                                         const TableCorpus& delta,
                                         const CandidateSet& candidates,
                                         const BlockedPairs& blocked,
                                         const ScoredGraph& scored,
                                         const Partitions& partitions,
                                         const SynthesisResult& result);

  /// Incremental removal: tombstones `removed` tables in `*corpus` (their
  /// columns are cleared in place — slots and ids stay stable, which is
  /// what keeps every retained candidate id, mapping member list, and
  /// snapshot reference valid) and returns an artifact family whose
  /// mappings match a cold rebuild over the surviving tables. Costs scale
  /// with the removed tables' footprint: their postings are deleted from
  /// the maintained index in place, their candidates tombstoned, and only
  /// graph components that lost a candidate (or sat next to one) are
  /// re-partitioned and re-resolved — clean components carry their
  /// mappings verbatim. Coherence re-checks of surviving tables go
  /// through the margin cache like appends. Duplicate or out-of-range ids
  /// in `removed` fail with InvalidArgument before any mutation; removing
  /// an already tombstoned table is a no-op contribution.
  Result<AppendedArtifacts> RemoveTables(TableCorpus* corpus,
                                         std::vector<uint32_t> removed,
                                         const CandidateSet& candidates,
                                         const BlockedPairs& blocked,
                                         const ScoredGraph& scored,
                                         const Partitions& partitions,
                                         const SynthesisResult& result);

  /// Incremental replace: one atomic remove + append — tombstones
  /// `removed` in `*corpus`, merges `delta`'s tables at the tail
  /// (re-interning into the corpus pool), and reconciles the artifact
  /// family in a single maintenance pass (one index patch, one coherence
  /// re-check sweep, one dirty-component resolve). Equivalent to
  /// RemoveTables followed by AppendCorpus but at single-mutation cost.
  Result<AppendedArtifacts> ReplaceTables(TableCorpus* corpus,
                                          std::vector<uint32_t> removed,
                                          const TableCorpus& delta,
                                          const CandidateSet& candidates,
                                          const BlockedPairs& blocked,
                                          const ScoredGraph& scored,
                                          const Partitions& partitions,
                                          const SynthesisResult& result);

  // ------------------------------------------------------------ persistence

  /// Writes a versioned, checksummed snapshot (persist/snapshot.h) of the
  /// given artifacts — and the string pool they resolve against — to
  /// `path`. `candidates` is mandatory (every other artifact references
  /// it); `blocked`/`scored`/`result` are optional and round-trip when
  /// present. Artifacts must carry this session's lineage (same
  /// FailedPrecondition discipline as the stages). The snapshot embeds
  /// OptionsFingerprint(options()).
  Status SaveSnapshot(const std::string& path, const CandidateSet& candidates,
                      const BlockedPairs* blocked = nullptr,
                      const ScoredGraph* scored = nullptr,
                      const SynthesisResult* result = nullptr);

  /// Restores a snapshot into this session: artifacts come back with their
  /// saved lineage ids and cumulative PipelineStats, stamped as this
  /// session's own (the artifact-id counter advances past them), ready to
  /// feed straight into the downstream stages — RestoreSnapshot then
  /// Partition+Resolve is the warm-restart path. Fails with
  /// FailedPrecondition when the snapshot's options fingerprint does not
  /// match OptionsFingerprint(options()) — call UpdateOptions with the
  /// saving configuration first — and with DataLoss on a truncated or
  /// corrupted file.
  Result<SessionSnapshot> RestoreSnapshot(const std::string& path);

  /// Per-stage run counters: lets callers (and tests) assert which stages a
  /// warm re-run actually executed.
  struct SessionStats {
    size_t extract_runs = 0;
    size_t adopt_runs = 0;
    size_t blocking_runs = 0;
    size_t scoring_runs = 0;
    size_t partition_runs = 0;
    size_t resolve_runs = 0;
    /// Scoring runs whose per-worker matchers started warm (caches kept).
    size_t warm_scoring_runs = 0;
    /// Synonym snapshots (re)built because the dictionary version moved.
    size_t snapshot_rebuilds = 0;
    /// Persistence round trips through Save/RestoreSnapshot.
    size_t snapshot_saves = 0;
    size_t snapshot_restores = 0;
    /// Incremental corpus growth: successful AppendTables / AppendCorpus
    /// calls, and how many incremental mutations lost the delta fast path
    /// to a majority coherence-verdict flip (the steps re-run from an
    /// empty base).
    size_t append_runs = 0;
    size_t append_full_rebuilds = 0;
    /// Incremental shrink/churn: successful RemoveTables / ReplaceTables
    /// calls.
    size_t remove_runs = 0;
    size_t replace_runs = 0;
  };
  const SessionStats& session_stats() const { return session_stats_; }

 private:
  struct MatcherSlots;

  Status ReadyToRun() const;
  /// Re-takes the session snapshot iff `dict`'s version moved; returns it.
  const SynonymSnapshot* RefreshSnapshot(const SynonymDictionary* dict);
  /// Effective per-run options with the session snapshot wired in.
  CompatibilityOptions EffectiveCompat();
  ConflictResolutionOptions EffectiveConflict();
  uint64_t NextArtifactId() { return next_artifact_id_++; }
  /// Scores `pairs` over `tables` through the session's persistent
  /// per-worker matchers (building/warming them as needed) into the edges
  /// of the pairs that scored, in pair order; the score step's, so cold
  /// runs and mutations score alike.
  std::vector<CompatEdge> ScoreThroughSessionMatchers(
      const std::vector<BinaryTable>& tables, const StringPool& pool,
      const std::vector<CandidateTablePair>& pairs, ScoringStats* scoring);
  Status CheckSameSession(const char* stage, const void* session) const;
  Status CheckLineage(const char* stage, const void* session,
                      uint64_t got_candidates_id,
                      uint64_t want_candidates_id) const;
  /// All artifact-side preconditions of a mutation (lineage, extraction
  /// signatures, result consistency) — everything that can be checked
  /// before touching a corpus. `caller` names the entry point in errors.
  Status ValidateAppendFamily(const char* caller,
                              const CandidateSet& candidates,
                              const BlockedPairs& blocked,
                              const ScoredGraph& scored,
                              const Partitions& partitions,
                              const SynthesisResult& result) const;

  /// One generation's state between its steps (defined in session.cc).
  struct Delta;
  /// The steps every stage runs, one per stage. Each takes the previous
  /// generation's artifact as `base` (null: a cold run, where everything is
  /// new) and the state the earlier steps left in `d`. The public stages
  /// run their step with no base; ApplyCorpusDeltaLocked runs all of them
  /// over the input family. Caller holds run_mu_.
  ///
  /// The index step returns the maintained corpus index, patched in place
  /// (posting deletes for the removed tables, appends for the new ones)
  /// when the cache matches `base`'s pre-mutation corpus state — object
  /// identity, table/column counts and generation — and rebuilt otherwise.
  const ColumnInvertedIndex& MaintainedIndexLocked(const TableCorpus& corpus,
                                                   const CandidateSet* base,
                                                   Delta* d);
  CandidateSet ExtractStep(const TableCorpus& corpus,
                           const ColumnInvertedIndex& index,
                           const CandidateSet* base, Delta* d);
  BlockedPairs BlockStep(const CandidateSet& candidates,
                         const BlockedPairs* base, Delta* d);
  ScoredGraph ScoreStep(const CandidateSet& candidates,
                        const BlockedPairs& blocked, const ScoredGraph* base,
                        Delta* d);
  Partitions PartitionStep(const ScoredGraph& graph, const Partitions* base,
                           Delta* d);
  SynthesisResult ResolveStep(const CandidateSet& candidates,
                              const ScoredGraph& graph,
                              const Partitions& partitions,
                              const SynthesisResult* base, Delta* d);
  /// The incremental-maintenance driver behind AppendTables, AppendCorpus,
  /// RemoveTables and ReplaceTables: `corpus` is already mutated as `d`
  /// describes (removed tables tombstoned, new tables from
  /// d->first_new_table on). Runs the steps over the input family under one
  /// span each. Caller holds run_mu_.
  Result<AppendedArtifacts> ApplyCorpusDeltaLocked(
      const char* caller, const TableCorpus& corpus, Delta* d,
      const CandidateSet& candidates, const BlockedPairs& blocked,
      const ScoredGraph& scored, const Partitions& partitions,
      const SynthesisResult& result);
  /// The corpus-mutating half of AppendCorpus, RemoveTables and
  /// ReplaceTables: validates, tombstones `removed`, merges `delta` (when
  /// given) at the tail, runs the driver, and rolls the corpus back on any
  /// failure. Caller holds run_mu_.
  Result<AppendedArtifacts> MutateCorpusLocked(
      const char* caller, TableCorpus* corpus, std::vector<uint32_t> removed,
      const TableCorpus* delta, const CandidateSet& candidates,
      const BlockedPairs& blocked, const ScoredGraph& scored,
      const Partitions& partitions, const SynthesisResult& result);

  /// Writer-side mutual exclusion: every public stage/composite/persistence
  /// entry point locks this, so two threads driving the same session
  /// serialize instead of corrupting the warm state (matcher caches,
  /// synonym snapshot, artifact-id counter, stage counters). Recursive
  /// because composites (Run, FinishFromCandidates, …) re-enter the stage
  /// entry points. This makes concurrent *writes* safe, not cheap — the serving
  /// tier (MappingService) keeps reads off the session entirely via
  /// immutable ServingSnapshots; see docs/serving.md.
  mutable std::recursive_mutex run_mu_;

  SynthesisOptions options_;
  Status init_status_;
  std::unique_ptr<ThreadPool> threads_;
  std::unique_ptr<MatcherSlots> matchers_;
  SynonymSnapshot synonym_snapshot_;
  bool snapshot_valid_ = false;
  uint64_t next_artifact_id_ = 1;
  SessionStats session_stats_;
  Env* env_ = Env::Default();

  /// Cached maintained inverted index for incremental mutations. Valid
  /// only while the identified corpus object mutates exclusively through
  /// this session's append/remove/replace entry points; the fingerprint
  /// (object identity + table count + live column count) catches every
  /// legal staleness and any mismatch falls back to a full rebuild.
  ColumnInvertedIndex index_cache_;
  const TableCorpus* index_corpus_ = nullptr;
  size_t index_tables_ = 0;
  size_t index_columns_ = 0;
  /// Artifact generation the cache corresponds to: a mutation may patch
  /// only when its input family's generation matches (a cold extraction
  /// seeds the cache at the family's generation), so a recycled corpus
  /// address with coincidentally matching counts cannot alias.
  uint32_t index_generation_ = 0;

  /// The blocking key index of the family this session blocked or mutated
  /// last, patched by each mutation of that family. Its tag names the
  /// family (artifact ids never 0) and the blocking options it describes; a
  /// mutation of any other family (restored, branched, failed, or blocked
  /// under other options) rebuilds the index from its candidates.
  struct KeyIndexTag {
    uint64_t candidates_id = 0;
    uint64_t blocked_id = 0;
    BlockingOptions options;
    bool operator==(const KeyIndexTag&) const = default;
  };
  KeyIndexTag KeyIndexTagOf(const BlockedPairs& blocked) const {
    return {blocked.candidates_id, blocked.artifact_id, options_.blocking};
  }
  BlockingKeyIndex key_index_;
  KeyIndexTag key_index_tag_;
};

}  // namespace ms
