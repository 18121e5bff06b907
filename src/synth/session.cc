#include "synth/session.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>

#include "common/hashing.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/connected_components.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/artifact_codec.h"
#include "persist/wire.h"
#include "stats/inverted_index.h"
#include "table/tsv.h"

namespace ms {

Status SynthesisOptions::Validate() const {
  MS_RETURN_IF_ERROR(extraction.Validate());
  MS_RETURN_IF_ERROR(blocking.Validate());
  MS_RETURN_IF_ERROR(compat.Validate());
  MS_RETURN_IF_ERROR(partitioner.Validate());
  if (min_pairs == 0) {
    return Status::InvalidArgument(
        "min_pairs must be >= 1: a zero-pair curation floor keeps empty "
        "mappings whose popularity ratios divide by zero");
  }
  if (min_domains == 0) {
    return Status::InvalidArgument(
        "min_domains must be >= 1: every mapping is contributed by at "
        "least one domain, so 0 expresses nothing and usually means an "
        "uninitialized config");
  }
  // A count beyond any real machine is an overflow/typo (e.g. a size_t
  // underflow producing 2^64 - 1), not a parallelism request; ThreadPool
  // would try to spawn that many workers and take the process down.
  constexpr size_t kMaxThreads = 4096;
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads = " + std::to_string(num_threads) +
        " exceeds the sanity cap of " + std::to_string(kMaxThreads) +
        " (0 means hardware concurrency)");
  }
  return Status::OK();
}

uint64_t OptionsFingerprint(const SynthesisOptions& o) {
  // Serialize every result-affecting knob through the persist wire encoding
  // (stable little-endian bytes) and FNV-hash the stream. Field order is
  // part of snapshot compatibility: changing it orphans old snapshots with
  // FailedPrecondition, which is exactly what a semantics change should do.
  persist::WireWriter w;
  w.F64(o.extraction.coherence_threshold);
  w.F64(o.extraction.fd_theta);
  w.U64(o.extraction.min_pairs);
  w.U64(o.extraction.max_columns);
  w.Bool(o.extraction.drop_numeric_left);
  w.U64(o.extraction.coherence.max_sampled_values);
  w.U64(o.extraction.coherence.sample_seed);
  w.U64(o.extraction.coherence.min_value_support);
  w.Bool(o.extraction.normalize.lowercase);
  w.Bool(o.extraction.normalize.strip_punctuation);
  w.Bool(o.extraction.normalize.collapse_whitespace);
  w.Bool(o.extraction.normalize.strip_footnote_marks);
  w.U64(o.blocking.theta_overlap);
  w.U64(o.blocking.max_posting);
  w.Bool(o.compat.approximate_matching);
  w.F64(o.compat.edit.fractional);
  w.U64(o.compat.edit.cap);
  // Synonym feeds can't be persisted (caller-owned), but artifact contents
  // depend on theirs: fingerprint presence + content version so a restart
  // with a drifted dictionary refuses the stale graph.
  w.Bool(o.compat.synonyms != nullptr);
  w.U64(o.compat.synonyms ? o.compat.synonyms->version() : 0);
  w.F64(o.partitioner.tau);
  w.F64(o.partitioner.theta_edge);
  w.Bool(o.partitioner.use_negative_signals);
  w.Bool(o.conflict.synonyms != nullptr);
  w.U64(o.conflict.synonyms ? o.conflict.synonyms->version() : 0);
  w.Bool(o.resolve_conflicts);
  w.Bool(o.use_majority_voting);
  w.Bool(o.divide_and_conquer);
  w.U64(o.min_domains);
  w.U64(o.min_pairs);
  return Fnv1a64(w.bytes());
}

namespace {

/// Sorts `members` by (order[v], v), the cold order (see ScoredGraph::order
/// and ColdOrder); an empty `order` is id order, which ascending member
/// lists already follow.
void SortColdOrder(const std::vector<uint32_t>& order,
                   std::span<VertexId> members) {
  if (order.empty()) return;
  std::sort(members.begin(), members.end(), [&](VertexId x, VertexId y) {
    return std::tie(order[x], x) < std::tie(order[y], y);
  });
}

/// Vertex groups in one flat array: group g's members are
/// members[offsets[g], offsets[g + 1]).
struct Scopes {
  std::vector<uint32_t> offsets{0};
  std::vector<VertexId> members;

  size_t size() const { return offsets.size() - 1; }
  std::span<const VertexId> operator[](size_t g) const {
    return {members.data() + offsets[g], offsets[g + 1] - offsets[g]};
  }
};

/// The vertex groups Algorithm 3 runs on: the positive components
/// (Appendix F divide-and-conquer) or, without it, one group holding every
/// vertex. `comp` receives each vertex's group index. Members are taken in
/// cold order (`order`, see SortColdOrder).
Scopes PartitionScopes(const CompatibilityGraph& graph,
                       const SynthesisOptions& options,
                       const std::vector<uint32_t>& order,
                       std::vector<uint32_t>* comp) {
  const size_t n = graph.num_vertices();
  if (options.divide_and_conquer) {
    *comp = ConnectedComponentsBfs(graph, options.partitioner.theta_edge);
  } else {
    comp->assign(n, 0);
  }
  // Counting sort by group: count sizes, turn them into each group's end,
  // then place vertices from the last id down, moving each end to its
  // group's start, so every group comes out ascending.
  Scopes scopes;
  for (uint32_t c : *comp) {
    if (c >= scopes.size()) scopes.offsets.resize(c + 2, 0);
    ++scopes.offsets[c];
  }
  uint32_t end = 0;
  for (uint32_t& o : scopes.offsets) o = end += o;
  scopes.members.resize(n);
  for (size_t v = n; v-- > 0;) {
    scopes.members[--scopes.offsets[(*comp)[v]]] = static_cast<VertexId>(v);
  }
  for (size_t g = 0; !order.empty() && g < scopes.size(); ++g) {
    SortColdOrder(order, {scopes.members.data() + scopes.offsets[g],
                          scopes.members.data() + scopes.offsets[g + 1]});
  }
  return scopes;
}

/// Algorithm 3 per scope: each of `scopes[g]` for g in `redo` is
/// partitioned on its component-local subgraph, with members in the order
/// given — the greedy tie-breaks on local index, so that order is part of
/// the result. `comp` maps every vertex to its scope, which filters out
/// cross-component edges (positive weight below θ_edge). New partition ids
/// are drawn from `partition->num_partitions` upward in `redo` order, so
/// they do not depend on the thread count; vertices outside the redone
/// scopes keep whatever `partition->partition_of` already holds.
void PartitionComponents(const CompatibilityGraph& graph,
                         const std::vector<uint32_t>& comp,
                         const Scopes& scopes,
                         const std::vector<uint32_t>& redo,
                         const PartitionerOptions& options,
                         ThreadPool* threads, PartitionResult* partition) {
  // One global vertex -> component-local-index table, filled in a single
  // pass over the redone members: scopes are disjoint, so per-scope O(V)
  // scratch vectors would cost O(V·C) total.
  std::vector<uint32_t> local_of(graph.num_vertices(), 0);
  for (uint32_t g : redo) {
    const std::span<const VertexId> members = scopes[g];
    for (uint32_t i = 0; i < members.size(); ++i) local_of[members[i]] = i;
  }
  partition->partition_of.resize(graph.num_vertices(), 0);
  // Each scope writes its members' local partition ids and its counts;
  // the prefix sum below turns them into global ids.
  std::vector<uint32_t> num_local(redo.size(), 1);
  std::vector<size_t> merges(redo.size(), 0);
  threads->ParallelFor(redo.size(), [&](size_t k) {
    const std::span<const VertexId> members = scopes[redo[k]];
    if (members.size() == 1) {
      partition->partition_of[members[0]] = 0;
      return;
    }
    CompatibilityGraph sub(members.size());
    for (VertexId v : members) {
      for (uint32_t e : graph.IncidentEdges(v)) {
        const auto& edge = graph.edges()[e];
        if (edge.u != v) continue;  // visit each edge once (u < v)
        if (comp[edge.v] != comp[v]) continue;
        sub.AddEdge(local_of[edge.u], local_of[edge.v], edge.w_pos,
                    edge.w_neg);
      }
    }
    sub.Finalize();
    const PartitionResult local = GreedyPartition(sub, options);
    for (uint32_t i = 0; i < members.size(); ++i) {
      partition->partition_of[members[i]] = local.partition_of[i];
    }
    num_local[k] = static_cast<uint32_t>(local.num_partitions);
    merges[k] = local.merges_performed;
  });
  auto next = static_cast<uint32_t>(partition->num_partitions);
  for (size_t k = 0; k < redo.size(); ++k) {
    for (VertexId v : scopes[redo[k]]) partition->partition_of[v] += next;
    next += num_local[k];
    partition->merges_performed += merges[k];
  }
  partition->num_partitions = next;
}

/// Conflict resolution + mapping assembly for a set of partition groups
/// (pre-curation), members in cold order.
std::vector<SynthesizedMapping> ResolveGroups(
    const std::vector<BinaryTable>& cands,
    const std::vector<std::vector<VertexId>>& groups,
    const SynthesisOptions& options, ThreadPool* threads) {
  std::vector<SynthesizedMapping> mappings(groups.size());
  auto resolve_one = [&](size_t gi) {
    std::vector<const BinaryTable*> tables;
    tables.reserve(groups[gi].size());
    for (VertexId v : groups[gi]) tables.push_back(&cands[v]);

    if (options.use_majority_voting) {
      std::vector<size_t> all(tables.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      SynthesizedMapping m = BuildMapping(tables, all);
      m.merged =
          BinaryTable::FromPairs(MajorityVotePairs(tables, options.conflict));
      mappings[gi] = std::move(m);
    } else if (options.resolve_conflicts) {
      auto resolved = ResolveConflicts(tables, options.conflict);
      mappings[gi] = BuildMapping(tables, resolved.kept);
    } else {
      std::vector<size_t> all(tables.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      mappings[gi] = BuildMapping(tables, all);
    }
  };
  if (threads) {
    threads->ParallelFor(groups.size(), resolve_one);
  } else {
    for (size_t gi = 0; gi < groups.size(); ++gi) resolve_one(gi);
  }
  return mappings;
}

/// Field-wise sum of extraction counters: append passes report delta-only
/// counters that extend the base run's cumulative totals.
void AddExtractionStats(ExtractionStats* dst, const ExtractionStats& s) {
  dst->tables_seen += s.tables_seen;
  dst->columns_seen += s.columns_seen;
  dst->columns_kept += s.columns_kept;
  dst->pairs_considered += s.pairs_considered;
  dst->pairs_kept += s.pairs_kept;
  dst->normalize_cache_hits += s.normalize_cache_hits;
  dst->normalize_cache_misses += s.normalize_cache_misses;
}

/// One histogram per pipeline stage, labelled `ms_synth_stage_us{stage=...}`.
/// `stage` must be a string literal; call sites cache the pointer in a
/// function-local static so the hot path never touches the registry mutex.
obs::Histogram* StageHistogram(const char* stage) {
  return obs::MetricsRegistry::Global().GetHistogram("ms_synth_stage_us",
                                                     {{"stage", stage}});
}

/// One histogram per step of a mutation, labelled
/// `ms_synth_mutation_step_us{step=...}`; cached like StageHistogram's.
obs::Histogram* MutationStepHistogram(const char* step) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "ms_synth_mutation_step_us", {{"step", step}});
}

/// One histogram per timed part of a mutation step, labelled
/// `ms_synth_mutation_substep_us{substep="<step>.<part>"}`; recorded only
/// when the step runs over a base, and cached like StageHistogram's.
obs::Histogram* MutationSubstepHistogram(const char* substep) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "ms_synth_mutation_substep_us", {{"substep", substep}});
}

/// Feeds the live coherence counters once per extraction pass, cold or
/// delta, from the pass's own totals.
void RecordCoherenceWork(const CoherenceWork& work) {
  static obs::Counter* const columns_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_columns_total");
  static obs::Counter* const postings_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_postings_total");
  columns_total->Add(work.columns);
  postings_total->Add(work.postings);
}

/// The cold order of a candidate family: each candidate's source table, so
/// that (order[id], id) is the order in which a cold extraction over the
/// same corpus assigns dense ids. Posting lists truncate in it (see
/// blocking.h), and partitioning and conflict resolution take members in it
/// (ScoredGraph::order). Empty (id order) when the live ids already follow
/// it, which every cold extraction's do, and for adopted sets, whose ids
/// are their order by definition. Dead candidates hold no postings and no
/// edges, so they are ignored.
std::vector<uint32_t> ColdOrder(const CandidateSet& c) {
  if (c.kept_offsets.empty()) return {};
  const std::vector<BinaryTable>& tables = c.tables();
  std::vector<uint32_t> order(tables.size());
  bool id_order = true;
  uint32_t prev = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    order[i] = tables[i].source_table;
    if (c.is_dead(static_cast<BinaryTableId>(i))) continue;
    id_order = id_order && order[i] >= prev;
    prev = order[i];
  }
  if (id_order) order.clear();
  return order;
}

/// Feeds the live blocking series once per blocking pass: the rows it
/// counted, and the size of the key index it leaves behind.
void RecordBlockingWork(size_t rows, const BlockingKeyIndex& index) {
  static obs::Counter* const rows_total =
      obs::MetricsRegistry::Global().GetCounter("ms_synth_block_rows_total");
  static obs::Gauge* const index_bytes =
      obs::MetricsRegistry::Global().GetGauge("ms_synth_block_index_bytes");
  rows_total->Add(rows);
  index_bytes->Set(static_cast<int64_t>(index.bytes()));
}

void FillBlockingStats(const BlockingStats& bstats, size_t num_pairs,
                       double seconds, PipelineStats* stats) {
  stats->blocking_seconds = seconds;
  stats->candidate_pairs = num_pairs;
  stats->blocking_map_shuffle_seconds = bstats.map_shuffle_seconds;
  stats->blocking_count_seconds = bstats.count_seconds;
  stats->blocking_reduce_seconds = bstats.reduce_seconds;
  stats->blocking_keys = bstats.keys;
  stats->blocking_dropped_postings = bstats.dropped_postings;
  stats->blocking_tainted_candidates = bstats.tainted_candidates;
}

/// Gives a stage artifact its lineage: a session-unique `id`, the session,
/// and, for every artifact but a candidate set, the candidate set it
/// derives from.
template <typename Artifact>
void Stamp(Artifact* artifact, uint64_t id, const void* session,
           uint64_t candidates_id = 0) {
  artifact->artifact_id = id;
  artifact->session = session;
  if constexpr (!std::is_same_v<Artifact, CandidateSet>) {
    artifact->candidates_id = candidates_id;
  }
}

}  // namespace

// ------------------------------------------------------------------ session

/// Per-worker persistent matchers: slot i belongs to pool worker i, the
/// extra last slot to the submitting thread (serial runs). Cache contents
/// never affect scores, so reuse across runs changes speed only.
struct SynthesisSession::MatcherSlots {
  const StringPool* pool = nullptr;
  uint64_t pool_truncations = 0;  ///< pool.truncations() when built
  double fractional = 0.0;
  size_t cap = 0;
  std::vector<std::unique_ptr<BatchApproxMatcher>> slots;
};

SynthesisSession::SynthesisSession(SynthesisOptions options)
    : options_(std::move(options)) {
  init_status_ = options_.Validate();
  if (init_status_.ok()) {
    threads_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

SynthesisSession::~SynthesisSession() = default;

Status SynthesisSession::UpdateOptions(SynthesisOptions options) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(options.Validate());
  const bool threads_changed =
      options.num_threads != options_.num_threads || threads_ == nullptr;
  options_ = std::move(options);
  init_status_ = Status::OK();
  if (threads_changed) {
    matchers_.reset();  // slots are sized to the pool
    threads_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return Status::OK();
}

Status SynthesisSession::ReadyToRun() const {
  if (!init_status_.ok()) return init_status_;
  return Status::OK();
}

Status SynthesisSession::CheckSameSession(const char* stage,
                                          const void* session) const {
  if (session != this) {
    return Status::FailedPrecondition(
        std::string(stage) +
        ": artifact was produced by a different SynthesisSession");
  }
  return Status::OK();
}

Status SynthesisSession::CheckLineage(const char* stage, const void* session,
                                      uint64_t got_candidates_id,
                                      uint64_t want_candidates_id) const {
  MS_RETURN_IF_ERROR(CheckSameSession(stage, session));
  if (got_candidates_id != want_candidates_id) {
    return Status::FailedPrecondition(
        std::string(stage) +
        ": artifact lineage mismatch — the artifacts come from different "
        "candidate sets (ids " + std::to_string(got_candidates_id) + " vs " +
        std::to_string(want_candidates_id) + ")");
  }
  return Status::OK();
}


/// What one generation's steps hand each other besides their artifacts. A
/// cold stage runs its step over a default Delta: no base, every table and
/// candidate new, nothing removed. A mutation's driver fills in the corpus
/// change first.
struct SynthesisSession::Delta {
  size_t first_new_table = 0;            ///< tables from here on are new
  std::vector<uint32_t> removed_tables;  ///< sorted, already tombstoned
  /// The cells of every column those tables held, captured before the
  /// tombstoning cleared them.
  std::vector<const std::vector<ValueId>*> removed_columns;
  std::vector<uint32_t> tombstoned;  ///< the new family's shells, sorted

  double index_seconds = 0.0;
  /// Set by the extract step when a majority of the live old tables flipped
  /// their coherence verdict; it then merges nothing.
  bool majority_flip = false;
  BinaryTableId first_new_id = 0;  ///< candidates from here on are new
  std::vector<uint8_t> retired;    ///< per base candidate: retired now
  /// Blocked pairs the base lacks: the only pairs a step with a base scores.
  std::vector<CandidateTablePair> fresh_pairs;
  std::vector<uint8_t> dirty;    ///< per vertex: its scope is redone
  std::vector<uint32_t> comp;    ///< per vertex: its scope
  std::vector<char> comp_dirty;  ///< per scope
  /// Partition ids from here on were formed by this generation's partition
  /// step; the ones below carry the base's.
  uint32_t fresh_partitions = 0;
  AppendStats stats;
};

Result<CandidateSet> SynthesisSession::ExtractCandidates(
    const TableCorpus& corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  static obs::Histogram* const stage_us = StageHistogram("extract");
  obs::TraceSpan span("synth.extract", stage_us);
  Delta cold;
  CandidateSet out = ExtractStep(
      corpus, MaintainedIndexLocked(corpus, nullptr, &cold), nullptr, &cold);
  ++session_stats_.extract_runs;
  return out;
}

Result<CandidateSet> SynthesisSession::AdoptCandidates(
    const std::vector<BinaryTable>& candidates, const StringPool& pool) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].id != static_cast<BinaryTableId>(i)) {
      return Status::InvalidArgument(
          "AdoptCandidates: candidate ids must be dense 0..n-1 (candidate " +
          std::to_string(i) + " has id " + std::to_string(candidates[i].id) +
          "); provenance and graph vertices index by id");
    }
  }
  CandidateSet out;
  out.borrowed = &candidates;
  out.pool = &pool;
  out.stats.candidates = candidates.size();
  Stamp(&out, NextArtifactId(), this);
  ++session_stats_.adopt_runs;
  return out;
}

Result<BlockedPairs> SynthesisSession::BlockPairs(
    const CandidateSet& candidates) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("BlockPairs", candidates.session));
  static obs::Histogram* const stage_us = StageHistogram("block");
  obs::TraceSpan span("synth.block", stage_us);
  Delta cold;
  BlockedPairs out = BlockStep(candidates, nullptr, &cold);
  ++session_stats_.blocking_runs;
  return out;
}

std::vector<CompatEdge> SynthesisSession::ScoreThroughSessionMatchers(
    const std::vector<BinaryTable>& tables, const StringPool& pool,
    const std::vector<CandidateTablePair>& pairs, ScoringStats* scoring) {
  const CompatibilityOptions& compat = options_.compat;

  // (Re)build or re-point the per-worker matchers; each takes the synonym
  // dictionary's current view. Everything cached in a matcher depends only
  // on the pool contents and edit.fractional, so a re-score under tweaked
  // thresholds starts with every mask it ever built.
  // A pool truncation (append rollback) can rebind cached ids to different
  // strings and frees the cached views' bytes, so it forces a rebuild.
  const size_t num_slots = threads_->num_threads() + 1;
  const uint64_t truncations = pool.truncations();
  const bool warm = matchers_ != nullptr && matchers_->pool == &pool &&
                    matchers_->pool_truncations == truncations &&
                    matchers_->slots.size() == num_slots &&
                    matchers_->fractional == compat.edit.fractional &&
                    matchers_->cap == options_.matcher_cache_cap;
  if (!warm) {
    matchers_ = std::make_unique<MatcherSlots>();
    matchers_->pool = &pool;
    matchers_->pool_truncations = truncations;
    matchers_->fractional = compat.edit.fractional;
    matchers_->cap = options_.matcher_cache_cap;
    matchers_->slots.resize(num_slots);
    for (auto& slot : matchers_->slots) {
      slot = std::make_unique<BatchApproxMatcher>(
          pool, compat.edit, compat.approximate_matching, compat.synonyms,
          options_.matcher_cache_cap);
    }
  } else {
    ++session_stats_.warm_scoring_runs;
    for (auto& slot : matchers_->slots) {
      slot->Reconfigure(compat.edit, compat.approximate_matching,
                        compat.synonyms);
    }
  }
  for (auto& slot : matchers_->slots) slot->ResetStats();

  // One scorer per slot for this run: it caches each candidate's resolved
  // values across the pairs its worker scores, and `tables` outlives it.
  std::vector<std::unique_ptr<PairScorer>> scorers(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    scorers[i] =
        std::make_unique<PairScorer>(compat, matchers_->slots[i].get());
  }
  auto worker_scorer = [&scorers, num_slots]() -> PairScorer& {
    size_t wi = ThreadPool::CurrentWorkerIndex();
    if (wi == ThreadPool::kNotAWorker || wi + 1 >= num_slots) {
      wi = num_slots - 1;
    }
    return *scorers[wi];
  };

  // Pairs arrive sorted by (a, b), so consecutive pairs share table a and —
  // more importantly — value strings. Scoring in chunks through a worker's
  // scorer lets every table resolution and pattern bitmask build amortize
  // across the chunk, the whole run and (masks) every later run, and the
  // per-pair blocking hints let exactly-counted pairs skip the pair-list
  // merge entirely.
  std::vector<PairScores> scores(pairs.size());
  constexpr size_t kScoringChunk = 256;
  const size_t num_chunks = (pairs.size() + kScoringChunk - 1) / kScoringChunk;
  std::vector<ScoringStats> chunk_stats(num_chunks);
  threads_->ParallelFor(num_chunks, [&](size_t c) {
    const size_t begin = c * kScoringChunk;
    const size_t end = std::min(begin + kScoringChunk, pairs.size());
    PairScorer& scorer = worker_scorer();
    ScoringStats& st = chunk_stats[c];
    for (size_t i = begin; i < end; ++i) {
      const BlockingHint hint{pairs[i].shared_pairs, pairs[i].shared_lefts,
                              pairs[i].counts_exact};
      // Scoring is orientation-sensitive: conflicts count the
      // FIRST table's conflicting left-runs, and the approximate-overlap
      // greedy matches the first table's residue against the second's. A
      // cold run orders operands by candidate id, which equals table order
      // under dense assignment — so score in (source table, id) order
      // explicitly. For cold runs this is the identical orientation; for
      // incremental families where a re-extracted table sits at tail ids it
      // is what keeps every edge weight bit-identical to the cold oracle's.
      const BinaryTable& ta = tables[pairs[i].a];
      const BinaryTable& tb = tables[pairs[i].b];
      const bool cold_swapped =
          std::tie(tb.source_table, pairs[i].b) <
          std::tie(ta.source_table, pairs[i].a);
      scores[i] = cold_swapped ? scorer.Score(tb, ta, &hint, &st)
                               : scorer.Score(ta, tb, &hint, &st);
    }
  });
  ScoringStats run;
  for (const auto& st : chunk_stats) run.Add(st);
  for (const auto& slot : matchers_->slots) run.matcher.Add(slot->stats());
  // Live score-stage counters, fed by cold and delta scoring alike; they
  // advance by exactly what this run adds to PipelineStats::scoring.
  static obs::Counter* const pairs_total =
      obs::MetricsRegistry::Global().GetCounter("ms_synth_score_pairs_total");
  static obs::Counter* const kernel_runs_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_score_kernel_runs_total");
  static obs::Counter* const charmask_rejects_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_score_charmask_rejects_total");
  pairs_total->Add(pairs.size());
  kernel_runs_total->Add(run.matcher.myers64_calls +
                         run.matcher.myers_blocked_calls);
  charmask_rejects_total->Add(run.matcher.charmask_rejects);
  scoring->Add(run);
  std::vector<CompatEdge> edges;
  edges.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i].w_pos > 0.0 || scores[i].w_neg < 0.0) {
      edges.push_back(
          {pairs[i].a, pairs[i].b, scores[i].w_pos, scores[i].w_neg});
    }
  }
  return edges;
}

Result<ScoredGraph> SynthesisSession::ScorePairs(
    const CandidateSet& candidates, const BlockedPairs& blocked) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  // Both artifacts must come from this session — artifact ids are only
  // unique within one session's counter, so the id comparison below is
  // meaningless across sessions.
  MS_RETURN_IF_ERROR(CheckSameSession("ScorePairs", candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage("ScorePairs", blocked.session,
                                  blocked.candidates_id,
                                  candidates.artifact_id));
  static obs::Histogram* const stage_us = StageHistogram("score");
  obs::TraceSpan span("synth.score", stage_us);
  Delta cold;
  ScoredGraph out = ScoreStep(candidates, blocked, nullptr, &cold);
  ++session_stats_.scoring_runs;
  return out;
}

Result<Partitions> SynthesisSession::Partition(const ScoredGraph& sg) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("Partition", sg.session));
  static obs::Histogram* const stage_us = StageHistogram("partition");
  obs::TraceSpan span("synth.partition", stage_us);
  Delta cold;
  Partitions out = PartitionStep(sg, nullptr, &cold);
  ++session_stats_.partition_runs;
  return out;
}

Result<SynthesisResult> SynthesisSession::Resolve(
    const CandidateSet& candidates, const ScoredGraph& graph,
    const Partitions& partitions) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("Resolve", candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage("Resolve", graph.session,
                                  graph.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage("Resolve", partitions.session,
                                  partitions.candidates_id,
                                  candidates.artifact_id));
  // The partitions must come from *this* graph, not just the same
  // candidate set: the same candidates scored under different options
  // yield different graphs, and mixing them would pair one graph's stats
  // with another's partitioning.
  if (partitions.graph_id != graph.artifact_id) {
    return Status::FailedPrecondition(
        "Resolve: partitions were computed from a different ScoredGraph "
        "(ids " + std::to_string(partitions.graph_id) + " vs " +
        std::to_string(graph.artifact_id) + ")");
  }
  static obs::Histogram* const stage_us = StageHistogram("resolve");
  obs::TraceSpan span("synth.resolve", stage_us);
  Delta cold;
  SynthesisResult result =
      ResolveStep(candidates, graph, partitions, nullptr, &cold);
  ++session_stats_.resolve_runs;
  MS_LOG(Info) << "synthesis: " << result.stats.candidates << " candidates, "
               << result.stats.graph_edges << " edges, "
               << result.stats.partitions << " partitions, "
               << result.stats.mappings << " mappings";
  return result;
}

// -------------------------------------------------------------------- steps

const ColumnInvertedIndex& SynthesisSession::MaintainedIndexLocked(
    const TableCorpus& corpus, const CandidateSet* base, Delta* d) {
  // With the coherence filter disabled (threshold at/below the score
  // floor), ColumnPassesCoherence short-circuits and nothing reads the
  // index: neither build nor patch one.
  static const ColumnInvertedIndex kNoIndex;
  if (options_.extraction.coherence_threshold <= -1.0) return kNoIndex;
  static obs::Counter* const builds_total =
      obs::MetricsRegistry::Global().GetCounter("ms_synth_index_builds_total");
  Timer timer;
  // Reconstruct the pre-mutation fingerprint: the corpus is already
  // mutated, so the pre-state is its current live columns minus the
  // appended tables' plus what the tombstoning cleared.
  size_t appended_columns = 0;
  for (size_t t = d->first_new_table; t < corpus.size(); ++t) {
    appended_columns += corpus.table(t).num_columns();
  }
  const size_t pre_columns = corpus.TotalColumns() - appended_columns +
                             d->removed_columns.size();
  const bool patchable = base != nullptr && index_corpus_ == &corpus &&
                         index_tables_ == d->first_new_table &&
                         index_columns_ == pre_columns &&
                         index_generation_ == base->generation;
  if (patchable) {
    if (!d->removed_tables.empty()) {
      index_cache_.RemoveTables(d->removed_tables);
    }
    if (corpus.size() > d->first_new_table) {
      index_cache_.AppendTables(corpus, d->first_new_table);
    }
  } else {
    index_cache_.Build(corpus, threads_.get());
    builds_total->Increment();
  }
  index_corpus_ = &corpus;
  index_tables_ = corpus.size();
  index_columns_ = index_cache_.num_columns();
  index_generation_ = base != nullptr ? base->generation + 1 : 0;
  d->index_seconds = timer.ElapsedSeconds();
  return index_cache_;
}

CandidateSet SynthesisSession::ExtractStep(const TableCorpus& corpus,
                                           const ColumnInvertedIndex& index,
                                           const CandidateSet* base,
                                           Delta* d) {
  static obs::Counter* const unstable_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_append_unstable_total");
  static obs::Counter* const margin_skips_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_margin_skips_total");
  static obs::Counter* const margin_rechecks_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_margin_rechecks_total");
  static obs::Counter* const cached_rechecks_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_cached_rechecks_total");
  static obs::Gauge* const cache_bytes =
      obs::MetricsRegistry::Global().GetGauge(
          "ms_synth_coherence_cache_bytes");
  static obs::Histogram* const merge_us =
      MutationSubstepHistogram("extract.merge");
  const CandidateSet none;
  const CandidateSet& b = base != nullptr ? *base : none;
  const std::vector<BinaryTable>& base_tables = b.tables();
  d->first_new_id = static_cast<BinaryTableId>(base_tables.size());
  d->retired.assign(base_tables.size(), 0);
  const auto retire = [&](const std::vector<TableId>& tables) {
    for (size_t i = 0; !tables.empty() && i < base_tables.size(); ++i) {
      if (d->retired[i] || b.is_dead(static_cast<BinaryTableId>(i))) continue;
      if (std::binary_search(tables.begin(), tables.end(),
                             base_tables[i].source_table)) {
        d->retired[i] = 1;
        ++d->stats.removed_candidates;
      }
    }
  };
  retire(d->removed_tables);

  // Re-checking every live old table's coherence signature is the
  // exactness tax: coherence is corpus-global (p(u) = |C(u)|/N moves for
  // every value when the corpus changes). The margin cache proves many
  // verdicts stable without a re-score, the count cache re-scores the rest
  // from counts moved by the delta columns alone, and the expensive half
  // of extraction (normalize + FD filter + candidate assembly) runs only
  // over the new and flipped tables. Without a base every table is new.
  Timer timer;
  DeltaExtractionRequest request;
  request.first_new_table = d->first_new_table;
  request.first_new_id = d->first_new_id;
  request.base_kept_offsets = &b.kept_offsets;
  request.base_kept_columns = &b.kept_columns;
  request.base_margin_offsets = &b.margin_offsets;
  request.base_margins = &b.margins;
  request.base_count_offsets = &b.count_offsets;
  request.base_counts = &b.counts;
  request.base_coherence = b.counted_under;
  request.removed_tables = d->removed_tables;
  request.removed_columns = d->removed_columns;
  DeltaExtractionResult delta = ExtractCandidatesDelta(
      corpus, index, request, options_.extraction, threads_.get());
  const double extract_seconds = timer.ElapsedSeconds();
  d->stats.extraction_stable = delta.stable;
  d->stats.unstable_tables = delta.unstable_tables;
  d->stats.margin_skips = delta.margin_skips;
  d->stats.margin_rechecks = delta.margin_rechecks;
  d->stats.cached_rechecks = delta.cached_rechecks;
  d->stats.new_candidates = delta.candidates.size();
  unstable_total->Add(delta.unstable_tables);
  margin_skips_total->Add(delta.margin_skips);
  margin_rechecks_total->Add(delta.margin_rechecks);
  cached_rechecks_total->Add(delta.cached_rechecks);
  RecordCoherenceWork(delta.coherence);
  const size_t live_old_tables = d->first_new_table -
                                 b.tombstoned_tables.size() -
                                 d->removed_tables.size();
  if (delta.unstable_tables * 2 > live_old_tables) {
    MS_LOG(Info) << "append: " << delta.unstable_tables << "/"
                 << live_old_tables << " coherence verdicts shifted; "
                 << "rebuilding from an empty base";
    d->majority_flip = true;
    return {};
  }
  // Flipped tables: their base candidates are superseded by the
  // re-extractions riding along in delta.candidates.
  retire(delta.flipped_tables);

  // Merge: base ids are untouched, new candidates (appended tables' and
  // flipped tables' re-extractions) take the next dense ids in table order.
  // Retired candidates keep their id and provenance but lose their pairs —
  // downstream they have the footprint of a candidate that was never
  // extracted.
  std::optional<obs::TraceSpan> substep;
  if (base != nullptr) {
    substep.emplace("synth.mutation.extract.merge", merge_us);
  }
  CandidateSet out;
  out.owned.reserve(base_tables.size() + delta.candidates.size());
  out.owned.assign(base_tables.begin(), base_tables.end());
  for (auto& c : delta.candidates) out.owned.push_back(std::move(c));
  out.dead = b.dead;
  if (d->stats.removed_candidates > 0 || !out.dead.empty()) {
    out.dead.resize(out.owned.size(), 0);
  }
  for (size_t i = 0; i < d->retired.size(); ++i) {
    if (!d->retired[i]) continue;
    BinaryTable& t = out.owned[i];
    BinaryTable cleared = BinaryTable::FromPairs({});
    cleared.id = t.id;
    cleared.source_table = t.source_table;
    cleared.domain = std::move(t.domain);
    cleared.source = t.source;
    cleared.left_name = std::move(t.left_name);
    cleared.right_name = std::move(t.right_name);
    t = std::move(cleared);
    out.dead[i] = 1;
  }
  out.tombstoned_tables = d->tombstoned;
  out.pool = &corpus.pool();
  out.source_tables = corpus.size();
  out.kept_offsets = std::move(delta.kept_offsets);
  out.kept_columns = std::move(delta.kept_columns);
  out.margin_offsets = std::move(delta.margin_offsets);
  out.margins = std::move(delta.margins);
  out.count_offsets = std::move(delta.count_offsets);
  out.counts = std::move(delta.counts);
  out.counted_under = options_.extraction.coherence;
  cache_bytes->Set(static_cast<int64_t>(
      out.counts.size() * sizeof(uint32_t) +
      out.count_offsets.size() * sizeof(uint64_t)));
  out.stats = b.stats;
  out.stats.index_seconds += d->index_seconds;
  out.stats.extract_seconds += extract_seconds;
  AddExtractionStats(&out.stats.extraction, delta.stats);
  out.stats.candidates = out.num_live();
  substep.reset();
  Stamp(&out, NextArtifactId(), this);
  return out;
}

BlockedPairs SynthesisSession::BlockStep(const CandidateSet& candidates,
                                         const BlockedPairs* base, Delta* d) {
  // Posting lists truncate in (source table, id) order, the order in which
  // a cold rebuild over the same corpus assigns its dense ids (ColdOrder),
  // so every kept set, count and taint bit matches the cold run's even
  // where a flipped table's re-extraction took tail ids. A pair's counts,
  // and a candidate's taint bit, change only if an endpoint joined or left
  // some key's kept list: when the session's key index describes the base,
  // the patch returns exactly those candidates (new, retired, displaced,
  // resurrected), only their rows are recounted, and every other base pair
  // is kept verbatim. Otherwise the index is rebuilt and every row counted.
  Timer timer;
  BlockedPairs out;
  BlockingStats& bstats = out.blocking;
  const std::vector<BinaryTable>& tables = candidates.tables();
  const std::vector<uint32_t> order = ColdOrder(candidates);
  const bool patch = base != nullptr && key_index_tag_ == KeyIndexTagOf(*base);
  key_index_tag_ = {};  // describes no family until this one is stamped
  std::vector<uint32_t> rows;
  std::vector<CandidateTablePair> counted;
  if (patch) {
    Timer phase;
    rows = key_index_.Patch(tables, d->retired, order).changed;
    bstats.map_shuffle_seconds = phase.ElapsedSeconds();
    phase.Restart();
    counted = key_index_.CountRows(options_.blocking.theta_overlap,
                                   threads_.get(), &rows);
    bstats.count_seconds = phase.ElapsedSeconds();
    key_index_.FillStats(&bstats);
    d->stats.block_rows = rows.size();
  } else {
    counted = key_index_.BuildAndCount(tables, options_.blocking, order,
                                       threads_.get(), &bstats);
    d->stats.block_rows = candidates.num_live();
  }
  RecordBlockingWork(d->stats.block_rows, key_index_);
  if (base == nullptr) {
    out.pairs = std::move(counted);  // every pair is fresh
  } else {
    static obs::Histogram* const splice_us =
        MutationSubstepHistogram("block.splice");
    std::vector<uint8_t> changed(tables.size(), patch ? 0 : 1);
    for (uint32_t id : rows) changed[id] = 1;
    Timer splice;
    {
      obs::TraceSpan substep("synth.mutation.block.splice", splice_us);
      out.pairs =
          SpliceChangedRows(base->pairs, changed, counted, &d->fresh_pairs);
    }
    bstats.reduce_seconds = splice.ElapsedSeconds();
    // Phase timings accumulate over the family, like blocking_seconds.
    bstats.map_shuffle_seconds += base->blocking.map_shuffle_seconds;
    bstats.count_seconds += base->blocking.count_seconds;
    bstats.reduce_seconds += base->blocking.reduce_seconds;
    d->stats.delta_pairs = d->fresh_pairs.size();
  }
  out.stats = candidates.stats;
  FillBlockingStats(bstats, out.pairs.size(),
                    (base != nullptr ? base->stats.blocking_seconds : 0.0) +
                        timer.ElapsedSeconds(),
                    &out.stats);
  Stamp(&out, NextArtifactId(), this, candidates.artifact_id);
  // The key index now describes this family, for its next mutation.
  key_index_tag_ = KeyIndexTagOf(out);
  return out;
}

ScoredGraph SynthesisSession::ScoreStep(const CandidateSet& candidates,
                                        const BlockedPairs& blocked,
                                        const ScoredGraph* base, Delta* d) {
  static obs::Histogram* const delta_us =
      MutationSubstepHistogram("score.delta");
  static obs::Histogram* const splice_us =
      MutationSubstepHistogram("score.splice");
  Timer timer;
  ScoredGraph out;
  // Read before the scorers take their view, so an edit racing this run
  // can only make the graph look stale. Base edges keep the base's version.
  const SynonymDictionary* synonyms = options_.compat.synonyms;
  out.synonym_version = base != nullptr      ? base->synonym_version
                        : synonyms != nullptr ? synonyms->version()
                                              : 0;
  ScoringStats scoring;
  const size_t num_vertices = candidates.tables().size();
  std::optional<obs::TraceSpan> substep;
  if (base != nullptr) substep.emplace("synth.mutation.score.delta", delta_us);
  std::vector<CompatEdge> fresh = ScoreThroughSessionMatchers(
      candidates.tables(), *candidates.pool,
      base != nullptr ? d->fresh_pairs : blocked.pairs, &scoring);
  d->stats.delta_edges = fresh.size();
  if (base == nullptr) {
    out.graph = CompatibilityGraph(num_vertices, std::move(fresh));
  } else {
    // Splice: both edge lists are sorted by (u, v) — blocking emits pairs
    // sorted and scoring keeps pair order — so the merged list is exactly
    // what one cold scoring pass over the merged pairs would have built,
    // and the graph adopts it whole. A base edge stays iff its pair still
    // survives blocking (a retired candidate loses every pair; a displaced
    // posting can cost an old pair its overlap) and is then reused
    // verbatim: weights depend only on the two candidates' contents, which
    // are unchanged. Both endpoints of every dropped base edge are marked
    // dirty for the partition step, and so are those of every fresh edge
    // between two base candidates: a resurrected old-old pair can link two
    // scopes that hold no new candidate. A fresh edge that touches a new
    // candidate needs no marking (new candidates are dirty anyway), and an
    // edge into another scope lies below θ_edge, so it leaves that scope's
    // subgraph as it was.
    substep.emplace("synth.mutation.score.splice", splice_us);
    d->dirty.assign(num_vertices, 0);
    const auto mark_endpoints = [&](const CompatEdge& e) {
      d->dirty[e.u] = 1;
      d->dirty[e.v] = 1;
    };
    const auto& be = base->graph.edges();
    const auto& kept = blocked.pairs;
    std::vector<CompatEdge> merged;
    merged.reserve(be.size() + fresh.size());
    size_t bi = 0, fi = 0, ki = 0;
    const auto base_survives = [&](const CompatEdge& e) {
      while (ki < kept.size() &&
             std::tie(kept[ki].a, kept[ki].b) < std::tie(e.u, e.v)) {
        ++ki;
      }
      return ki < kept.size() && kept[ki].a == e.u && kept[ki].b == e.v;
    };
    while (bi < be.size() || fi < fresh.size()) {
      if (bi < be.size() && !base_survives(be[bi])) {
        mark_endpoints(be[bi++]);
        continue;
      }
      const bool take_base =
          fi >= fresh.size() ||
          (bi < be.size() &&
           std::tie(be[bi].u, be[bi].v) < std::tie(fresh[fi].u, fresh[fi].v));
      const CompatEdge& e = take_base ? be[bi++] : fresh[fi++];
      if (!take_base && e.u < d->first_new_id && e.v < d->first_new_id) {
        mark_endpoints(e);
      }
      merged.push_back(e);
    }
    out.graph = CompatibilityGraph(num_vertices, std::move(merged));
  }
  substep.reset();
  out.order = ColdOrder(candidates);
  out.stats = blocked.stats;  // blocking never fills scoring
  if (base != nullptr) out.stats.scoring = base->stats.scoring;
  out.stats.scoring.Add(scoring);
  out.stats.scoring_seconds =
      (base != nullptr ? base->stats.scoring_seconds : 0.0) +
      timer.ElapsedSeconds();
  out.stats.graph_edges = out.graph.num_edges();
  Stamp(&out, NextArtifactId(), this, candidates.artifact_id);
  return out;
}

Partitions SynthesisSession::PartitionStep(const ScoredGraph& sg,
                                           const Partitions* base, Delta* d) {
  // Algorithm 3 per scope (see PartitionScopes: the positive components,
  // or the whole graph without divide-and-conquer). A scope is
  // re-partitioned only when its induced subgraph could differ from the
  // base run's: it holds a dirty vertex — a new candidate, a candidate this
  // mutation retired, or an endpoint the score step marked. Every other
  // scope's subgraph, and therefore its greedy partition, is provably
  // identical to the base run's; carry it. (If a dropped edge split a base
  // component, every resulting piece holds one of its endpoints, so all
  // pieces are re-partitioned.) Without a base every scope is new.
  static obs::Histogram* const scopes_us =
      MutationSubstepHistogram("partition.scopes");
  Timer timer;
  const CompatibilityGraph& graph = sg.graph;
  const size_t num_vertices = graph.num_vertices();
  std::optional<obs::TraceSpan> substep;
  if (base != nullptr) {
    substep.emplace("synth.mutation.partition.scopes", scopes_us);
  }
  std::vector<uint8_t>& dirty = d->dirty;
  dirty.resize(num_vertices, 0);
  for (size_t v = d->first_new_id; v < num_vertices; ++v) dirty[v] = 1;
  for (size_t v = 0; v < d->retired.size(); ++v) dirty[v] |= d->retired[v];
  const Scopes scopes = PartitionScopes(graph, options_, sg.order, &d->comp);
  const size_t num_scopes = scopes.size();
  d->comp_dirty.assign(num_scopes, 0);
  // Clean scopes carry the base partitioning, renumbered densely in scope
  // order; the dirty ones draw fresh ids after them.
  PartitionResult partition;
  partition.partition_of.assign(num_vertices, 0);
  std::vector<uint32_t> remap(
      base != nullptr ? base->partition.num_partitions : 0, UINT32_MAX);
  uint32_t carried = 0;
  std::vector<uint32_t> redo;
  for (uint32_t g = 0; g < num_scopes; ++g) {
    const std::span<const VertexId> members = scopes[g];
    d->comp_dirty[g] =
        base == nullptr || std::any_of(members.begin(), members.end(),
                                       [&](VertexId v) { return dirty[v]; });
    if (d->comp_dirty[g]) {
      redo.push_back(g);
      continue;
    }
    for (VertexId v : members) {
      const uint32_t was = base->partition.partition_of[v];
      if (was >= remap.size()) remap.resize(was + 1, UINT32_MAX);
      if (remap[was] == UINT32_MAX) remap[was] = carried++;
      partition.partition_of[v] = remap[was];
    }
  }
  substep.reset();
  d->fresh_partitions = carried;
  // merges_performed covers only re-partitioned scopes: the base artifact
  // stores a whole-run total that cannot be decomposed per clean scope, so
  // after a mutation this informational counter reports its own work.
  partition.num_partitions = carried;
  PartitionComponents(graph, d->comp, scopes, redo, options_.partitioner,
                      threads_.get(), &partition);
  d->stats.dirty_components = redo.size();
  d->stats.clean_components = num_scopes - redo.size();

  Partitions out;
  out.partition = std::move(partition);
  out.stats = sg.stats;
  // Retired candidates sit in singleton scopes holding a reserved
  // partition slot each; the reported counts cover live structure only,
  // matching what a cold rebuild over the surviving tables sees. The graph
  // has a vertex per candidate and its stats count the live ones, on every
  // path that made it (extracted, mutated, adopted or restored).
  const size_t dead = num_vertices - sg.stats.candidates;
  if (options_.divide_and_conquer) out.stats.components = num_scopes - dead;
  out.stats.partition_seconds =
      (base != nullptr ? base->stats.partition_seconds : 0.0) +
      timer.ElapsedSeconds();
  out.stats.partitions = out.partition.num_partitions - dead;
  Stamp(&out, NextArtifactId(), this, sg.candidates_id);
  out.graph_id = sg.artifact_id;
  return out;
}

SynthesisResult SynthesisSession::ResolveStep(const CandidateSet& candidates,
                                              const ScoredGraph& graph,
                                              const Partitions& partitions,
                                              const SynthesisResult* base,
                                              Delta* d) {
  // Conflict resolution and mapping assembly over the partitions this
  // generation formed, members in cold order. Retired candidates are
  // isolated singletons: they keep a partition slot (vertex ids stay
  // stable) but resolve nothing.
  Timer timer;
  const PartitionResult& p = partitions.partition;
  std::vector<std::vector<VertexId>> groups(p.num_partitions -
                                            d->fresh_partitions);
  for (VertexId v = 0; v < p.partition_of.size(); ++v) {
    if (p.partition_of[v] >= d->fresh_partitions && !candidates.is_dead(v)) {
      groups[p.partition_of[v] - d->fresh_partitions].push_back(v);
    }
  }
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  for (auto& members : groups) SortColdOrder(graph.order, members);
  std::vector<SynthesizedMapping> fresh =
      ResolveGroups(candidates.tables(), groups, options_, threads_.get());
  // Mappings of clean scopes carry over verbatim: their partitions,
  // members and conflict sets are untouched. They already sit in rank
  // order: the order is total, and each one's first member is a live base
  // candidate whose (source table, id) key ranks alike under the base's
  // order and this graph's. So they merge with the ranked fresh mappings in
  // one pass, and pass the curation filter again (its floors may have
  // moved since the base ran).
  static obs::Histogram* const merge_us =
      MutationSubstepHistogram("resolve.merge");
  std::optional<obs::TraceSpan> substep;
  std::vector<const SynthesizedMapping*> carried;
  if (base != nullptr) {
    substep.emplace("synth.mutation.resolve.merge", merge_us);
    for (const SynthesizedMapping& m : base->mappings) {
      if (m.member_tables.empty() ||
          d->comp_dirty[d->comp[m.member_tables[0]]]) {
        continue;
      }
      carried.push_back(&m);
      ++d->stats.carried_mappings;
    }
  }
  SynthesisResult out;
  out.mappings =
      MergeByPopularity(std::move(carried), std::move(fresh),
                        options_.min_domains, options_.min_pairs, graph.order);
  substep.reset();
  out.stats = partitions.stats;
  out.stats.resolve_seconds =
      (base != nullptr ? base->stats.resolve_seconds : 0.0) +
      timer.ElapsedSeconds();
  out.stats.mappings = out.mappings.size();
  out.stats.total_seconds =
      out.stats.index_seconds + out.stats.extract_seconds +
      out.stats.blocking_seconds + out.stats.scoring_seconds +
      out.stats.partition_seconds + out.stats.resolve_seconds;
  return out;
}

// --------------------------------------------------------- incremental growth

Status SynthesisSession::ValidateAppendFamily(
    const char* caller, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) const {
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession(caller, candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage(caller, blocked.session,
                                  blocked.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage(caller, scored.session,
                                  scored.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage(caller, partitions.session,
                                  partitions.candidates_id,
                                  candidates.artifact_id));
  if (partitions.graph_id != scored.artifact_id) {
    return Status::FailedPrecondition(
        std::string(caller) +
        ": partitions were computed from a different ScoredGraph (ids " +
        std::to_string(partitions.graph_id) + " vs " +
        std::to_string(scored.artifact_id) + ")");
  }
  if (candidates.kept_offsets.size() != candidates.source_tables + 1) {
    return Status::FailedPrecondition(
        std::string(caller) +
        ": the candidate set carries no extraction signatures (adopted "
        "candidates or a pre-append-format snapshot) — incremental "
        "growth needs the per-table kept-column provenance ExtractCandidates "
        "records to re-check coherence under the grown corpus");
  }
  // SynthesisResult carries no lineage ids of its own; the member-table
  // bounds check catches a result from a different (larger) family before
  // the carry-over path would index component arrays with it.
  for (const SynthesizedMapping& m : result.mappings) {
    for (BinaryTableId id : m.member_tables) {
      if (id >= candidates.tables().size()) {
        return Status::FailedPrecondition(
            std::string(caller) + ": result references candidate " +
            std::to_string(id) + " outside the candidate set (" +
            std::to_string(candidates.tables().size()) +
            " candidates) — it is not this artifact family's result");
      }
    }
  }
  return Status::OK();
}

Result<AppendedArtifacts> SynthesisSession::AppendTables(
    const TableCorpus& corpus, size_t first_new_table,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ValidateAppendFamily("AppendTables", candidates, blocked,
                                          scored, partitions, result));
  if (first_new_table != candidates.source_tables) {
    return Status::InvalidArgument(
        "AppendTables: first_new_table (" + std::to_string(first_new_table) +
        ") must equal the table count the candidate set was extracted from (" +
        std::to_string(candidates.source_tables) +
        "); the corpus prefix must be exactly the synthesized tables");
  }
  if (corpus.size() < first_new_table) {
    return Status::InvalidArgument(
        "AppendTables: corpus has " + std::to_string(corpus.size()) +
        " tables but the artifacts were synthesized from " +
        std::to_string(first_new_table) + " — corpora only grow");
  }
  Delta d;
  d.first_new_table = first_new_table;
  Result<AppendedArtifacts> out = ApplyCorpusDeltaLocked(
      "AppendTables", corpus, &d, candidates, blocked, scored, partitions,
      result);
  if (out.ok()) ++session_stats_.append_runs;
  return out;
}

Result<AppendedArtifacts> SynthesisSession::ApplyCorpusDeltaLocked(
    const char* caller, const TableCorpus& corpus, Delta* d,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  // The corpus pool may be a different object than the artifacts' pool
  // (restore-then-append: artifacts resolve against the mmap'd snapshot
  // pool, the corpus against a reopened store). Ids must agree wherever
  // both pools define them, or artifact ValueIds would silently change
  // meaning; verify the shared prefix outright.
  const StringPool* pool = &corpus.pool();
  if (candidates.pool == nullptr) {
    return Status::FailedPrecondition(std::string(caller) +
                                      ": candidate set has no string pool");
  }
  if (candidates.pool != pool) {
    const size_t n = candidates.pool->size();
    if (pool->size() < n) {
      return Status::FailedPrecondition(
          std::string(caller) + ": the corpus pool holds " +
          std::to_string(pool->size()) + " strings but the artifacts "
          "reference " + std::to_string(n) +
          " — persist the corpus store from the same pool state as the "
          "snapshot (after synthesis) so normalized values share ids");
    }
    for (size_t i = 0; i < n; ++i) {
      if (pool->Get(static_cast<ValueId>(i)) !=
          candidates.pool->Get(static_cast<ValueId>(i))) {
        return Status::FailedPrecondition(
            std::string(caller) +
            ": the corpus pool diverges from the artifacts' pool at id " +
            std::to_string(i) +
            " — these artifacts were not synthesized from this corpus");
      }
    }
  }

  static obs::Histogram* const stage_us = StageHistogram("append");
  obs::TraceSpan span("synth.append", stage_us);
  static obs::Counter* const full_rebuilds_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_append_full_rebuilds_total");
  static obs::Histogram* const index_us = MutationStepHistogram("index");
  static obs::Histogram* const extract_us = MutationStepHistogram("extract");
  static obs::Histogram* const block_us = MutationStepHistogram("block");
  static obs::Histogram* const score_us = MutationStepHistogram("score");
  static obs::Histogram* const partition_us =
      MutationStepHistogram("partition");
  static obs::Histogram* const resolve_us = MutationStepHistogram("resolve");
  Timer append_timer;
  AppendedArtifacts out;
  d->stats.appended_tables = corpus.size() - d->first_new_table;
  d->stats.removed_tables = d->removed_tables.size();

  // Empty mutation: nothing can change — hand back copies of the inputs
  // under a fresh lineage generation. The maintained corpus index and key
  // index describe the copies whenever they described the inputs.
  if (corpus.size() == d->first_new_table && d->removed_tables.empty()) {
    if (index_generation_ == candidates.generation) ++index_generation_;
    const bool indexed = key_index_tag_ == KeyIndexTagOf(blocked);
    out.candidates = candidates;
    out.blocked = blocked;
    out.scored = scored;
    out.partitions = partitions;
    out.result = result;
    Stamp(&out.candidates, NextArtifactId(), this);
    out.candidates.generation = candidates.generation + 1;
    const uint64_t id = out.candidates.artifact_id;
    Stamp(&out.blocked, NextArtifactId(), this, id);
    Stamp(&out.scored, NextArtifactId(), this, id);
    Stamp(&out.partitions, NextArtifactId(), this, id);
    out.partitions.graph_id = out.scored.artifact_id;
    if (indexed) key_index_tag_ = KeyIndexTagOf(out.blocked);
    out.append = d->stats;
    out.append.extraction_stable = true;
    out.append.carried_mappings = result.mappings.size();
    out.append.append_seconds = append_timer.ElapsedSeconds();
    return out;
  }

  d->tombstoned = candidates.tombstoned_tables;
  d->tombstoned.insert(d->tombstoned.end(), d->removed_tables.begin(),
                       d->removed_tables.end());
  std::sort(d->tombstoned.begin(), d->tombstoned.end());
  // Each step runs over its base artifact from the input family, under its
  // own span; each emplace closes the previous step's span.
  std::optional<obs::TraceSpan> step;
  step.emplace("synth.mutation.index", index_us);
  const ColumnInvertedIndex& index =
      MaintainedIndexLocked(corpus, &candidates, d);
  step.emplace("synth.mutation.extract", extract_us);
  out.candidates = ExtractStep(corpus, index, &candidates, d);
  const bool rebuild = d->majority_flip;
  if (rebuild) {
    // A majority of the surviving tables flipped their coherence verdict:
    // partial re-extraction would churn most candidate ids anyway, so the
    // steps run again from an empty base over the patched index. Results
    // are still exact and ids re-densify; the corpus slots stay shells.
    // This is the delta path's only fallback. It reports the first pass's
    // verdicts and retirements, and no delta counters.
    ++session_stats_.append_full_rebuilds;
    full_rebuilds_total->Increment();
    out.append = d->stats;
    out.append.full_rebuild = true;
    Delta cold;
    cold.tombstoned = std::move(d->tombstoned);
    cold.index_seconds = d->index_seconds;
    *d = std::move(cold);
    out.candidates = ExtractStep(corpus, index, nullptr, d);
    out.append.new_candidates =
        out.candidates.owned.size() -
        std::min(out.candidates.owned.size(), candidates.tables().size());
  }
  step.emplace("synth.mutation.block", block_us);
  out.blocked = BlockStep(out.candidates, rebuild ? nullptr : &blocked, d);
  step.emplace("synth.mutation.score", score_us);
  out.scored =
      ScoreStep(out.candidates, out.blocked, rebuild ? nullptr : &scored, d);
  step.emplace("synth.mutation.partition", partition_us);
  out.partitions =
      PartitionStep(out.scored, rebuild ? nullptr : &partitions, d);
  step.emplace("synth.mutation.resolve", resolve_us);
  out.result = ResolveStep(out.candidates, out.scored, out.partitions,
                           rebuild ? nullptr : &result, d);
  step.reset();
  out.candidates.generation = candidates.generation + 1;
  if (!rebuild) out.append = d->stats;
  out.append.append_seconds = append_timer.ElapsedSeconds();
  const AppendStats& a = out.append;
  MS_LOG(Info) << "append: +" << a.appended_tables << "/-" << a.removed_tables
               << " tables, +" << a.new_candidates << "/-"
               << a.removed_candidates << " candidates, " << a.delta_pairs
               << " delta pairs, " << a.margin_skips << " margin skips / "
               << a.margin_rechecks << " rechecks, " << a.dirty_components
               << "/" << a.dirty_components + a.clean_components
               << " dirty components, " << a.carried_mappings
               << " mappings carried";
  return out;
}

Result<AppendedArtifacts> SynthesisSession::AppendCorpus(
    TableCorpus* corpus, const TableCorpus& delta,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<AppendedArtifacts> out =
      MutateCorpusLocked("AppendCorpus", corpus, {}, &delta, candidates,
                         blocked, scored, partitions, result);
  if (out.ok()) ++session_stats_.append_runs;
  return out;
}

Result<AppendedArtifacts> SynthesisSession::RemoveTables(
    TableCorpus* corpus, std::vector<uint32_t> removed,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<AppendedArtifacts> out =
      MutateCorpusLocked("RemoveTables", corpus, std::move(removed), nullptr,
                         candidates, blocked, scored, partitions, result);
  if (out.ok()) ++session_stats_.remove_runs;
  return out;
}

Result<AppendedArtifacts> SynthesisSession::ReplaceTables(
    TableCorpus* corpus, std::vector<uint32_t> removed,
    const TableCorpus& delta, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<AppendedArtifacts> out =
      MutateCorpusLocked("ReplaceTables", corpus, std::move(removed), &delta,
                         candidates, blocked, scored, partitions, result);
  if (out.ok()) ++session_stats_.replace_runs;
  return out;
}

Result<AppendedArtifacts> SynthesisSession::MutateCorpusLocked(
    const char* caller, TableCorpus* corpus, std::vector<uint32_t> removed,
    const TableCorpus* delta, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) {
  if (corpus == nullptr) {
    return Status::InvalidArgument(std::string(caller) + ": corpus is null");
  }
  // Validate BEFORE mutating: a failed check after the corpus changed
  // would leave it out of step with the artifacts, a stuck state every
  // retry would re-reject.
  MS_RETURN_IF_ERROR(ValidateAppendFamily(caller, candidates, blocked,
                                          scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        std::string(caller) + ": the corpus has " +
        std::to_string(corpus->size()) + " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — mutations apply to the exact synthesized corpus (AppendCorpus "
        "merges its delta itself)");
  }
  // Sorted, free of duplicates and in range; tables that are already
  // shells (or have no columns) are dropped, since removing them cannot
  // change any artifact.
  std::sort(removed.begin(), removed.end());
  for (size_t i = 0; i < removed.size(); ++i) {
    if (removed[i] >= corpus->size()) {
      return Status::InvalidArgument(
          std::string(caller) + ": table id " + std::to_string(removed[i]) +
          " is out of range (corpus has " + std::to_string(corpus->size()) +
          " tables)");
    }
    if (i > 0 && removed[i] == removed[i - 1]) {
      return Status::InvalidArgument(
          std::string(caller) + ": duplicate table id " +
          std::to_string(removed[i]) + " in the removal set");
    }
  }
  std::erase_if(removed, [&](uint32_t id) {
    return corpus->table(id).num_columns() == 0;
  });

  // Tombstone the removed tables (their columns move into the undo, which
  // is also the delta's view of their footprint), merge the delta at the
  // tail, and reconcile in one pass. Any failure applies the undo; a
  // success hands it to the caller, whose commit may still fail.
  CorpusUndo undo;
  undo.num_tables = corpus->size();
  undo.pool_size = corpus->pool().size();
  Delta d;
  d.first_new_table = undo.num_tables;
  for (uint32_t id : removed) {
    undo.tombstoned.emplace_back(id, corpus->Tombstone(id));
  }
  for (const auto& [id, columns] : undo.tombstoned) {
    for (const Column& c : columns) d.removed_columns.push_back(&c.cells);
  }
  d.removed_tables = std::move(removed);
  Result<AppendedArtifacts> out = [&]() -> Result<AppendedArtifacts> {
    if (delta != nullptr) {
      MS_RETURN_IF_ERROR(corpus->AppendFrom(*delta).status());
    }
    return ApplyCorpusDeltaLocked(caller, *corpus, &d, candidates, blocked,
                                  scored, partitions, result);
  }();
  if (!out.ok()) {
    corpus->Undo(std::move(undo));
  } else {
    out.value().undo = std::move(undo);
  }
  return out;
}

// --------------------------------------------------------------- persistence

Status SynthesisSession::SaveSnapshot(const std::string& path,
                                      const CandidateSet& candidates,
                                      const BlockedPairs* blocked,
                                      const ScoredGraph* scored,
                                      const SynthesisResult* result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("SaveSnapshot", candidates.session));
  if (blocked != nullptr) {
    MS_RETURN_IF_ERROR(CheckLineage("SaveSnapshot", blocked->session,
                                    blocked->candidates_id,
                                    candidates.artifact_id));
  }
  if (scored != nullptr) {
    MS_RETURN_IF_ERROR(CheckLineage("SaveSnapshot", scored->session,
                                    scored->candidates_id,
                                    candidates.artifact_id));
  }
  static obs::Histogram* const save_us =
      obs::MetricsRegistry::Global().GetHistogram("ms_persist_save_us");
  obs::TraceSpan span("persist.save_snapshot", save_us);
  MS_RETURN_IF_ERROR(persist::SaveSessionSnapshot(
      path, OptionsFingerprint(options_), candidates, blocked, scored,
      result, env_));
  ++session_stats_.snapshot_saves;
  return Status::OK();
}

Result<SessionSnapshot> SynthesisSession::RestoreSnapshot(
    const std::string& path) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  static obs::Histogram* const restore_us =
      obs::MetricsRegistry::Global().GetHistogram("ms_persist_restore_us");
  obs::TraceSpan span("persist.restore_snapshot", restore_us);
  // The fingerprint covers the synonym version, so a restored graph was
  // scored under it. Read first: an edit racing the restore can only make
  // the graph look stale.
  const SynonymDictionary* synonyms = options_.compat.synonyms;
  const uint64_t synonym_version =
      synonyms != nullptr ? synonyms->version() : 0;
  Result<SessionSnapshot> loaded =
      persist::LoadSessionSnapshot(path, OptionsFingerprint(options_), env_);
  if (!loaded.ok()) return loaded.status();
  SessionSnapshot snap = std::move(loaded).value();

  // Stamp the artifacts as this session's. Saved lineage ids are kept
  // verbatim (they round-trip) unless they would collide with ids this
  // session already issued — then the whole restored family is rebased by a
  // constant offset, preserving every internal candidates/graph link.
  uint64_t min_id = snap.candidates->artifact_id;
  uint64_t max_id = snap.candidates->artifact_id;
  auto track = [&](uint64_t id) {
    min_id = std::min(min_id, id);
    max_id = std::max(max_id, id);
  };
  if (snap.blocked) track(snap.blocked->artifact_id);
  if (snap.scored) track(snap.scored->artifact_id);
  const uint64_t shift = min_id < next_artifact_id_
                             ? next_artifact_id_ - min_id
                             : 0;
  snap.candidates->session = this;
  snap.candidates->artifact_id += shift;
  // The snapshot matched this session's options fingerprint, which covers
  // the coherence options, so its margins were scored under them.
  snap.candidates->counted_under = options_.extraction.coherence;
  if (snap.blocked) {
    snap.blocked->session = this;
    snap.blocked->artifact_id += shift;
    snap.blocked->candidates_id += shift;
  }
  if (snap.scored) {
    snap.scored->session = this;
    snap.scored->artifact_id += shift;
    snap.scored->candidates_id += shift;
    snap.scored->order = ColdOrder(*snap.candidates);
    snap.scored->synonym_version = synonym_version;
  }
  next_artifact_id_ = std::max(next_artifact_id_, max_id + shift + 1);
  ++session_stats_.snapshot_restores;
  return snap;
}

// ---------------------------------------------------------------- composites

Result<SynthesisResult> SynthesisSession::Run(const TableCorpus& corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  obs::TraceSpan span("synth.run");
  Timer total;
  Result<CandidateSet> cands = ExtractCandidates(corpus);
  if (!cands.ok()) return cands.status();
  Result<SynthesisResult> r = FinishFromCandidates(cands.value());
  if (!r.ok()) return r.status();
  SynthesisResult out = std::move(r).value();
  out.stats.total_seconds = total.ElapsedSeconds();
  return out;
}

Result<SynthesisResult> SynthesisSession::RunOnCandidates(
    const std::vector<BinaryTable>& candidates, const StringPool& pool) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Timer total;
  Result<CandidateSet> cands = AdoptCandidates(candidates, pool);
  if (!cands.ok()) return cands.status();
  Result<SynthesisResult> r = FinishFromCandidates(cands.value());
  if (!r.ok()) return r.status();
  SynthesisResult out = std::move(r).value();
  out.stats.total_seconds = total.ElapsedSeconds();
  return out;
}

Result<SynthesisResult> SynthesisSession::RunOnCorpusFile(
    const std::string& path, TableCorpus* corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument(
        "RunOnCorpusFile: corpus out-parameter is null (the caller owns the "
        "corpus because mappings reference its string pool)");
  }
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(LoadCorpus(path, corpus));
  return Run(*corpus);
}

Result<SynthesisResult> SynthesisSession::FinishFromCandidates(
    const CandidateSet& candidates) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<BlockedPairs> blocked = BlockPairs(candidates);
  if (!blocked.ok()) return blocked.status();
  return FinishFromBlocked(candidates, blocked.value());
}

Result<SynthesisResult> SynthesisSession::FinishFromBlocked(
    const CandidateSet& candidates, const BlockedPairs& blocked) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  Result<ScoredGraph> graph = ScorePairs(candidates, blocked);
  if (!graph.ok()) return graph.status();
  Result<Partitions> parts = Partition(graph.value());
  if (!parts.ok()) return parts.status();
  return Resolve(candidates, graph.value(), parts.value());
}

}  // namespace ms
