#include "synth/session.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <numeric>
#include <unordered_map>

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
                   std::vector<VertexId>* members) {
  if (order.empty()) return;
  std::sort(members->begin(), members->end(), [&](VertexId x, VertexId y) {
    return std::tie(order[x], x) < std::tie(order[y], y);
  });
}

/// The vertex groups Algorithm 3 runs on, members in cold order (`order`,
/// see SortColdOrder): the positive components (Appendix F
/// divide-and-conquer) or, without it, one group holding every vertex.
/// `comp` receives each vertex's group index.
std::vector<std::vector<VertexId>> PartitionScopes(
    const CompatibilityGraph& graph, const SynthesisOptions& options,
    const std::vector<uint32_t>& order, std::vector<uint32_t>* comp) {
  std::vector<std::vector<VertexId>> groups;
  if (options.divide_and_conquer) {
    *comp = ConnectedComponentsBfs(graph, options.partitioner.theta_edge);
    groups = GroupByComponent(*comp);
  } else {
    comp->assign(graph.num_vertices(), 0);
    if (graph.num_vertices() == 0) return {};
    groups.emplace_back(graph.num_vertices());
    std::iota(groups[0].begin(), groups[0].end(), VertexId{0});
  }
  for (auto& members : groups) SortColdOrder(order, &members);
  return groups;
}

/// Algorithm 3 per scope (see PartitionScopes): each of `components` is
/// partitioned on its component-local subgraph, with members in the order
/// given — the greedy tie-breaks on local index, so that order is part of
/// the result. `comp` maps every vertex to its scope, which filters
/// out cross-component edges (positive weight below θ_edge). New partition
/// ids are drawn from `partition->num_partitions` upward; vertices outside
/// `components` keep whatever `partition->partition_of` already holds. When
/// `groups` is given, every partition formed is appended to it (in
/// scheduling order).
void PartitionComponents(const CompatibilityGraph& graph,
                         const std::vector<uint32_t>& comp,
                         const std::vector<std::vector<VertexId>>& components,
                         const PartitionerOptions& options,
                         ThreadPool* threads, PartitionResult* partition,
                         std::vector<std::vector<VertexId>>* groups) {
  // One global vertex -> component-local-index table, filled in a single
  // O(V) pass: component member lists are disjoint, so per-component O(V)
  // scratch vectors would cost O(V·C) total.
  std::vector<uint32_t> local_of(graph.num_vertices(), 0);
  for (const auto& members : components) {
    for (uint32_t i = 0; i < members.size(); ++i) local_of[members[i]] = i;
  }
  partition->partition_of.resize(graph.num_vertices(), 0);
  std::atomic<uint32_t> next_partition{
      static_cast<uint32_t>(partition->num_partitions)};
  std::mutex mu;
  threads->ParallelFor(components.size(), [&](size_t k) {
    const auto& members = components[k];
    if (members.size() == 1) {
      partition->partition_of[members[0]] = next_partition.fetch_add(1);
      if (groups == nullptr) return;
      std::lock_guard<std::mutex> lock(mu);
      groups->push_back({members[0]});
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
    const uint32_t base = next_partition.fetch_add(
        static_cast<uint32_t>(local.num_partitions));
    std::vector<std::vector<VertexId>> local_groups(
        groups != nullptr ? local.num_partitions : 0);
    for (uint32_t i = 0; i < members.size(); ++i) {
      partition->partition_of[members[i]] = base + local.partition_of[i];
      if (groups != nullptr) {
        local_groups[local.partition_of[i]].push_back(members[i]);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    partition->merges_performed += local.merges_performed;
    for (auto& g : local_groups) groups->push_back(std::move(g));
  });
  partition->num_partitions = next_partition.load();
}

/// Conflict resolution + mapping assembly for a set of partition groups
/// (pre-curation). Shared by Resolve() (all groups) and the append path
/// (dirty groups only); both must build mappings identically.
std::vector<SynthesizedMapping> ResolveGroups(
    const std::vector<BinaryTable>& cands,
    const std::vector<std::vector<VertexId>>& groups,
    const SynthesisOptions& options, const ConflictResolutionOptions& conflict,
    ThreadPool* threads) {
  std::vector<SynthesizedMapping> mappings(groups.size());
  auto resolve_one = [&](size_t gi) {
    std::vector<const BinaryTable*> tables;
    tables.reserve(groups[gi].size());
    for (VertexId v : groups[gi]) tables.push_back(&cands[v]);

    if (options.use_majority_voting) {
      std::vector<size_t> all(tables.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      SynthesizedMapping m = BuildMapping(tables, all);
      m.merged = BinaryTable::FromPairs(MajorityVotePairs(tables, conflict));
      mappings[gi] = std::move(m);
    } else if (options.resolve_conflicts) {
      auto resolved = ResolveConflicts(tables, conflict);
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
  if (options.compat.synonyms != options_.compat.synonyms) {
    snapshot_valid_ = false;
  }
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

const SynonymSnapshot* SynthesisSession::RefreshSnapshot(
    const SynonymDictionary* dict) {
  const uint64_t v = dict->version();
  if (!snapshot_valid_ || synonym_snapshot_.source_version() != v) {
    synonym_snapshot_ = dict->Snapshot();
    snapshot_valid_ = true;
    ++session_stats_.snapshot_rebuilds;
  }
  return &synonym_snapshot_;
}

CompatibilityOptions SynthesisSession::EffectiveCompat() {
  CompatibilityOptions eff = options_.compat;
  if (eff.synonyms != nullptr && eff.synonym_snapshot == nullptr) {
    eff.synonym_snapshot = RefreshSnapshot(eff.synonyms);
  }
  return eff;
}

ConflictResolutionOptions SynthesisSession::EffectiveConflict() {
  ConflictResolutionOptions eff = options_.conflict;
  // Reuse the scoring snapshot when conflict resolution reads the same
  // dictionary (the common wiring); a different dictionary keeps the locked
  // path rather than risking a view of the wrong feed.
  if (eff.synonyms != nullptr && eff.synonym_snapshot == nullptr &&
      eff.synonyms == options_.compat.synonyms) {
    eff.synonym_snapshot = RefreshSnapshot(eff.synonyms);
  }
  return eff;
}

Result<CandidateSet> SynthesisSession::ExtractCandidates(
    const TableCorpus& corpus) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  static obs::Histogram* const stage_us = StageHistogram("extract");
  obs::TraceSpan span("synth.extract", stage_us);
  CandidateSet out;
  Timer step;
  // With the coherence filter disabled (threshold at/below the score
  // floor), ColumnPassesCoherence short-circuits and nothing reads the
  // index — skip the full-corpus build.
  ColumnInvertedIndex index;
  if (options_.extraction.coherence_threshold > -1.0) {
    index.Build(corpus, threads_.get());
  }
  out.stats.index_seconds = step.ElapsedSeconds();

  step.Restart();
  ExtractionResult extracted = ::ms::ExtractCandidates(
      corpus, index, options_.extraction, threads_.get());
  out.stats.extract_seconds = step.ElapsedSeconds();
  out.stats.extraction = extracted.stats;
  out.owned = std::move(extracted.candidates);
  out.stats.candidates = out.owned.size();
  out.pool = &corpus.pool();
  out.source_tables = corpus.size();
  out.kept_offsets = std::move(extracted.kept_offsets);
  out.kept_columns = std::move(extracted.kept_columns);
  out.margin_offsets = std::move(extracted.margin_offsets);
  out.margins = std::move(extracted.margins);
  if (options_.extraction.coherence_threshold > -1.0) {
    // Seed the maintained-index cache: the first incremental mutation on
    // this corpus patches these postings in place instead of paying a
    // full rebuild (cold extraction is generation 0 of the family).
    index_cache_ = std::move(index);
    index_corpus_ = &corpus;
    index_tables_ = corpus.size();
    index_columns_ = index_cache_.num_columns();
    index_generation_ = 0;
  }
  out.artifact_id = NextArtifactId();
  out.session = this;
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
  out.artifact_id = NextArtifactId();
  out.session = this;
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
  BlockedPairs out;
  Timer timer;
  out.pairs = GenerateCandidatePairs(candidates.tables(), options_.blocking,
                                     threads_.get(), &out.blocking,
                                     ColdOrder(candidates));
  out.stats = candidates.stats;
  FillBlockingStats(out.blocking, out.pairs.size(), timer.ElapsedSeconds(),
                    &out.stats);
  out.artifact_id = NextArtifactId();
  out.candidates_id = candidates.artifact_id;
  out.session = this;
  ++session_stats_.blocking_runs;
  return out;
}

CompatibilityGraph SynthesisSession::ScoreThroughSessionMatchers(
    const std::vector<BinaryTable>& tables, const StringPool& pool,
    const std::vector<CandidateTablePair>& pairs, ScoringStats* scoring) {
  const CompatibilityOptions eff = EffectiveCompat();

  // (Re)build or re-point the per-worker matchers. Everything cached in a
  // matcher depends only on the pool contents and edit.fractional, so a
  // re-score under tweaked thresholds starts with every mask it ever built.
  // A pool truncation (append rollback) can rebind cached ids to different
  // strings and frees the cached views' bytes, so it forces a rebuild.
  const size_t num_slots = threads_->num_threads() + 1;
  const uint64_t truncations = pool.truncations();
  const bool warm = matchers_ != nullptr && matchers_->pool == &pool &&
                    matchers_->pool_truncations == truncations &&
                    matchers_->slots.size() == num_slots &&
                    matchers_->fractional == eff.edit.fractional &&
                    matchers_->cap == options_.matcher_cache_cap;
  if (!warm) {
    matchers_ = std::make_unique<MatcherSlots>();
    matchers_->pool = &pool;
    matchers_->pool_truncations = truncations;
    matchers_->fractional = eff.edit.fractional;
    matchers_->cap = options_.matcher_cache_cap;
    matchers_->slots.resize(num_slots);
    for (auto& slot : matchers_->slots) {
      slot = std::make_unique<BatchApproxMatcher>(
          pool, eff.edit, eff.approximate_matching, eff.synonyms,
          eff.synonym_snapshot, options_.matcher_cache_cap);
    }
  } else {
    ++session_stats_.warm_scoring_runs;
    for (auto& slot : matchers_->slots) {
      slot->Reconfigure(eff.edit, eff.approximate_matching, eff.synonyms,
                        eff.synonym_snapshot);
    }
  }
  for (auto& slot : matchers_->slots) slot->ResetStats();

  // One scorer per slot for this run: it caches each candidate's resolved
  // values across the pairs its worker scores, and `tables` outlives it.
  std::vector<std::unique_ptr<PairScorer>> scorers(num_slots);
  for (size_t i = 0; i < num_slots; ++i) {
    scorers[i] =
        std::make_unique<PairScorer>(eff, matchers_->slots[i].get());
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
  CompatibilityGraph graph(tables.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (scores[i].w_pos > 0.0 || scores[i].w_neg < 0.0) {
      graph.AddEdge(pairs[i].a, pairs[i].b, scores[i].w_pos, scores[i].w_neg);
    }
  }
  graph.Finalize();
  return graph;
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
  ScoredGraph out;
  Timer timer;
  ScoringStats scoring;
  out.graph = ScoreThroughSessionMatchers(candidates.tables(),
                                          *candidates.pool, blocked.pairs,
                                          &scoring);
  out.order = ColdOrder(candidates);
  out.stats = blocked.stats;  // blocking never fills scoring, so this run's
  out.stats.scoring.Add(scoring);  // counters land on a clean slate
  out.stats.scoring_seconds = timer.ElapsedSeconds();
  out.stats.graph_edges = out.graph.num_edges();
  out.artifact_id = NextArtifactId();
  out.candidates_id = candidates.artifact_id;
  out.session = this;
  ++session_stats_.scoring_runs;
  return out;
}

Result<Partitions> SynthesisSession::Partition(const ScoredGraph& sg) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("Partition", sg.session));
  static obs::Histogram* const stage_us = StageHistogram("partition");
  obs::TraceSpan span("synth.partition", stage_us);
  const CompatibilityGraph& graph = sg.graph;
  Partitions out;
  out.stats = sg.stats;

  // Algorithm 3, optionally per positive component (Appendix F
  // divide-and-conquer).
  Timer step;
  PartitionResult partition;
  std::vector<uint32_t> comp;
  const auto groups = PartitionScopes(graph, options_, sg.order, &comp);
  if (options_.divide_and_conquer) out.stats.components = groups.size();
  PartitionComponents(graph, comp, groups, options_.partitioner,
                      threads_.get(), &partition, nullptr);
  out.stats.partition_seconds = step.ElapsedSeconds();
  out.stats.partitions = partition.num_partitions;
  out.partition = std::move(partition);
  out.artifact_id = NextArtifactId();
  out.candidates_id = sg.candidates_id;
  out.graph_id = sg.artifact_id;
  out.session = this;
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
  const std::vector<BinaryTable>& cands = candidates.tables();
  const ConflictResolutionOptions conflict = EffectiveConflict();

  SynthesisResult result;
  result.stats = partitions.stats;

  // Conflict resolution + mapping assembly, members in cold order.
  Timer step;
  auto groups = partitions.partition.Groups();
  for (auto& members : groups) SortColdOrder(graph.order, &members);
  std::vector<SynthesizedMapping> mappings =
      ResolveGroups(cands, groups, options_, conflict, threads_.get());
  result.stats.resolve_seconds = step.ElapsedSeconds();

  result.mappings = FilterByPopularity(std::move(mappings),
                                       options_.min_domains,
                                       options_.min_pairs);
  result.stats.mappings = result.mappings.size();
  result.stats.total_seconds =
      result.stats.index_seconds + result.stats.extract_seconds +
      result.stats.blocking_seconds + result.stats.scoring_seconds +
      result.stats.partition_seconds + result.stats.resolve_seconds;
  ++session_stats_.resolve_runs;
  MS_LOG(Info) << "synthesis: " << result.stats.candidates << " candidates, "
               << result.stats.graph_edges << " edges, "
               << result.stats.partitions << " partitions, "
               << result.stats.mappings << " mappings";
  return result;
}

// --------------------------------------------------------- incremental growth

Status SynthesisSession::ValidateAppendFamily(
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) const {
  MS_RETURN_IF_ERROR(ReadyToRun());
  MS_RETURN_IF_ERROR(CheckSameSession("AppendTables", candidates.session));
  MS_RETURN_IF_ERROR(CheckLineage("AppendTables", blocked.session,
                                  blocked.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage("AppendTables", scored.session,
                                  scored.candidates_id,
                                  candidates.artifact_id));
  MS_RETURN_IF_ERROR(CheckLineage("AppendTables", partitions.session,
                                  partitions.candidates_id,
                                  candidates.artifact_id));
  if (partitions.graph_id != scored.artifact_id) {
    return Status::FailedPrecondition(
        "AppendTables: partitions were computed from a different ScoredGraph "
        "(ids " + std::to_string(partitions.graph_id) + " vs " +
        std::to_string(scored.artifact_id) + ")");
  }
  if (candidates.kept_offsets.size() != candidates.source_tables + 1) {
    return Status::FailedPrecondition(
        "AppendTables: the candidate set carries no extraction signatures "
        "(adopted candidates or a pre-append-format snapshot) — incremental "
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
            "AppendTables: result references candidate " +
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
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
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
  ++session_stats_.append_runs;
  return ApplyCorpusDeltaLocked(corpus, first_new_table, {}, {},
                                /*removed_columns=*/0, candidates, blocked,
                                scored, partitions, result);
}

const ColumnInvertedIndex& SynthesisSession::MaintainedIndexLocked(
    const TableCorpus& corpus, size_t first_new_table,
    const std::vector<uint32_t>& removed_tables, size_t removed_columns,
    uint32_t base_generation) {
  // Reconstruct the pre-mutation fingerprint: the corpus is already
  // mutated, so the pre-state is its current live columns minus the
  // appended tables' plus what the tombstoning cleared.
  size_t appended_columns = 0;
  for (size_t t = first_new_table; t < corpus.size(); ++t) {
    appended_columns += corpus.table(t).num_columns();
  }
  const size_t pre_columns =
      corpus.TotalColumns() - appended_columns + removed_columns;
  const bool patchable = index_corpus_ == &corpus &&
                         index_tables_ == first_new_table &&
                         index_columns_ == pre_columns &&
                         index_generation_ == base_generation;
  if (patchable) {
    if (!removed_tables.empty()) index_cache_.RemoveTables(removed_tables);
    if (corpus.size() > first_new_table) {
      index_cache_.AppendTables(corpus, first_new_table);
    }
  } else {
    index_cache_.Build(corpus, threads_.get());
  }
  index_corpus_ = &corpus;
  index_tables_ = corpus.size();
  index_columns_ = index_cache_.num_columns();
  index_generation_ = base_generation + 1;
  return index_cache_;
}

Result<AppendedArtifacts> SynthesisSession::ApplyCorpusDeltaLocked(
    const TableCorpus& corpus, size_t first_new_table,
    std::vector<uint32_t> removed_tables, std::vector<ValueId> removed_values,
    size_t removed_columns, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) {
  // The corpus pool may be a different object than the artifacts' pool
  // (restore-then-append: artifacts resolve against the mmap'd snapshot
  // pool, the corpus against a reopened store). Ids must agree wherever
  // both pools define them, or artifact ValueIds would silently change
  // meaning; verify the shared prefix outright.
  const StringPool* pool = &corpus.pool();
  if (candidates.pool == nullptr) {
    return Status::FailedPrecondition(
        "AppendTables: candidate set has no string pool");
  }
  if (candidates.pool != pool) {
    const size_t n = candidates.pool->size();
    if (pool->size() < n) {
      return Status::FailedPrecondition(
          "AppendTables: the corpus pool holds " +
          std::to_string(pool->size()) + " strings but the artifacts "
          "reference " + std::to_string(n) +
          " — persist the corpus store from the same pool state as the "
          "snapshot (after synthesis) so normalized values share ids");
    }
    for (size_t i = 0; i < n; ++i) {
      if (pool->Get(static_cast<ValueId>(i)) !=
          candidates.pool->Get(static_cast<ValueId>(i))) {
        return Status::FailedPrecondition(
            "AppendTables: the corpus pool diverges from the artifacts' "
            "pool at id " + std::to_string(i) +
            " — these artifacts were not synthesized from this corpus");
      }
    }
  }

  static obs::Histogram* const stage_us = StageHistogram("append");
  obs::TraceSpan span("synth.append", stage_us);
  static obs::Counter* const unstable_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_append_unstable_total");
  static obs::Counter* const full_rebuilds_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_append_full_rebuilds_total");
  static obs::Counter* const margin_skips_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_margin_skips_total");
  static obs::Counter* const margin_rechecks_total =
      obs::MetricsRegistry::Global().GetCounter(
          "ms_synth_coherence_margin_rechecks_total");
  Timer append_timer;
  AppendedArtifacts out;
  out.append.appended_tables = corpus.size() - first_new_table;
  out.append.removed_tables = removed_tables.size();

  const std::vector<BinaryTable>& base_tables = candidates.tables();
  const auto restamp = [&](uint32_t generation) {
    out.candidates.artifact_id = NextArtifactId();
    out.candidates.session = this;
    out.candidates.generation = generation;
    out.blocked.artifact_id = NextArtifactId();
    out.blocked.candidates_id = out.candidates.artifact_id;
    out.blocked.session = this;
    out.scored.artifact_id = NextArtifactId();
    out.scored.candidates_id = out.candidates.artifact_id;
    out.scored.session = this;
    out.partitions.artifact_id = NextArtifactId();
    out.partitions.candidates_id = out.candidates.artifact_id;
    out.partitions.graph_id = out.scored.artifact_id;
    out.partitions.session = this;
  };

  // Empty mutation: nothing can change — hand back copies of the inputs
  // under a fresh lineage generation.
  if (corpus.size() == first_new_table && removed_tables.empty()) {
    out.candidates = candidates;
    out.blocked = blocked;
    out.scored = scored;
    out.partitions = partitions;
    out.result = result;
    restamp(candidates.generation + 1);
    out.append.extraction_stable = true;
    out.append.carried_mappings = result.mappings.size();
    out.append.append_seconds = append_timer.ElapsedSeconds();
    return out;
  }

  // Candidates retired by the removal itself (flipped tables add theirs
  // after extraction below).
  std::vector<uint8_t> newly_dead(base_tables.size(), 0);
  size_t newly_dead_count = 0;
  for (size_t i = 0; !removed_tables.empty() && i < base_tables.size(); ++i) {
    if (candidates.is_dead(static_cast<BinaryTableId>(i))) continue;
    if (std::binary_search(removed_tables.begin(), removed_tables.end(),
                           base_tables[i].source_table)) {
      newly_dead[i] = 1;
      ++newly_dead_count;
    }
  }

  // --- Maintained index + incremental extraction. Re-checking every live
  // old table's coherence signature is the exactness tax: coherence is
  // corpus-global (p(u) = |C(u)|/N moves for every value when the corpus
  // changes) — but the maintained index patches postings in place instead
  // of rebuilding, the margin cache proves most verdicts stable without
  // touching a posting list, and the expensive half of extraction
  // (normalize + FD filter + candidate assembly) runs only over the
  // appended and flipped tables.
  Timer step;
  ColumnInvertedIndex no_index;
  const ColumnInvertedIndex& index =
      options_.extraction.coherence_threshold > -1.0
          ? MaintainedIndexLocked(corpus, first_new_table, removed_tables,
                                  removed_columns, candidates.generation)
          : no_index;
  const double index_s = step.ElapsedSeconds();

  step.Restart();
  const BinaryTableId first_new_id =
      static_cast<BinaryTableId>(base_tables.size());
  DeltaExtractionRequest request;
  request.first_new_table = first_new_table;
  request.first_new_id = first_new_id;
  request.base_kept_offsets = &candidates.kept_offsets;
  request.base_kept_columns = &candidates.kept_columns;
  if (candidates.margin_offsets.size() == first_new_table + 1) {
    request.base_margin_offsets = &candidates.margin_offsets;
    request.base_margins = &candidates.margins;
  }
  request.removed_tables = removed_tables;
  request.removed_values = std::move(removed_values);
  DeltaExtractionResult delta = ExtractCandidatesDelta(
      corpus, index, request, options_.extraction, threads_.get());
  const double extract_s = step.ElapsedSeconds();
  out.append.extraction_stable = delta.stable;
  out.append.unstable_tables = delta.unstable_tables;
  out.append.margin_skips = delta.margin_skips;
  out.append.margin_rechecks = delta.margin_rechecks;
  out.append.new_candidates = delta.candidates.size();
  unstable_total->Add(delta.unstable_tables);
  margin_skips_total->Add(delta.margin_skips);
  margin_rechecks_total->Add(delta.margin_rechecks);

  const size_t live_old_tables = first_new_table -
                                 candidates.tombstoned_tables.size() -
                                 removed_tables.size();
  if (!delta.stable && delta.unstable_tables * 2 > live_old_tables) {
    // A majority of the surviving tables flipped their coherence verdict:
    // partial re-extraction would churn most candidate ids anyway, so an
    // internal cold re-run is both cheaper and re-densifies ids (results
    // are still exact — exactness is never traded for speed). This is the
    // delta path's only fallback.
    ++session_stats_.append_full_rebuilds;
    full_rebuilds_total->Increment();
    out.append.full_rebuild = true;
    Result<CandidateSet> c = ExtractCandidates(corpus);
    if (!c.ok()) return c.status();
    Result<BlockedPairs> b = BlockPairs(c.value());
    if (!b.ok()) return b.status();
    Result<ScoredGraph> g = ScorePairs(c.value(), b.value());
    if (!g.ok()) return g.status();
    Result<Partitions> p = Partition(g.value());
    if (!p.ok()) return p.status();
    Result<SynthesisResult> r = Resolve(c.value(), g.value(), p.value());
    if (!r.ok()) return r.status();
    out.candidates = std::move(c).value();
    out.candidates.generation = candidates.generation + 1;
    // The internal cold extraction reseeded the index cache at generation
    // 0; the family continues at the next generation.
    index_generation_ = candidates.generation + 1;
    // The corpus slots stay shells; record them so observers (and the
    // snapshot) keep the provenance even though the fresh extraction has
    // no dead candidates to carry.
    out.candidates.tombstoned_tables = candidates.tombstoned_tables;
    out.candidates.tombstoned_tables.insert(
        out.candidates.tombstoned_tables.end(), removed_tables.begin(),
        removed_tables.end());
    std::sort(out.candidates.tombstoned_tables.begin(),
              out.candidates.tombstoned_tables.end());
    out.blocked = std::move(b).value();
    out.scored = std::move(g).value();
    out.partitions = std::move(p).value();
    out.result = std::move(r).value();
    out.append.removed_candidates = newly_dead_count;
    out.append.new_candidates =
        out.candidates.owned.size() -
        std::min(out.candidates.owned.size(), base_tables.size());
    out.append.append_seconds = append_timer.ElapsedSeconds();
    MS_LOG(Info) << "append: " << delta.unstable_tables << "/"
                 << live_old_tables << " coherence verdicts shifted; fell "
                 << "back to a full rebuild (" << out.candidates.owned.size()
                 << " candidates)";
    return out;
  }
  // Flipped tables: their base candidates are superseded by the
  // re-extractions riding along in delta.candidates.
  for (size_t i = 0;
       !delta.flipped_tables.empty() && i < base_tables.size(); ++i) {
    if (newly_dead[i] || candidates.is_dead(static_cast<BinaryTableId>(i))) {
      continue;
    }
    if (std::binary_search(delta.flipped_tables.begin(),
                           delta.flipped_tables.end(),
                           base_tables[i].source_table)) {
      newly_dead[i] = 1;
      ++newly_dead_count;
    }
  }
  out.append.removed_candidates = newly_dead_count;
  const bool have_dead = newly_dead_count > 0;

  // --- Merge candidates: base ids are untouched, new candidates (appended
  // tables' and flipped tables' re-extractions) take the next dense ids in
  // table order. Retired candidates keep their id and provenance but lose
  // their pairs — downstream they have the footprint of a candidate that
  // was never extracted.
  out.candidates.owned = base_tables;
  out.candidates.owned.reserve(base_tables.size() +
                               delta.candidates.size());
  for (auto& c : delta.candidates) {
    out.candidates.owned.push_back(std::move(c));
  }
  if (have_dead) {
    for (size_t i = 0; i < newly_dead.size(); ++i) {
      if (!newly_dead[i]) continue;
      BinaryTable& t = out.candidates.owned[i];
      BinaryTable cleared = BinaryTable::FromPairs({});
      cleared.id = t.id;
      cleared.source_table = t.source_table;
      cleared.domain = std::move(t.domain);
      cleared.source = t.source;
      cleared.left_name = std::move(t.left_name);
      cleared.right_name = std::move(t.right_name);
      t = std::move(cleared);
    }
  }
  out.candidates.dead = candidates.dead;
  if (have_dead || !out.candidates.dead.empty()) {
    out.candidates.dead.resize(out.candidates.owned.size(), 0);
    for (size_t i = 0; i < newly_dead.size(); ++i) {
      if (newly_dead[i]) out.candidates.dead[i] = 1;
    }
  }
  out.candidates.tombstoned_tables = candidates.tombstoned_tables;
  if (!removed_tables.empty()) {
    out.candidates.tombstoned_tables.insert(
        out.candidates.tombstoned_tables.end(), removed_tables.begin(),
        removed_tables.end());
    std::sort(out.candidates.tombstoned_tables.begin(),
              out.candidates.tombstoned_tables.end());
  }
  const size_t total_dead = out.candidates.num_dead();
  out.candidates.pool = pool;
  out.candidates.source_tables = corpus.size();
  out.candidates.kept_offsets = std::move(delta.kept_offsets);
  out.candidates.kept_columns = std::move(delta.kept_columns);
  out.candidates.margin_offsets = std::move(delta.margin_offsets);
  out.candidates.margins = std::move(delta.margins);
  out.candidates.stats = candidates.stats;
  out.candidates.stats.index_seconds += index_s;
  out.candidates.stats.extract_seconds += extract_s;
  AddExtractionStats(&out.candidates.stats.extraction, delta.stats);
  out.candidates.stats.candidates = out.candidates.owned.size() - total_dead;

  // --- Blocking. Posting lists truncate in (source table, id) order, the
  // order in which a cold rebuild over the mutated corpus assigns its dense
  // ids (ColdOrder). Appends and removals keep live ids in table
  // order, but a flipped table's re-extraction takes tail ids where a cold
  // run would slot it in table order; ranking by source table keeps every
  // kept set, count and taint bit identical to the cold run's all the same.
  //
  // The delta pass counts only keys the new candidates touch and emits only
  // (new x all) pairs; base pairs minus those touching a retired candidate
  // merge verbatim. DeltaMergeIsExact says when that merge is exact: not
  // when a retirement meets a truncated base (freed slots resurrect old
  // pairs), and not when a re-extraction ranks among old candidates and a
  // delta key truncates (it can displace an old posting). Otherwise the
  // mutated set is re-blocked from scratch; scoring below still reuses
  // every base edge whose pair survived.
  step.Restart();
  out.scored.order = ColdOrder(out.candidates);
  const std::vector<uint32_t>& order = out.scored.order;
  const bool reextracted = !delta.flipped_tables.empty();
  const size_t base_dropped = blocked.blocking.dropped_postings;
  std::vector<CandidateTablePair> delta_pairs;
  std::vector<uint8_t> tainted = blocked.blocking.tainted;
  if (!tainted.empty()) tainted.resize(out.candidates.owned.size(), 0);
  DeltaBlockingStats dstats;
  bool merge = DeltaMergeIsExact(have_dead, reextracted, base_dropped, 0);
  if (merge && first_new_id < out.candidates.owned.size()) {
    delta_pairs = GenerateDeltaCandidatePairs(
        out.candidates.owned, first_new_id, options_.blocking,
        threads_.get(), &tainted, &dstats, order);
    merge = DeltaMergeIsExact(have_dead, reextracted, base_dropped,
                              dstats.dropped_postings);
  }
  const auto less_ab = [](const CandidateTablePair& x,
                          const CandidateTablePair& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  };
  if (merge) {
    std::vector<CandidateTablePair> base_kept;
    const std::vector<CandidateTablePair>* base_src = &blocked.pairs;
    if (have_dead) {
      base_kept.reserve(blocked.pairs.size());
      for (const auto& p : blocked.pairs) {
        if (newly_dead[p.a] || newly_dead[p.b]) continue;
        base_kept.push_back(p);
      }
      base_src = &base_kept;
    }
    out.blocked.pairs.reserve(base_src->size() + delta_pairs.size());
    std::merge(base_src->begin(), base_src->end(), delta_pairs.begin(),
               delta_pairs.end(), std::back_inserter(out.blocked.pairs),
               less_ab);
    out.blocked.blocking = blocked.blocking;
    // The delta pass counts keys new to the survivors; keys that only
    // retired candidates held leave the count.
    if (have_dead) {
      out.blocked.blocking.keys -= CountRetiredOnlyKeys(
          base_tables, newly_dead, out.candidates.owned, first_new_id);
    }
    out.blocked.blocking.keys += dstats.new_keys;
    out.blocked.blocking.dropped_postings += dstats.dropped_postings;
    size_t num_tainted = 0;
    for (uint8_t t : tainted) num_tainted += t;
    out.blocked.blocking.tainted_candidates = num_tainted;
    out.blocked.blocking.exact_counts =
        out.blocked.blocking.dropped_postings == 0;
    out.blocked.blocking.tainted = std::move(tainted);
  } else {
    BlockingStats bstats;
    std::vector<CandidateTablePair> full_pairs = GenerateCandidatePairs(
        out.candidates.owned, options_.blocking, threads_.get(), &bstats,
        order);
    // Pairs the base run never scored (new candidates' and resurrected
    // old-old pairs) are the only ones that need scoring.
    delta_pairs.clear();
    std::set_difference(full_pairs.begin(), full_pairs.end(),
                        blocked.pairs.begin(), blocked.pairs.end(),
                        std::back_inserter(delta_pairs), less_ab);
    out.blocked.pairs = std::move(full_pairs);
    out.blocked.blocking = std::move(bstats);
  }
  out.append.delta_pairs = delta_pairs.size();
  out.blocked.stats = out.candidates.stats;
  FillBlockingStats(out.blocked.blocking, out.blocked.pairs.size(),
                    blocked.stats.blocking_seconds + step.ElapsedSeconds(),
                    &out.blocked.stats);

  // --- Delta scoring through the warm per-worker matchers, then splice:
  // both edge lists are sorted by (u, v) — blocking emits pairs sorted and
  // scoring adds edges in pair order — so the merged list is exactly what
  // one cold scoring pass over the merged pairs would have built. A base
  // edge stays iff its pair still survives blocking (a retired candidate
  // loses every pair; a displaced posting can cost an old pair its overlap)
  // and is then reused verbatim: weights depend only on the two candidates'
  // contents, which are unchanged. Both endpoints of every dropped base
  // edge are marked dirty for the partition step, and so are those of every
  // delta edge when blocking re-ran from scratch: a resurrected old-old
  // pair can link two scopes that hold no new candidate. A merged delta
  // pass needs no marking, since each of its edges touches a new candidate
  // (dirty below), and an edge into another scope lies below θ_edge, so it
  // leaves that scope's subgraph as it was.
  step.Restart();
  ScoringStats scoring;
  CompatibilityGraph delta_graph = ScoreThroughSessionMatchers(
      out.candidates.owned, *pool, delta_pairs, &scoring);
  out.append.delta_edges = delta_graph.num_edges();
  const size_t num_vertices = out.candidates.owned.size();
  std::vector<uint8_t> dirty_vertex(num_vertices, 0);
  const auto mark_endpoints = [&](const CompatEdge& e) {
    dirty_vertex[e.u] = 1;
    dirty_vertex[e.v] = 1;
  };
  CompatibilityGraph merged(num_vertices);
  {
    const auto& be = scored.graph.edges();
    const auto& de = delta_graph.edges();
    const auto& kept = out.blocked.pairs;
    size_t bi = 0, di = 0, ki = 0;
    const auto base_survives = [&](const CompatEdge& e) {
      while (ki < kept.size() &&
             std::tie(kept[ki].a, kept[ki].b) < std::tie(e.u, e.v)) {
        ++ki;
      }
      return ki < kept.size() && kept[ki].a == e.u && kept[ki].b == e.v;
    };
    while (bi < be.size() || di < de.size()) {
      if (bi < be.size() && !base_survives(be[bi])) {
        mark_endpoints(be[bi++]);
        continue;
      }
      const bool take_base =
          di >= de.size() ||
          (bi < be.size() &&
           std::tie(be[bi].u, be[bi].v) < std::tie(de[di].u, de[di].v));
      const CompatEdge& e = take_base ? be[bi++] : de[di++];
      if (!take_base && !merge) mark_endpoints(e);
      merged.AddEdge(e.u, e.v, e.w_pos, e.w_neg);
    }
  }
  merged.Finalize();
  out.scored.graph = std::move(merged);
  out.scored.stats = out.blocked.stats;
  out.scored.stats.scoring = scored.stats.scoring;
  out.scored.stats.scoring.Add(scoring);
  out.scored.stats.scoring_seconds =
      scored.stats.scoring_seconds + step.ElapsedSeconds();
  out.scored.stats.graph_edges = out.scored.graph.num_edges();

  // --- Scope-restricted partition (see PartitionScopes: the positive
  // components, or the whole graph without divide-and-conquer). A scope is
  // re-partitioned only when its induced subgraph could differ from the
  // base run's: it holds a dirty vertex — a new candidate, a candidate this
  // mutation retired, or an endpoint of a dropped base edge or a re-blocked
  // delta edge. Every other scope's subgraph — and therefore its greedy
  // partition — is provably identical to the base run's; carry it. (If a
  // dropped edge split a base component, every resulting piece holds one
  // of its endpoints, so all pieces are re-partitioned — membership of
  // clean components is exactly their base membership.)
  step.Restart();
  for (size_t v = first_new_id; v < num_vertices; ++v) dirty_vertex[v] = 1;
  for (size_t v = 0; v < newly_dead.size(); ++v) {
    if (newly_dead[v]) dirty_vertex[v] = 1;
  }
  const std::vector<uint8_t>& dead_bitmap = out.candidates.dead;
  const auto vertex_dead = [&](VertexId v) {
    return v < dead_bitmap.size() && dead_bitmap[v] != 0;
  };
  std::vector<uint32_t> comp;
  std::vector<std::vector<VertexId>> groups =
      PartitionScopes(out.scored.graph, options_, order, &comp);
  const size_t num_components = groups.size();
  std::vector<char> comp_dirty(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (VertexId v : groups[g]) {
      if (dirty_vertex[v]) {
        comp_dirty[g] = 1;
        break;
      }
    }
  }

  PartitionResult partition;
  partition.partition_of.assign(num_vertices, 0);
  // Clean scopes: carry the base partitioning, renumbered densely; the
  // dirty ones draw fresh ids after them.
  uint32_t next_pid = 0;
  {
    std::unordered_map<uint32_t, uint32_t> remap;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (comp_dirty[g]) continue;
      for (VertexId v : groups[g]) {
        const uint32_t base_pid = partitions.partition.partition_of[v];
        auto [it, inserted] = remap.emplace(base_pid, next_pid);
        if (inserted) ++next_pid;
        partition.partition_of[v] = it->second;
      }
    }
  }

  std::vector<std::vector<VertexId>> dirty;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (comp_dirty[g]) dirty.push_back(std::move(groups[g]));
  }
  // merges_performed covers only re-partitioned scopes: the base artifact
  // stores a whole-run total that cannot be decomposed per clean scope, so
  // this informational counter intentionally reports the mutation's own
  // work, not the cold-equivalent total.
  partition.num_partitions = next_pid;
  std::vector<std::vector<VertexId>> dirty_groups;
  PartitionComponents(out.scored.graph, comp, dirty, options_.partitioner,
                      threads_.get(), &partition, &dirty_groups);
  out.append.dirty_components = dirty.size();
  out.append.clean_components = num_components - dirty.size();
  // Retired candidates are isolated singletons: they keep a partition slot
  // (vertex ids stay stable) but resolve nothing.
  if (total_dead > 0) {
    std::erase_if(dirty_groups, [&](const std::vector<VertexId>& g) {
      return g.size() == 1 && vertex_dead(g[0]);
    });
  }
  out.partitions.partition = std::move(partition);
  out.partitions.stats = out.scored.stats;
  if (options_.divide_and_conquer) {
    // Retired candidates sit in singleton components holding a reserved
    // partition slot each; the reported counts cover live structure only,
    // matching what a cold rebuild over the surviving tables sees.
    out.partitions.stats.components = num_components - total_dead;
  }
  out.partitions.stats.partition_seconds =
      partitions.stats.partition_seconds + step.ElapsedSeconds();
  out.partitions.stats.partitions =
      out.partitions.partition.num_partitions - total_dead;

  // --- Resolve only the dirty groups; mappings of clean scopes carry over
  // verbatim (their partitions, members, and conflict sets are untouched,
  // and the curation filter is per-mapping).
  step.Restart();
  const ConflictResolutionOptions conflict = EffectiveConflict();
  std::vector<SynthesizedMapping> resolved = ResolveGroups(
      out.candidates.owned, dirty_groups, options_, conflict, threads_.get());
  std::vector<SynthesizedMapping> merged_mappings = FilterByPopularity(
      std::move(resolved), options_.min_domains, options_.min_pairs);
  size_t carried = 0;
  for (const auto& m : result.mappings) {
    if (m.member_tables.empty()) continue;
    if (!comp_dirty[comp[m.member_tables[0]]]) {
      merged_mappings.push_back(m);
      ++carried;
    }
  }
  std::sort(merged_mappings.begin(), merged_mappings.end(),
            PopularityGreater);
  out.append.carried_mappings = carried;
  out.result.mappings = std::move(merged_mappings);
  out.result.stats = out.partitions.stats;
  out.result.stats.resolve_seconds =
      result.stats.resolve_seconds + step.ElapsedSeconds();
  out.result.stats.mappings = out.result.mappings.size();
  out.result.stats.total_seconds =
      out.result.stats.index_seconds + out.result.stats.extract_seconds +
      out.result.stats.blocking_seconds + out.result.stats.scoring_seconds +
      out.result.stats.partition_seconds + out.result.stats.resolve_seconds;

  restamp(candidates.generation + 1);
  out.append.append_seconds = append_timer.ElapsedSeconds();
  MS_LOG(Info) << "append: +" << out.append.appended_tables << "/-"
               << out.append.removed_tables << " tables, +"
               << out.append.new_candidates << "/-"
               << out.append.removed_candidates << " candidates, "
               << out.append.delta_pairs << " delta pairs, "
               << out.append.margin_skips << " margin skips / "
               << out.append.margin_rechecks << " rechecks, "
               << out.append.dirty_components << "/" << num_components
               << " dirty components, " << out.append.carried_mappings
               << " mappings carried";
  return out;
}

Result<AppendedArtifacts> SynthesisSession::AppendCorpus(
    TableCorpus* corpus, const TableCorpus& delta,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument("AppendCorpus: corpus is null");
  }
  // Validate BEFORE mutating: merging the delta and then failing a lineage
  // check would leave the corpus permanently grown past the artifacts, a
  // stuck state every retry would re-reject.
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        "AppendCorpus: the corpus already has " +
        std::to_string(corpus->size()) + " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — pass the un-grown corpus and let AppendCorpus merge the delta");
  }
  Result<size_t> first_new = corpus->AppendFrom(delta);
  if (!first_new.ok()) return first_new.status();
  return AppendTables(*corpus, first_new.value(), candidates, blocked,
                      scored, partitions, result);
}

namespace {

/// Shared removal-id validation for RemoveTables/ReplaceTables: sorts
/// `removed` in place, rejects duplicates and out-of-range ids with
/// InvalidArgument BEFORE any corpus mutation, then drops no-op entries
/// (tables already tombstoned, or degenerate zero-column tables — their
/// removal cannot change any artifact).
Status PrepareRemovalIds(const char* stage, const TableCorpus& corpus,
                         std::vector<uint32_t>* removed) {
  std::sort(removed->begin(), removed->end());
  for (size_t i = 0; i < removed->size(); ++i) {
    if ((*removed)[i] >= corpus.size()) {
      return Status::InvalidArgument(
          std::string(stage) + ": table id " +
          std::to_string((*removed)[i]) + " is out of range (corpus has " +
          std::to_string(corpus.size()) + " tables)");
    }
    if (i > 0 && (*removed)[i] == (*removed)[i - 1]) {
      return Status::InvalidArgument(
          std::string(stage) + ": duplicate table id " +
          std::to_string((*removed)[i]) + " in the removal set");
    }
  }
  std::erase_if(*removed, [&](uint32_t id) {
    return corpus.table(id).num_columns() == 0;
  });
  return Status::OK();
}

/// Captures the removal footprint (distinct cell values + column count)
/// and tombstones each table, returning the moved-out columns so a failed
/// mutation can restore them.
struct RemovalCapture {
  std::vector<ValueId> values;
  size_t columns = 0;
  std::vector<std::pair<uint32_t, std::vector<Column>>> saved;
};

RemovalCapture TombstoneAll(TableCorpus* corpus,
                            const std::vector<uint32_t>& removed) {
  RemovalCapture cap;
  cap.saved.reserve(removed.size());
  for (uint32_t id : removed) {
    const Table& t = corpus->table(id);
    cap.columns += t.num_columns();
    for (const Column& c : t.columns) {
      cap.values.insert(cap.values.end(), c.cells.begin(), c.cells.end());
    }
    cap.saved.emplace_back(id, corpus->Tombstone(id));
  }
  std::sort(cap.values.begin(), cap.values.end());
  cap.values.erase(std::unique(cap.values.begin(), cap.values.end()),
                   cap.values.end());
  return cap;
}

void RestoreAll(TableCorpus* corpus, RemovalCapture* cap) {
  for (auto& [id, cols] : cap->saved) {
    corpus->RestoreColumns(id, std::move(cols));
  }
}

}  // namespace

Result<AppendedArtifacts> SynthesisSession::RemoveTables(
    TableCorpus* corpus, std::vector<uint32_t> removed,
    const CandidateSet& candidates, const BlockedPairs& blocked,
    const ScoredGraph& scored, const Partitions& partitions,
    const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument("RemoveTables: corpus is null");
  }
  // Validate BEFORE mutating — same discipline as AppendCorpus.
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        "RemoveTables: the corpus has " + std::to_string(corpus->size()) +
        " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — removals operate on the exact synthesized corpus");
  }
  MS_RETURN_IF_ERROR(PrepareRemovalIds("RemoveTables", *corpus, &removed));
  RemovalCapture cap = TombstoneAll(corpus, removed);
  Result<AppendedArtifacts> out = ApplyCorpusDeltaLocked(
      *corpus, corpus->size(), std::move(removed), std::move(cap.values),
      cap.columns, candidates, blocked, scored, partitions, result);
  if (!out.ok()) {
    RestoreAll(corpus, &cap);
    return out.status();
  }
  ++session_stats_.remove_runs;
  return out;
}

Result<AppendedArtifacts> SynthesisSession::ReplaceTables(
    TableCorpus* corpus, std::vector<uint32_t> removed,
    const TableCorpus& delta, const CandidateSet& candidates,
    const BlockedPairs& blocked, const ScoredGraph& scored,
    const Partitions& partitions, const SynthesisResult& result) {
  const std::lock_guard<std::recursive_mutex> lock(run_mu_);
  if (corpus == nullptr) {
    return Status::InvalidArgument("ReplaceTables: corpus is null");
  }
  MS_RETURN_IF_ERROR(
      ValidateAppendFamily(candidates, blocked, scored, partitions, result));
  if (corpus->size() != candidates.source_tables) {
    return Status::InvalidArgument(
        "ReplaceTables: the corpus has " + std::to_string(corpus->size()) +
        " tables but the artifacts cover " +
        std::to_string(candidates.source_tables) +
        " — replacements operate on the exact synthesized corpus");
  }
  MS_RETURN_IF_ERROR(PrepareRemovalIds("ReplaceTables", *corpus, &removed));
  // One atomic remove + append: tombstone, merge the delta at the tail,
  // reconcile in a single maintenance pass. A failure at any point rolls
  // the corpus back — tables, columns, and pool tail.
  const size_t prev_pool_size = corpus->pool().size();
  RemovalCapture cap = TombstoneAll(corpus, removed);
  Result<size_t> first_new = corpus->AppendFrom(delta);
  if (!first_new.ok()) {
    RestoreAll(corpus, &cap);
    return first_new.status();
  }
  Result<AppendedArtifacts> out = ApplyCorpusDeltaLocked(
      *corpus, first_new.value(), std::move(removed), std::move(cap.values),
      cap.columns, candidates, blocked, scored, partitions, result);
  if (!out.ok()) {
    corpus->Truncate(first_new.value());
    corpus->pool().TruncateTo(prev_pool_size);
    RestoreAll(corpus, &cap);
    return out.status();
  }
  ++session_stats_.replace_runs;
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
