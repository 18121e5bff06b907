#include "extract/candidate_extraction.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>

#include "extract/normalization_cache.h"

namespace ms {
namespace {

bool MostlyNumeric(const StringPool& pool, const BinaryTable& b) {
  size_t numeric = 0;
  for (const auto& p : b.pairs()) {
    if (LooksNumeric(pool.Get(p.left))) ++numeric;
  }
  return numeric * 2 > b.size();
}

/// The index-independent half of Algorithm 1 for one table: normalization
/// plus the FD filter over the kept columns. Depends only on the table's
/// own cells and the options, never on corpus-global statistics — the
/// invariant incremental appends rely on.
void ExtractFromKept(const Table& t, const std::vector<uint32_t>& kept,
                     const StringPool& pool, ShardedNormalizationCache* norm,
                     const ExtractionOptions& options, ExtractionStats* st,
                     std::vector<BinaryTable>* out) {
  if (kept.size() < 2) return;

  // Normalize the kept columns once, one sharded-cache batch per column.
  std::vector<std::vector<ValueId>> norm_cols(kept.size());
  for (size_t k = 0; k < kept.size(); ++k) {
    norm->NormalizeBatch(t.columns[kept[k]].cells, &norm_cols[k]);
  }

  // --- FD filter over all ordered pairs (Algorithm 1 lines 7-10).
  for (size_t a = 0; a < kept.size(); ++a) {
    for (size_t b = 0; b < kept.size(); ++b) {
      if (a == b) continue;
      ++st->pairs_considered;
      std::vector<ValuePair> pairs;
      const size_t rows = std::min(norm_cols[a].size(), norm_cols[b].size());
      pairs.reserve(rows);
      for (size_t r = 0; r < rows; ++r) {
        ValueId l = norm_cols[a][r];
        ValueId rv = norm_cols[b][r];
        if (l == kInvalidValueId || rv == kInvalidValueId) continue;
        if (l == rv) continue;  // self-mapping rows carry no signal
        pairs.push_back({l, rv});
      }
      BinaryTable cand = BinaryTable::FromPairs(std::move(pairs));
      if (cand.size() < options.min_pairs) continue;
      if (!cand.IsApproximateMapping(options.fd_theta)) continue;
      if (options.drop_numeric_left && MostlyNumeric(pool, cand)) {
        continue;
      }
      cand.source_table = t.id;
      cand.domain = t.domain;
      cand.source = t.source;
      cand.left_name = t.columns[kept[a]].name;
      cand.right_name = t.columns[kept[b]].name;
      ++st->pairs_kept;
      out->push_back(std::move(cand));
    }
  }
}

void BuildCsr(const std::vector<std::vector<uint32_t>>& per_table,
              std::vector<uint32_t>* offsets, std::vector<uint32_t>* flat) {
  offsets->clear();
  flat->clear();
  offsets->reserve(per_table.size() + 1);
  offsets->push_back(0);
  size_t total = 0;
  for (const auto& k : per_table) total += k.size();
  flat->reserve(total);
  for (const auto& k : per_table) {
    flat->insert(flat->end(), k.begin(), k.end());
    offsets->push_back(static_cast<uint32_t>(flat->size()));
  }
}

}  // namespace

Status ExtractionOptions::Validate() const {
  if (!std::isfinite(coherence_threshold)) {
    return Status::InvalidArgument(
        "extraction.coherence_threshold must be finite");
  }
  if (!std::isfinite(fd_theta) || fd_theta <= 0.0 || fd_theta > 1.0) {
    return Status::InvalidArgument(
        "extraction.fd_theta must be in (0, 1]: it is the fraction of rows "
        "the approximate FD must hold over (Definition 2), got " +
        std::to_string(fd_theta));
  }
  if (min_pairs == 0) {
    return Status::InvalidArgument(
        "extraction.min_pairs must be >= 1: empty candidate tables divide "
        "by zero in every containment score downstream");
  }
  if (max_columns < 2) {
    return Status::InvalidArgument(
        "extraction.max_columns must be >= 2: a table needs two columns to "
        "yield a binary relationship");
  }
  return Status::OK();
}

bool ColumnPassesCoherence(const ColumnInvertedIndex& index,
                           const Column& column,
                           const ExtractionOptions& options,
                           CoherenceProfile* profile,
                           std::span<uint32_t> counts) {
  // Pairwise NPMI lives in [-1, 1] (and the empty/single-value columns
  // score 0/1), so a threshold at or below the floor passes every column
  // by definition — skip the sampled co-occurrence scoring entirely. This
  // is the filter-disabled configuration; the short-circuit makes its cost
  // actually zero, which is what lets incremental appends skip the
  // corpus-global re-check tax (docs/performance.md).
  if (options.coherence_threshold <= -1.0) return true;
  const double s = ColumnCoherence(index, column.cells, options.coherence,
                                   profile, counts);
  return s >= options.coherence_threshold;
}

ExtractionResult ExtractCandidates(const TableCorpus& corpus,
                                   const ColumnInvertedIndex& index,
                                   const ExtractionOptions& options,
                                   ThreadPool* pool) {
  // A cold run is the delta pass with no old tables: every table is
  // appended, so every table is fully extracted and ids start at 0.
  return ExtractCandidatesDelta(corpus, index, DeltaExtractionRequest{},
                                options, pool);
}

DeltaExtractionResult ExtractCandidatesDelta(
    const TableCorpus& corpus, const ColumnInvertedIndex& index,
    const DeltaExtractionRequest& request, const ExtractionOptions& options,
    ThreadPool* pool) {
  DeltaExtractionResult result;
  auto shared_pool = corpus.shared_pool();
  ShardedNormalizationCache norm(shared_pool.get(), options.normalize);

  const size_t first_new_table = request.first_new_table;
  const auto& tables = corpus.tables();
  const CoherenceOptions& coherence = options.coherence;
  const double threshold = options.coherence_threshold;
  std::vector<std::vector<BinaryTable>> per_table(tables.size());
  std::vector<std::vector<uint32_t>> per_kept(tables.size());
  std::vector<ExtractionStats> per_stats(tables.size());
  std::vector<CoherenceWork> per_work(tables.size());
  std::vector<uint8_t> flipped(first_new_table, 0);
  std::atomic<size_t> skips{0};
  std::atomic<size_t> full_walks{0};
  std::atomic<size_t> cached_rechecks{0};
  const bool margins_on = threshold > -1.0;
  const auto width_passed = [&](const Table& t) {
    return t.num_columns() >= 2 && t.num_columns() <= options.max_columns;
  };
  // Old tables and new ones run as two parallel loops: a new table costs
  // far more than an old one (a cold walk and the FD filter against a
  // re-score), and the new ones sit together at the tail, where one loop
  // would hand them all to one worker.
  const auto for_each_table = [&](const auto& fn) {
    for (const auto& [begin, end] :
         {std::pair{size_t{0}, first_new_table},
          std::pair{first_new_table, tables.size()}}) {
      if (pool) {
        pool->ParallelFor(end - begin, [&](size_t i) { fn(begin + i); });
      } else {
        for (size_t i = begin; i < end; ++i) fn(i);
      }
    }
  };

  // The base run's margins, CSR over its tables, and its counts, CSR over
  // its margins. Margins serve only the coherence options they were scored
  // under, and counts only the sampling they were taken under (they cover
  // every sampled pair, so the support floor does not matter). A restored
  // family has margins but no counts: snapshots never hold them.
  const bool have_base =
      margins_on && request.base_margin_offsets != nullptr &&
      request.base_margins != nullptr &&
      request.base_margin_offsets->size() == first_new_table + 1;
  const bool reuse_margins = have_base && request.base_coherence == coherence;
  const bool reuse_counts =
      have_base && request.base_count_offsets != nullptr &&
      request.base_counts != nullptr &&
      request.base_count_offsets->size() == request.base_margins->size() + 1 &&
      request.base_coherence.max_sampled_values ==
          coherence.max_sampled_values &&
      request.base_coherence.sample_seed == coherence.sample_seed;
  // First base margin of old table ti, when the base holds one per column.
  const auto base_first = [&](size_t ti) -> std::optional<uint32_t> {
    if (!have_base || ti >= first_new_table) return std::nullopt;
    const uint32_t begin = (*request.base_margin_offsets)[ti];
    if ((*request.base_margin_offsets)[ti + 1] - begin !=
        tables[ti].num_columns()) {
      return std::nullopt;
    }
    return begin;
  };
  const auto base_counts = [&](size_t k) -> std::span<const uint32_t> {
    if (!reuse_counts) return {};
    const std::vector<uint64_t>& o = *request.base_count_offsets;
    return {request.base_counts->data() + o[k], o[k + 1] - o[k]};
  };
  const auto out_counts = [&](size_t k) {
    const std::vector<uint64_t>& o = result.count_offsets;
    return std::span<uint32_t>(result.counts.data() + o[k], o[k + 1] - o[k]);
  };

  // The columns this mutation appended and removed: the only ones that
  // moved a count. A live old column holding none of their values kept all
  // its counts, which is what lets its cached margin settle the verdict
  // without a re-score. Only reused margins and counts consult it, so a
  // pass without them (a cold run) never builds it.
  CoOccurrenceDelta delta;
  if (reuse_margins || reuse_counts) {
    std::vector<const std::vector<ValueId>*> appended;
    for (size_t ti = first_new_table; ti < tables.size(); ++ti) {
      for (const Column& c : tables[ti].columns) appended.push_back(&c.cells);
    }
    delta.Build(appended, request.removed_columns);
  }
  // The margin skip: the column's counts provably did not move, and the
  // bound says its verdict cannot have flipped at the new N.
  const auto settled = [&](const Column& c, const CoherenceProfile& p) {
    return reuse_margins &&
           std::none_of(c.cells.begin(), c.cells.end(),
                        [&](ValueId v) { return delta.Touches(v); }) &&
           CoherenceVerdictStable(p, threshold, index.num_columns());
  };

  // Output layout, fixed before any table runs so that each table writes
  // its own slices of one margin array and one count array: a margin per
  // column of every width-passed table (freshly tombstoned shells have no
  // columns), a count slice per margin. The layout pass also picks each
  // old column's path: a margin skip carries its base slice over (empty
  // when the base has no counts for it), a column with base counts
  // re-scores from them, and any other column walks the index in full,
  // which fills a slice sized to its sample.
  enum Path : uint8_t { kFull, kSkip, kCached };
  std::vector<uint8_t> path;  ///< per margin
  if (margins_on) {
    std::vector<uint32_t>& moffsets = result.margin_offsets;
    moffsets.assign(1, 0);
    for (const Table& t : tables) {
      moffsets.push_back(moffsets.back() +
                         (width_passed(t) ? t.num_columns() : 0));
    }
    result.margins.resize(moffsets.back());
    path.assign(result.margins.size(), kFull);
    std::vector<uint64_t>& coffsets = result.count_offsets;
    coffsets.assign(result.margins.size() + 1, 0);
    for_each_table([&](size_t ti) {
      const Table& t = tables[ti];
      if (!width_passed(t)) return;
      const std::optional<uint32_t> base = base_first(ti);
      for (size_t c = 0; c < t.columns.size(); ++c) {
        const size_t k = moffsets[ti] + c;
        const Column& col = t.columns[c];
        size_t pairs = base ? base_counts(*base + c).size() : 0;
        if (base && settled(col, (*request.base_margins)[*base + c])) {
          path[k] = kSkip;
        } else if (pairs > 0) {
          path[k] = kCached;
        } else {
          // An empty base slice holds no counts (none were kept, or a skip
          // carried none over) or has none to hold (at most one sampled
          // value); the sample's size tells which.
          pairs = SampledPairCount(col.cells, coherence);
          if (base && reuse_counts && pairs == 0) path[k] = kCached;
        }
        coffsets[k + 1] = pairs;
      }
    });
    std::partial_sum(coffsets.begin(), coffsets.end(), coffsets.begin());
    result.counts.resize(coffsets.back());
  }

  auto process_old = [&](size_t ti) {
    const Table& t = tables[ti];
    auto& kept = per_kept[ti];
    if (!width_passed(t)) {
      // Width-skipped (including freshly tombstoned shells): the kept set
      // is empty by construction and index-independent.
      return;
    }
    const std::optional<uint32_t> base = base_first(ti);
    for (size_t c = 0; c < t.columns.size(); ++c) {
      bool pass = true;
      if (margins_on) {
        const size_t k = result.margin_offsets[ti] + c;
        CoherenceProfile& margin = result.margins[k];
        const Column& col = t.columns[c];
        switch (path[k]) {
          case kSkip: {
            margin = (*request.base_margins)[*base + c];
            const std::span<const uint32_t> from = base_counts(*base + c);
            std::copy(from.begin(), from.end(), out_counts(k).begin());
            skips.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case kCached:
            ColumnCoherenceFromCounts(index, delta, col.cells, coherence,
                                      base_counts(*base + c), out_counts(k),
                                      &margin);
            cached_rechecks.fetch_add(1, std::memory_order_relaxed);
            break;
          case kFull:
            ColumnCoherence(index, col.cells, coherence, &margin,
                            out_counts(k));
            full_walks.fetch_add(1, std::memory_order_relaxed);
        }
        pass = margin.score >= threshold;
      }
      if (pass) kept.push_back(static_cast<uint32_t>(c));
    }
    // Signature comparison: a changed kept set means the base candidates
    // of this table no longer match what a cold rebuild would extract.
    const uint32_t begin = (*request.base_kept_offsets)[ti];
    const uint32_t end = (*request.base_kept_offsets)[ti + 1];
    if (kept.size() != end - begin ||
        !std::equal(kept.begin(), kept.end(),
                    request.base_kept_columns->begin() + begin)) {
      flipped[ti] = 1;
      ExtractionStats scratch;  // counters excluded from result.stats
      ExtractFromKept(t, kept, corpus.pool(), &norm, options, &scratch,
                      &per_table[ti]);
    }
  };

  auto process_new = [&](size_t ti) {
    const Table& t = tables[ti];
    ExtractionStats& st = per_stats[ti];
    auto& kept = per_kept[ti];
    st.tables_seen += 1;
    st.columns_seen += t.num_columns();
    if (width_passed(t)) {
      for (size_t c = 0; c < t.columns.size(); ++c) {
        const size_t k = margins_on ? result.margin_offsets[ti] + c : 0;
        if (ColumnPassesCoherence(
                index, t.columns[c], options,
                margins_on ? &result.margins[k] : nullptr,
                margins_on ? out_counts(k) : std::span<uint32_t>{})) {
          kept.push_back(static_cast<uint32_t>(c));
        }
      }
      st.columns_kept += kept.size();
    }
    ExtractFromKept(t, kept, corpus.pool(), &norm, options, &st,
                    &per_table[ti]);
  };

  for_each_table([&](size_t ti) {
    const CoherenceWork before = ThreadCoherenceWork();
    if (ti >= first_new_table) {
      process_new(ti);
    } else if (!std::binary_search(request.removed_tables.begin(),
                                   request.removed_tables.end(),
                                   static_cast<TableId>(ti))) {
      // A table tombstoned by this mutation gets an empty signature and no
      // flip: the caller retires its candidates directly.
      process_old(ti);
    }
    per_work[ti] = ThreadCoherenceWork() - before;
  });

  for (size_t i = 0; i < first_new_table; ++i) {
    if (flipped[i]) result.flipped_tables.push_back(static_cast<TableId>(i));
  }
  result.unstable_tables = result.flipped_tables.size();
  result.stable = result.flipped_tables.empty();
  result.margin_skips = skips.load();
  result.cached_rechecks = cached_rechecks.load();
  result.margin_rechecks = full_walks.load() + result.cached_rechecks;
  result.stats.normalize_cache_hits = norm.hits();
  result.stats.normalize_cache_misses = norm.misses();
  for (size_t i = first_new_table; i < tables.size(); ++i) {
    result.stats.tables_seen += per_stats[i].tables_seen;
    result.stats.columns_seen += per_stats[i].columns_seen;
    result.stats.columns_kept += per_stats[i].columns_kept;
    result.stats.pairs_considered += per_stats[i].pairs_considered;
    result.stats.pairs_kept += per_stats[i].pairs_kept;
  }
  for (const CoherenceWork& w : per_work) result.coherence += w;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (auto& cand : per_table[i]) {
      cand.id = static_cast<BinaryTableId>(request.first_new_id +
                                           result.candidates.size());
      result.candidates.push_back(std::move(cand));
    }
  }
  BuildCsr(per_kept, &result.kept_offsets, &result.kept_columns);
  return result;
}

}  // namespace ms
