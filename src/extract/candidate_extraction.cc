#include "extract/candidate_extraction.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_set>

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

/// The coherence half of Algorithm 1 for one table: width gate + per-column
/// PMI filter. Fills `kept` with the surviving column indices (left empty
/// for width-skipped tables) and the per-table counters. When `profiles`
/// is non-null and the filter is enabled, records one margin-cache profile
/// per column of a width-passed table.
void ComputeKeptColumns(const Table& t, const ColumnInvertedIndex& index,
                        const ExtractionOptions& options, ExtractionStats* st,
                        std::vector<uint32_t>* kept,
                        std::vector<CoherenceProfile>* profiles = nullptr) {
  st->tables_seen += 1;
  st->columns_seen += t.num_columns();
  if (t.num_columns() < 2 || t.num_columns() > options.max_columns) return;
  const bool record =
      profiles != nullptr && options.coherence_threshold > -1.0;
  for (size_t c = 0; c < t.columns.size(); ++c) {
    CoherenceProfile profile;
    if (ColumnPassesCoherence(index, t.columns[c], options,
                              record ? &profile : nullptr)) {
      kept->push_back(static_cast<uint32_t>(c));
    }
    if (record) profiles->push_back(profile);
  }
  st->columns_kept += kept->size();
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

template <typename T>
void BuildCsr(const std::vector<std::vector<T>>& per_table,
              std::vector<uint32_t>* offsets, std::vector<T>* flat) {
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
                           CoherenceProfile* profile) {
  // Pairwise NPMI lives in [-1, 1] (and the empty/single-value columns
  // score 0/1), so a threshold at or below the floor passes every column
  // by definition — skip the sampled co-occurrence scoring entirely. This
  // is the filter-disabled configuration; the short-circuit makes its cost
  // actually zero, which is what lets incremental appends skip the
  // corpus-global re-check tax (docs/performance.md).
  if (options.coherence_threshold <= -1.0) return true;
  const double s =
      ColumnCoherence(index, column.cells, options.coherence, profile);
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
  std::vector<std::vector<BinaryTable>> per_table(tables.size());
  std::vector<std::vector<uint32_t>> per_kept(tables.size());
  std::vector<std::vector<CoherenceProfile>> per_margin(tables.size());
  std::vector<ExtractionStats> per_stats(tables.size());
  std::vector<CoherenceWork> per_work(tables.size());
  std::vector<uint8_t> flipped(first_new_table, 0);
  std::atomic<size_t> skips{0};
  std::atomic<size_t> rechecks{0};
  const bool margins_on = options.coherence_threshold > -1.0;

  // The touched-value set: values whose column frequency (and hence any
  // co-occurrence involving them) may have moved under this mutation —
  // everything the removed tables held plus everything the appended tables
  // hold. A live old column containing none of them kept all its counts,
  // so its cached margin bound applies. Only old columns consult it, so a
  // pass without old tables (a cold run) never builds it.
  std::unordered_set<ValueId> touched;
  if (first_new_table > 0) {
    touched.insert(request.removed_values.begin(),
                   request.removed_values.end());
    for (size_t ti = first_new_table; ti < tables.size(); ++ti) {
      for (const Column& c : tables[ti].columns) {
        touched.insert(c.cells.begin(), c.cells.end());
      }
    }
  }
  auto column_touched = [&](const Column& c) {
    if (touched.empty()) return false;
    for (ValueId v : c.cells) {
      if (touched.count(v) > 0) return true;
    }
    return false;
  };

  // Base margin slices are usable only when the base run recorded them in
  // the expected CSR shape (pre-v3 snapshots restore without any).
  const bool have_margins =
      margins_on && request.base_margin_offsets != nullptr &&
      request.base_margins != nullptr &&
      request.base_margin_offsets->size() == first_new_table + 1;

  auto process_old = [&](size_t ti) {
    const Table& t = tables[ti];
    auto& kept = per_kept[ti];
    auto& margin = per_margin[ti];
    if (t.num_columns() < 2 || t.num_columns() > options.max_columns) {
      // Width-skipped (including freshly tombstoned shells): the kept set
      // is empty by construction and index-independent.
      return;
    }
    const uint32_t mbegin =
        have_margins ? (*request.base_margin_offsets)[ti] : 0;
    const uint32_t mend =
        have_margins ? (*request.base_margin_offsets)[ti + 1] : 0;
    const bool slice_ok =
        have_margins && mend - mbegin == t.num_columns();
    const size_t n_now = index.num_columns();
    for (size_t c = 0; c < t.columns.size(); ++c) {
      bool pass;
      if (!margins_on) {
        pass = true;
      } else if (slice_ok && !column_touched(t.columns[c]) &&
                 CoherenceVerdictStable(
                     (*request.base_margins)[mbegin + c],
                     options.coherence_threshold, n_now)) {
        // Counts provably unchanged + bound says the verdict cannot have
        // flipped: reuse it without touching a posting list.
        const CoherenceProfile& p = (*request.base_margins)[mbegin + c];
        pass = p.score >= options.coherence_threshold;
        margin.push_back(p);
        skips.fetch_add(1, std::memory_order_relaxed);
      } else {
        CoherenceProfile fresh;
        pass = ColumnPassesCoherence(index, t.columns[c], options, &fresh);
        margin.push_back(fresh);
        rechecks.fetch_add(1, std::memory_order_relaxed);
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

  auto process_table = [&](size_t ti) {
    if (ti < first_new_table) {
      if (std::binary_search(request.removed_tables.begin(),
                             request.removed_tables.end(),
                             static_cast<TableId>(ti))) {
        // Tombstoned this mutation: empty signature, no flip, no margins —
        // the caller retires its candidates directly.
        return;
      }
      process_old(ti);
      return;
    }
    const Table& t = tables[ti];
    ExtractionStats& st = per_stats[ti];
    ComputeKeptColumns(t, index, options, &st, &per_kept[ti],
                       margins_on ? &per_margin[ti] : nullptr);
    ExtractFromKept(t, per_kept[ti], corpus.pool(), &norm, options, &st,
                    &per_table[ti]);
  };
  auto process = [&](size_t ti) {
    const CoherenceWork before = ThreadCoherenceWork();
    process_table(ti);
    per_work[ti] = ThreadCoherenceWork() - before;
  };

  if (pool) {
    pool->ParallelFor(tables.size(), process);
  } else {
    for (size_t i = 0; i < tables.size(); ++i) process(i);
  }

  for (size_t i = 0; i < first_new_table; ++i) {
    if (flipped[i]) result.flipped_tables.push_back(static_cast<TableId>(i));
  }
  result.unstable_tables = result.flipped_tables.size();
  result.stable = result.flipped_tables.empty();
  result.margin_skips = skips.load();
  result.margin_rechecks = rechecks.load();
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
  if (margins_on) {
    BuildCsr(per_margin, &result.margin_offsets, &result.margins);
  }
  return result;
}

}  // namespace ms
