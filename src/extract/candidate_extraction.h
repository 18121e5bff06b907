// Step 1 of the pipeline (Section 3, Algorithm 1): from each corpus table,
// extract ordered two-column candidate tables, dropping
//   (a) incoherent columns (PMI/NPMI coherence below threshold), and
//   (b) column pairs whose local relationship is not a θ-approximate FD.
// Cell values are normalized (text/normalize.h) before candidates are built,
// so all downstream matching operates on normalized values.
#pragma once

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "stats/coherence.h"
#include "stats/inverted_index.h"
#include "table/binary_table.h"
#include "table/corpus.h"
#include "text/normalize.h"

namespace ms {

struct ExtractionOptions {
  /// Columns with coherence S(C) below this are removed (Section 3.1).
  double coherence_threshold = 0.10;
  /// θ for the approximate-FD check (Definition 2; the paper uses 95%).
  double fd_theta = 0.95;
  /// Candidate tables with fewer distinct pairs than this are dropped:
  /// tiny fragments provide no synthesis signal.
  size_t min_pairs = 3;
  /// Tables wider than this are skipped (guards pathological extractions).
  size_t max_columns = 16;
  /// Drop candidates whose left column is dominated by numeric values
  /// (Section 4.3 suggests pruning numeric/temporal relationships).
  bool drop_numeric_left = false;

  CoherenceOptions coherence;
  NormalizeOptions normalize;

  /// InvalidArgument on out-of-domain thresholds: fd_theta outside (0, 1]
  /// (Definition 2 is a fraction of rows), min_pairs == 0 (an empty
  /// candidate carries no synthesis signal and breaks downstream ratios),
  /// max_columns < 2 (no column pair can ever form), or a non-finite
  /// coherence threshold.
  Status Validate() const;

  bool operator==(const ExtractionOptions&) const = default;
};

/// Statistics reported alongside candidates (the paper notes ~78% of raw
/// column pairs are filtered out by these two steps).
struct ExtractionStats {
  size_t tables_seen = 0;
  size_t columns_seen = 0;
  size_t columns_kept = 0;        ///< survived the PMI coherence filter
  size_t pairs_considered = 0;    ///< ordered pairs among kept columns
  size_t pairs_kept = 0;          ///< survived the FD filter
  size_t normalize_cache_hits = 0;    ///< cell lookups served from the cache
  size_t normalize_cache_misses = 0;  ///< distinct values actually normalized

  double FilterRate() const {
    return pairs_considered == 0
               ? 0.0
               : 1.0 - static_cast<double>(pairs_kept) /
                           static_cast<double>(pairs_considered);
  }
};

struct ExtractionResult {
  /// Extracted candidates, ids assigned densely in corpus-table order: from
  /// 0 for a cold run, from DeltaExtractionRequest::first_new_id for a
  /// delta pass.
  std::vector<BinaryTable> candidates;
  ExtractionStats stats;
  /// Per-table kept-column signatures, CSR over corpus table index:
  /// kept_columns[kept_offsets[t] .. kept_offsets[t+1]) are the column
  /// indices of table t that passed the PMI coherence filter (empty for
  /// width-skipped tables). Column coherence is a corpus-global statistic
  /// (it reads |C(u)| and N from the inverted index), so growing the corpus
  /// can in principle flip a verdict; incremental appends re-check these
  /// signatures under the grown index — everything *downstream* of the kept
  /// set (normalization, the FD filter, candidate assembly) depends only on
  /// the table's own cells and is append-invariant.
  std::vector<uint32_t> kept_offsets;  ///< size tables + 1
  std::vector<uint32_t> kept_columns;
  /// Margin cache: one CoherenceProfile per column of every width-passed
  /// table (CSR over corpus table index, same shape discipline as kept_*;
  /// empty slices for width-skipped tables). Incremental maintenance uses
  /// these to prove a column's verdict cannot flip under the mutated index
  /// without re-touching the posting lists (CoherenceVerdictStable). Both
  /// vectors stay empty when the coherence filter is disabled
  /// (coherence_threshold <= -1), where verdicts are index-independent.
  std::vector<uint32_t> margin_offsets;  ///< size tables + 1, or empty
  std::vector<CoherenceProfile> margins;
};

/// Runs Algorithm 1 over the whole corpus: ExtractCandidatesDelta with no
/// old tables. `index` must have been built on `corpus`. Normalized values
/// are interned into the corpus pool. Thread pool optional (per-table
/// parallelism).
ExtractionResult ExtractCandidates(const TableCorpus& corpus,
                                   const ColumnInvertedIndex& index,
                                   const ExtractionOptions& options = {},
                                   ThreadPool* pool = nullptr);

/// Inputs for one incremental extraction pass over a mutated corpus
/// (appended and/or tombstoned tables). The base signatures come from the
/// previous artifact generation; the margin cache is optional (snapshots
/// from before format v3 restore without one — every column then pays an
/// exact re-check once and the cache repopulates).
struct DeltaExtractionRequest {
  /// Tables [first_new_table, corpus.size()) are the appended delta.
  size_t first_new_table = 0;
  /// New candidates (appended tables' and flipped tables' re-extractions)
  /// get ids assigned densely from here, in corpus-table order.
  BinaryTableId first_new_id = 0;
  const std::vector<uint32_t>* base_kept_offsets = nullptr;
  const std::vector<uint32_t>* base_kept_columns = nullptr;
  const std::vector<uint32_t>* base_margin_offsets = nullptr;  ///< optional
  const std::vector<CoherenceProfile>* base_margins = nullptr; ///< optional
  /// Tables tombstoned by this mutation (sorted ids, already cleared in the
  /// corpus). Their signatures are reset to empty without counting as
  /// flips — the caller tombstones their candidates wholesale.
  std::vector<TableId> removed_tables;
  /// Every distinct cell value the removed tables held, captured before
  /// the tombstoning cleared them. Together with the appended tables'
  /// values this is the "touched" set: an old column containing none of
  /// these provably kept all its value counts, which is what lets the
  /// margin cache skip its coherence re-check.
  std::vector<ValueId> removed_values;
};

/// Output of one incremental extraction pass (SynthesisSession::
/// AppendTables / RemoveTables / ReplaceTables). `candidates` holds the
/// appended tables' candidates plus re-extractions for any old table whose
/// kept-column signature flipped under the mutated index, ids assigned
/// densely from `first_new_id` in corpus-table order (flipped tables sort
/// before appended ones); when `stable` holds these are exactly the ids a
/// cold run over the grown corpus would assign the appended tables'
/// candidates. `stats` counts the appended tables only (add to the base
/// run's to get the union totals; flipped re-extractions are deliberately
/// excluded so the stable path stays byte-identical to a cold rebuild's
/// counters), and its normalize-cache counters cover this pass alone. The
/// kept/margin CSRs are the union signatures (old tables re-checked +
/// appended tables), ready to carry on the merged candidate artifact.
struct DeltaExtractionResult : ExtractionResult {
  /// True iff no live old table's kept-column set changed under the
  /// mutated index. When false, `flipped_tables` lists the tables whose
  /// base candidates the caller must tombstone in favor of the
  /// re-extractions included in `candidates`.
  bool stable = false;
  /// How many old tables' kept sets flipped (observability: a fleet whose
  /// appends keep re-extracting wants to know whether one borderline
  /// column or a corpus-wide drift is responsible).
  size_t unstable_tables = 0;
  std::vector<TableId> flipped_tables;  ///< sorted
  /// Margin-cache effectiveness: columns whose verdict the cached bound
  /// settled without touching the index vs columns that paid the exact
  /// sampled re-check.
  size_t margin_skips = 0;
  size_t margin_rechecks = 0;
};

/// Incremental Algorithm 1: `index` must reflect the *mutated* corpus
/// (appended tables indexed, removed tables' columns dropped). Re-checks
/// coherence signatures of live tables [0, first_new_table) against the
/// base run's CSR — through the margin cache when the bound applies, via
/// exact sampled re-scoring when it does not — fully extracts tables
/// [first_new_table, corpus.size()), and re-extracts any old table whose
/// kept set flipped. The re-check tax is what the margin cache amortizes:
/// an untouched column with a comfortable margin never re-reads the index.
DeltaExtractionResult ExtractCandidatesDelta(
    const TableCorpus& corpus, const ColumnInvertedIndex& index,
    const DeltaExtractionRequest& request,
    const ExtractionOptions& options = {}, ThreadPool* pool = nullptr);

/// Exposed for tests: true when the column passes the coherence filter.
/// Fills `profile` (when given and the filter is enabled) with the margin
/// cache for the evaluation.
bool ColumnPassesCoherence(const ColumnInvertedIndex& index,
                           const Column& column,
                           const ExtractionOptions& options,
                           CoherenceProfile* profile = nullptr);

}  // namespace ms
