// Column coherence S(C) (Equation 2): the average pair-wise NPMI between the
// column's distinct values. Low-coherence columns (mixed concepts, mis-
// aligned extractions like the "Location" column of Table 7) are filtered
// out of candidate extraction.
#pragma once

#include <span>

#include "common/flat_hash.h"
#include "common/random.h"
#include "stats/inverted_index.h"

namespace ms {

struct CoherenceOptions {
  /// Columns with more distinct values than this are scored on a random
  /// sample of this many values, keeping the quadratic pair enumeration
  /// bounded (the paper runs on Map-Reduce; we sample instead).
  size_t max_sampled_values = 32;
  uint64_t sample_seed = 42;
  /// Values occurring in fewer than this many corpus columns contribute 0
  /// (unknown) instead of their NPMI. Without this, junk values unique to
  /// one column trivially score NPMI = 1 against each other (they only
  /// ever "co-occur"), defeating the incoherence filter.
  size_t min_value_support = 2;

  bool operator==(const CoherenceOptions&) const = default;
};

/// Everything needed to re-evaluate a column's coherence verdict at a
/// different corpus size WITHOUT touching the inverted index, provided the
/// column's value frequencies are unchanged ("fixed counts"). Recorded once
/// per scored column and carried across incremental corpus mutations.
///
/// The math: NPMI(u,v) = 1 + ln G / ln(N / c_uv) with G = c_uv^2/(c_u c_v)
/// in (0, 1], so at fixed counts each supported pair's NPMI is monotone
/// non-decreasing in N, and (NPMI(N1) - 1) = (NPMI(N0) - 1) * r(c_uv) with
/// r = ln(N0/c_uv) / ln(N1/c_uv). S(C) = (sum_pos - Z) / P. Since r is
/// monotone in c_uv (decreasing for growth, increasing for shrink), one
/// ratio rho evaluated at b_max bounds the whole sum — see
/// CoherenceVerdictStable.
struct CoherenceProfile {
  double score = 0.0;     ///< S(C) as evaluated at n_eval
  double sum_pos = 0.0;   ///< sum of NPMI over supported pairs with c_uv > 0
  uint32_t pairs = 0;     ///< P: pair count over the (possibly sampled) set
  uint32_t sup_pos = 0;   ///< K: supported pairs with c_uv > 0
  uint32_t sup_zero = 0;  ///< Z: supported pairs with c_uv == 0 (NPMI -1)
  uint32_t b_max = 0;     ///< max c_uv over the K positive pairs
  uint32_t n_eval = 0;    ///< index.num_columns() when evaluated

  bool operator==(const CoherenceProfile&) const = default;
};

/// How many c_uv a column's count cache holds: one per pair of its sampled
/// values (its distinct values, at most max_sampled_values of them).
size_t SampledPairCount(const std::vector<ValueId>& cells,
                        const CoherenceOptions& opts = {});

/// Computes S(C) over the distinct values of `cells`. Columns with a single
/// distinct value get coherence 1 (trivially coherent). Empty columns get 0.
/// When `profile` is non-null it is filled with the margin cache for this
/// evaluation (score/n_eval always set; pair aggregates zero for the
/// trivial empty/single-value cases, which are index-independent anyway).
///
/// Every c_uv comes from one pass over the sampled values' posting lists: a
/// per-thread slot per ColumnId records which of those values the column
/// held so far, so each list is walked once per column (once per 32-value
/// block it trails when the sample holds more than 32 values), never once
/// per partner. Unsupported values are counted too, since a later mutation
/// can lift them over min_value_support. When `counts` is non-empty it
/// receives every sampled pair's c_uv: SampledPairCount(cells, opts)
/// entries, pair (j, i) with j < i at i * (i - 1) / 2 + j, in sample order.
double ColumnCoherence(const ColumnInvertedIndex& index,
                       const std::vector<ValueId>& cells,
                       const CoherenceOptions& opts = {},
                       CoherenceProfile* profile = nullptr,
                       std::span<uint32_t> counts = {});

/// The columns one corpus mutation appended and removed, indexed by value.
/// A c_uv moves only through a column holding both u and v, and |C(u)|
/// only through one holding u, so these few columns are all that separates
/// a count taken before the mutation from one taken after it. Local ids
/// number the appended columns from 0, then the removed ones.
class CoOccurrenceDelta {
 public:
  /// Each column is given by its cells; a value counts once per column.
  void Build(const std::vector<const std::vector<ValueId>*>& appended,
             const std::vector<const std::vector<ValueId>*>& removed);

  /// True when an appended or removed column holds `v`.
  bool Touches(ValueId v) const { return lists_.Find(Key(v)) != nullptr; }
  /// The local ids of the delta columns holding `v`, ascending.
  PostingsView Postings(ValueId v) const;
  size_t num_appended() const { return num_appended_; }
  size_t num_columns() const { return num_columns_; }

 private:
  static uint64_t Key(ValueId v) { return uint64_t{v} + 1; }

  FlatMap64<uint64_t> lists_;  ///< value key -> begin << 32 | size
  std::vector<ColumnId> postings_;
  size_t num_appended_ = 0;
  size_t num_columns_ = 0;
};

/// ColumnCoherence from a column's cached counts. `base_counts` holds the
/// column's sampled pairs' c_uv (the layout ColumnCoherence writes) as they
/// stood on the index that `delta` turned into `index`; sampling options
/// must be the ones they were counted under. Each pair's count moves by the
/// delta columns holding both values, +1 per appended and -1 per removed
/// one, counted by the same kernel over the values' delta lists; |C(u)|
/// and N are read from `index`. The moved counts go to `counts` (which may
/// alias `base_counts`), and score and profile are bitwise what
/// ColumnCoherence(index, cells, opts) gives. The posting entries it adds
/// to the thread's work are delta entries. A slice whose size does not fit
/// the column's sample cannot hold its counts: the column is then scored
/// by ColumnCoherence and `counts` is left as it is.
double ColumnCoherenceFromCounts(const ColumnInvertedIndex& index,
                                 const CoOccurrenceDelta& delta,
                                 const std::vector<ValueId>& cells,
                                 const CoherenceOptions& opts,
                                 std::span<const uint32_t> base_counts,
                                 std::span<uint32_t> counts,
                                 CoherenceProfile* profile = nullptr);

/// Running totals of the coherence work the calling thread has done since
/// it started: ColumnCoherence and ColumnCoherenceFromCounts evaluations,
/// and the posting entries their counting passes walked (index entries for
/// the first, delta entries for the second). Callers difference two reads
/// to attribute a stretch of work (one extraction task, say) without a
/// shared counter.
struct CoherenceWork {
  uint64_t columns = 0;
  uint64_t postings = 0;

  CoherenceWork& operator+=(const CoherenceWork& o) {
    columns += o.columns;
    postings += o.postings;
    return *this;
  }
  CoherenceWork operator-(const CoherenceWork& o) const {
    return {columns - o.columns, postings - o.postings};
  }
};
CoherenceWork ThreadCoherenceWork();

/// Test seam for the per-thread scratch's 32-bit pass epoch, which clears
/// the slot array when it wraps. Only tests call these, and only to move
/// the epoch forward: slots written at a later epoch would read as live.
uint32_t ThreadCoherenceEpochForTesting();
void SetThreadCoherenceEpochForTesting(uint32_t epoch);

/// True when the verdict `score >= threshold` recorded in `profile` provably
/// cannot flip at corpus size `n_now`, assuming the column's value counts
/// (frequencies and co-occurrences) are unchanged since the profile was
/// recorded. Conservative: false means "re-evaluate", not "flipped".
///
/// Monotonicity gives two of the four cases outright (grow+kept and
/// shrink+rejected stay put). The other two use the one-sided bound
///   S(n_now) <=/>= (K + rho * (sum_pos - K) - Z) / P,
/// rho = ln(n_eval/c) / ln(n_now/c) at c = min(b_max, n_eval - 1) for
/// growth (upper bound) and c = b_max for shrink (lower bound, requires
/// b_max < n_now).
bool CoherenceVerdictStable(const CoherenceProfile& profile, double threshold,
                            size_t n_now);

}  // namespace ms
