// Column coherence S(C) (Equation 2): the average pair-wise NPMI between the
// column's distinct values. Low-coherence columns (mixed concepts, mis-
// aligned extractions like the "Location" column of Table 7) are filtered
// out of candidate extraction.
#pragma once

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

/// Computes S(C) over the distinct values of `cells`. Columns with a single
/// distinct value get coherence 1 (trivially coherent). Empty columns get 0.
/// When `profile` is non-null it is filled with the margin cache for this
/// evaluation (score/n_eval always set; pair aggregates zero for the
/// trivial empty/single-value cases, which are index-independent anyway).
///
/// Every c_uv the score needs comes from one pass over the supported
/// sampled values' posting lists: a per-thread slot per ColumnId records
/// which of those values the column held so far, so each list is walked
/// once per column (once per 32-value block it trails when the sample holds
/// more than 32 supported values), never once per partner.
double ColumnCoherence(const ColumnInvertedIndex& index,
                       const std::vector<ValueId>& cells,
                       const CoherenceOptions& opts = {},
                       CoherenceProfile* profile = nullptr);

/// Running totals of the coherence work the calling thread has done since
/// it started: ColumnCoherence evaluations, and the posting entries their
/// counting passes walked. Callers difference two reads to attribute a
/// stretch of work (one extraction task, say) without a shared counter.
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
