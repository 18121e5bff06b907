// Pair-wise table compatibility (Section 4.1):
//   w+(B, B') = max{ |B∩B'|/|B| , |B∩B'|/|B'| }     (Eq. 3, max-containment)
//   w-(B, B') = -max{ |F(B,B')|/|B| , |F(B,B')|/|B'| }  (Eq. 4)
// where F is the conflict set (same left, different right). Value matching
// is exact on normalized strings, then approximate via bit-parallel Myers
// edit distance with a fractional threshold, then synonym-dictionary
// assisted.
//
// The production entry point is PairScorer: it scores through a caller-
// owned BatchApproxMatcher (pattern bitmasks cached across the whole
// candidate loop), resolves each table's values once, decides each pair of
// left values once per scored pair, and can reuse the shared_pairs /
// shared_lefts counts the blocking stage already computed instead of
// re-intersecting the sorted pair lists. The extended ComputeCompatibility
// overload is a one-pair PairScorer. The seed scalar implementation (banded
// DP, no caching, no hints) is the test oracle
// ComputeCompatibilityReference in tests/oracles/compatibility_reference.h.
#pragma once

#include <memory>

#include "common/status.h"
#include "table/binary_table.h"
#include "table/string_pool.h"
#include "text/edit_distance.h"
#include "text/myers.h"
#include "text/synonyms.h"

namespace ms {

struct CompatibilityOptions {
  /// Enables edit-distance matching of near-identical values (Example 8).
  bool approximate_matching = true;
  EditDistanceOptions edit;
  /// Optional synonym feed; synonymous rights never conflict. Matching
  /// reads the dictionary's View().
  const SynonymDictionary* synonyms = nullptr;

  /// InvalidArgument on malformed edit-distance thresholds.
  Status Validate() const;

  /// Pointer equality for the synonym feed — callers tracking dictionary
  /// *contents* must compare SynonymDictionary::version() themselves
  /// (MappingService::Resynthesize does).
  bool operator==(const CompatibilityOptions&) const = default;
};

/// Raw counts plus the two scores for one table pair.
struct PairScores {
  double w_pos = 0.0;   ///< in [0, 1]
  double w_neg = 0.0;   ///< in [-1, 0]
  size_t overlap = 0;   ///< |B ∩ B'| under the configured matching
  size_t conflicts = 0; ///< |F(B, B')|
  /// Blocking's co-occurrence counts for this pair, threaded through so
  /// downstream consumers see what blocking knew (0 when scored without a
  /// hint). `shared_pairs` counts exactly shared (left, right) pairs,
  /// `shared_lefts` exactly shared left values.
  uint32_t shared_pairs = 0;
  uint32_t shared_lefts = 0;
};

/// The blocking stage's per-pair knowledge, forwarded to scoring. `exact`
/// is true when no posting list was truncated in the blocking run, i.e. the
/// counts are the true co-occurrence cardinalities (modulo 64-bit key-hash
/// collisions, which blocking itself already relies on being absent).
struct BlockingHint {
  uint32_t shared_pairs = 0;
  uint32_t shared_lefts = 0;
  bool exact = false;
};

/// Scoring-stage observability: kernel mix from the batch matcher plus the
/// blocking-count reuse fast-path hits. Feeds PipelineStats.
struct ScoringStats {
  MatcherStats matcher;
  size_t overlap_merges_skipped = 0;  ///< overlap taken from BlockingHint

  void Add(const ScoringStats& o) {
    matcher.Add(o.matcher);
    overlap_merges_skipped += o.overlap_merges_skipped;
  }
};

/// True when two values match under the configured predicate (synonyms
/// through the dictionary's current view).
bool ValuesMatch(ValueId a, ValueId b, const StringPool& pool,
                 const CompatibilityOptions& opts);

/// Computes both scores for a pair of candidate tables. Convenience form:
/// builds a one-call matcher internally.
PairScores ComputeCompatibility(const BinaryTable& a, const BinaryTable& b,
                                const StringPool& pool,
                                const CompatibilityOptions& opts = {});

/// Scores many pairs through one caller-owned matcher. Each value of a
/// table is resolved once into a flat record (BatchApproxMatcher::Record),
/// and each table once per scorer rather than once per pair: a candidate
/// meets dozens of neighbours. Per pair, one lazily filled grid of left-
/// value verdicts serves both the overlap and the conflict pass, so every
/// (left of a, left of b) is decided at most once, and only a comparison
/// that survives the matcher's cheap tests runs a kernel. Scores are
/// exactly ComputeCompatibilityReference's.
///
/// Tables are cached by address: every table scored must outlive the
/// scorer and stay unchanged while it lives, and so must the matcher's
/// configuration (the session keeps one scorer per worker and scoring
/// run). The cache holds at most kMaxTables tables and is flushed whole on
/// overflow; its contents never affect scores. Not thread-safe: one scorer
/// per thread, like its matcher.
class PairScorer {
 public:
  static constexpr size_t kMaxTables = 1024;

  /// `matcher` must have been constructed from the same pool and the same
  /// matching configuration as `opts`.
  PairScorer(const CompatibilityOptions& opts, BatchApproxMatcher* matcher);
  ~PairScorer();
  PairScorer(const PairScorer&) = delete;
  PairScorer& operator=(const PairScorer&) = delete;

  /// Scores (a, b) in that orientation; see the extended
  /// ComputeCompatibility for `hint` and `stats`.
  PairScores Score(const BinaryTable& a, const BinaryTable& b,
                   const BlockingHint* hint = nullptr,
                   ScoringStats* stats = nullptr);

 private:
  // Defined in compatibility.cc.
  struct ResolvedTable;
  struct Tables;
  class LeftVerdicts;

  ResolvedTable& Resolved(const BinaryTable& t);

  CompatibilityOptions opts_;
  BatchApproxMatcher* matcher_;
  std::unique_ptr<Tables> tables_;
};

/// Scores through a caller-owned matcher (whose cached pattern masks
/// survive across calls), as a one-pair PairScorer. A hint marked exact
/// (the pair's counts were not affected by posting truncation) replaces
/// the exact pair-list merge under exact-only matching. `matcher` must have
/// been constructed from the same pool and the same matching configuration
/// as `opts`. Matcher kernel counters accumulate inside `matcher`; only the
/// fast-path skip counters are added to `stats` here (callers merge
/// matcher->stats() once at the end of their loop).
PairScores ComputeCompatibility(const BinaryTable& a, const BinaryTable& b,
                                const StringPool& pool,
                                const CompatibilityOptions& opts,
                                BatchApproxMatcher* matcher,
                                const BlockingHint* hint = nullptr,
                                ScoringStats* stats = nullptr);

}  // namespace ms
