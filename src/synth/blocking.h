// Inverted-index blocking (Section 4.1 "Efficiency"): instead of scoring all
// O(N^2) candidate-table pairs, group tables that share value pairs (for w+)
// or left-hand values (for w-) and only score pairs within a group with at
// least θ_overlap shared items.
//
// The production path is one sharded streaming engine,
// `GenerateDeltaCandidatePairs`: a map+shuffle round hash-partitions
// (item-hash -> table-id) postings, then each partition is sort-grouped and
// its co-occurring id pairs are streamed straight into hash-sharded flat
// count maps keyed by the packed id pair. The quadratic id-pair stream is
// never materialized and the final count/threshold pass is parallel over
// shards. A cold run (`GenerateCandidatePairs`) is that engine over an empty
// base. `GenerateCandidatePairsReference` keeps the original
// emit-everything-then-count implementation for equivalence tests and
// benchmarking.
//
// Truncation order. Every entry point takes an optional `order` (one entry
// per candidate id): a posting list longer than max_posting keeps the
// max_posting candidates with the smallest (order[id], id) and drops the
// rest. Empty means id order. SynthesisSession passes each candidate's source
// table, so truncation follows (source table, id): the order in which a cold
// extraction over the same corpus assigns dense ids. That keeps a mutated
// family's truncation identical to its cold rebuild's even where a
// re-extracted table's candidates sit at tail ids. Only lists that actually
// truncate are re-sorted.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "table/binary_table.h"

namespace ms {

struct BlockingOptions {
  /// Minimum shared value pairs for a pair to be scored for w+ and minimum
  /// shared left values for w- (θ_overlap in Section 5.4).
  size_t theta_overlap = 2;
  /// Posting lists longer than this are truncated: extremely common values
  /// ("usa", "total") would otherwise create quadratic hot keys. Truncation
  /// is deterministic (the candidates first in truncation order win; see the
  /// file comment) and the number of dropped postings is reported in
  /// BlockingStats.
  size_t max_posting = 256;

  /// InvalidArgument when θ_overlap is 0 (every id pair would survive —
  /// the quadratic blow-up blocking exists to prevent) or max_posting < 2
  /// (no posting list could ever emit a co-occurrence).
  Status Validate() const;

  bool operator==(const BlockingOptions&) const = default;
};

/// A pair of candidate tables that blocking selected for exact scoring.
struct CandidateTablePair {
  uint32_t a = 0;
  uint32_t b = 0;             ///< a < b
  uint32_t shared_pairs = 0;  ///< co-occurring (left,right) value pairs
  uint32_t shared_lefts = 0;  ///< co-occurring left values
  /// True when this pair's counts are provably the true co-occurrence
  /// cardinalities: neither a nor b was ever dropped from a truncated
  /// posting list, so no list containing both could have lost either of
  /// them. Scoring uses this to skip the exact pair-list merge per pair
  /// instead of requiring the whole run to be truncation-free.
  bool counts_exact = false;
};

/// Observability for the blocking stage (feeds PipelineStats).
struct BlockingStats {
  double map_shuffle_seconds = 0.0;  ///< map + hash-partition phase
  double count_seconds = 0.0;        ///< sort-group + sharded counting
  double reduce_seconds = 0.0;       ///< shard merge + threshold + sort
  size_t keys = 0;                   ///< distinct blocking keys seen
  /// Postings dropped by the max_posting cap. The cap keeps the candidates
  /// first in truncation order, so late-ranked candidates silently lose
  /// pairs; this counter makes that bias observable instead of silent.
  size_t dropped_postings = 0;
  /// Candidates dropped from at least one truncated posting list. Only
  /// pairs touching one of these have potentially understated counts; all
  /// other pairs keep CandidateTablePair::counts_exact even in truncated
  /// runs (previously one dropped posting anywhere disabled count reuse
  /// globally).
  size_t tainted_candidates = 0;
  /// True when no posting list was truncated, i.e. every returned
  /// shared_pairs / shared_lefts is the true co-occurrence cardinality.
  /// Kept as the whole-run summary; per-pair reuse is driven by
  /// CandidateTablePair::counts_exact.
  bool exact_counts = false;
  /// Per-candidate taint bitmap (empty when no posting list was truncated):
  /// tainted[id] == 1 iff candidate `id` was dropped from at least one
  /// truncated posting list. This is the state incremental blocking needs:
  /// when a delta pass merges (DeltaMergeIsExact), no old candidate was
  /// displaced, so old taint is unchanged and the union run's bitmap is this
  /// one plus whatever the delta pass taints. Persisted with the
  /// BlockedPairs artifact so restore-then-append works.
  std::vector<uint8_t> tainted;
};

/// Runs blocking over all candidates: GenerateDeltaCandidatePairs with
/// every candidate appended to an empty base. Returned pairs satisfy
/// shared_pairs >= θ_overlap or shared_lefts >= θ_overlap, sorted by (a, b).
/// `order` is the truncation order (empty = id order). Empty input reports
/// empty, exact stats.
std::vector<CandidateTablePair> GenerateCandidatePairs(
    const std::vector<BinaryTable>& candidates,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr,
    BlockingStats* stats = nullptr, const std::vector<uint32_t>& order = {});

/// The seed implementation (materialize every co-occurring id pair, then
/// count in one hash map). Kept as the equivalence oracle for tests and as
/// the baseline for bench_micro/bench_pr1; do not use on large inputs.
std::vector<CandidateTablePair> GenerateCandidatePairsReference(
    const std::vector<BinaryTable>& candidates,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr,
    const std::vector<uint32_t>& order = {});

/// Accounting for one delta-blocking pass (feeds the merged BlockingStats).
struct DeltaBlockingStats {
  /// Blocking keys introduced by the appended candidates (present in no
  /// existing candidate); the union run's key count is base + this.
  size_t new_keys = 0;
  /// Additional postings dropped by max_posting truncation versus the base
  /// run; the union run's dropped_postings is base + this.
  size_t dropped_postings = 0;
  /// Delta-relevant keys processed (keys any appended candidate holds).
  size_t scanned_keys = 0;
  /// This pass's phase timings (a cold run reports them as BlockingStats').
  double map_shuffle_seconds = 0.0;
  double count_seconds = 0.0;
  double reduce_seconds = 0.0;
};

/// Incremental blocking for appended candidates: returns exactly the pairs
/// of a full GenerateCandidatePairs run over `candidates` (same `order`)
/// that involve at least one id >= `first_new`, the only pairs the append
/// created. Merging this output into a base run's pairs is byte-equivalent
/// to re-blocking from scratch whenever DeltaMergeIsExact holds: then pairs
/// between two existing candidates keep their base counts. New candidates
/// that rank after every existing one (appended tables under the session's
/// (source table, id) order) always satisfy it, because truncation keeps the
/// same old prefix of every posting list.
///
/// Only keys held by an appended candidate are counted: existing candidates
/// are scanned once (linear) to contribute their postings for those keys,
/// and the quadratic counting runs over the delta-relevant keys alone. With
/// `first_new` == 0 there are no existing candidates, so the key filter is
/// skipped and the pass is a full blocking run.
///
/// `tainted` is the union-run taint bitmap, in/out: pass the base run's
/// bitmap (resized to candidates.size(); empty stays empty until a
/// truncation happens) and the delta pass adds the ids it drops. Returned
/// pairs' counts_exact is computed against the updated bitmap.
std::vector<CandidateTablePair> GenerateDeltaCandidatePairs(
    const std::vector<BinaryTable>& candidates, uint32_t first_new,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr,
    std::vector<uint8_t>* tainted = nullptr,
    DeltaBlockingStats* stats = nullptr,
    const std::vector<uint32_t>& order = {});

/// The session's branch rule: whether merging a delta pass into its base
/// run reproduces re-blocking the whole mutated candidate set. Two things
/// break the merge:
///  - resurrection: the mutation `retired` candidates and the base run
///    truncated (`base_dropped_postings` != 0). Freed slots can pull dropped
///    postings back under the cap and revive old pairs on keys the delta
///    pass never scans.
///  - displacement: some new candidate is `reranked`, i.e. ranks before
///    existing ones in truncation order (a re-extracted old table), and a
///    delta key's union list truncated (`delta_dropped_postings` != 0, which
///    is exactly that). Such a candidate can push an old posting out of the
///    kept prefix.
/// A pure append of new tables always merges. Pass 0 for
/// `delta_dropped_postings` to ask before running the pass whether it can
/// merge at all. When the rule fails, re-block with GenerateCandidatePairs.
bool DeltaMergeIsExact(bool retired, bool reranked,
                       size_t base_dropped_postings,
                       size_t delta_dropped_postings);

}  // namespace ms
