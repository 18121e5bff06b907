// Inverted-index blocking (Section 4.1 "Efficiency"): instead of scoring all
// O(N^2) candidate-table pairs, group tables that share value pairs (for w+)
// or left-hand values (for w-) and only score pairs within a group with at
// least θ_overlap shared items.
//
// One engine, `BlockingKeyIndex`: each key's holders ranked in truncation
// order (the first max_posting kept), and each candidate's keys. It counts
// one candidate's row at a time, walking the kept lists of the row's keys
// against per-thread, epoch-stamped counter slots, so rows come out in
// (a, b) order with no id-pair stream or count map. SynthesisSession keeps
// one index and patches it per mutation: a pair's counts change only if an
// endpoint joined or left some key's kept list, so only the rows of new,
// retired, displaced and resurrected candidates are recounted.
//
// Truncation order. Every entry point takes an optional `order` (one entry
// per candidate id): a posting list longer than max_posting keeps the
// max_posting candidates with the smallest (order[id], id) and drops the
// rest. Empty means id order. SynthesisSession passes each candidate's source
// table, the order in which a cold extraction over the same corpus assigns
// dense ids, so a mutated family truncates exactly as its cold rebuild does
// even where a re-extracted table's candidates sit at tail ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_hash.h"
#include "common/hashing.h"
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
  /// Phase timings, named before the key index (snapshots persist them).
  double map_shuffle_seconds = 0.0;  ///< index build, or a mutation's patch
  double count_seconds = 0.0;        ///< row count
  double reduce_seconds = 0.0;       ///< a mutation's splice; 0 when cold
  size_t keys = 0;                   ///< distinct blocking keys seen
  /// Postings dropped by the max_posting cap. The cap keeps the candidates
  /// first in truncation order, so late-ranked candidates silently lose
  /// pairs; this counter makes that bias observable instead of silent.
  size_t dropped_postings = 0;
  /// Candidates dropped from at least one truncated posting list. Only
  /// pairs touching one of these have potentially understated counts; all
  /// other pairs keep CandidateTablePair::counts_exact even in truncated
  /// runs.
  size_t tainted_candidates = 0;
  /// True when no posting list was truncated, i.e. every returned
  /// shared_pairs / shared_lefts is the true co-occurrence cardinality.
  /// Kept as the whole-run summary; per-pair reuse is driven by
  /// CandidateTablePair::counts_exact.
  bool exact_counts = false;
  /// Per-candidate taint bitmap (empty when no posting list was truncated):
  /// tainted[id] == 1 iff candidate `id` was dropped from at least one
  /// truncated posting list. Persisted with the BlockedPairs artifact.
  std::vector<uint8_t> tainted;
};

/// Blocking keys: value pairs get tag bit 0 (shared_pairs / w+), left
/// values tag bit 1 (shared_lefts / w-); hashes are taken as collision-free.
inline uint64_t PairKey(const ValuePair& p) {
  return HashIdPair(p.left, p.right) << 1;
}
inline uint64_t LeftKey(ValueId left) { return (Mix64(left) << 1) | 1; }

/// Calls `fn` with each pair key of `b`, then each distinct left's key.
template <typename Fn>
void ForEachBlockingKey(const BinaryTable& b, Fn&& fn) {
  const auto& pairs = b.pairs();
  for (const auto& p : pairs) fn(PairKey(p));
  // Pairs are sorted by left, so each left-run start is a distinct left.
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].left != pairs[i - 1].left) {
      fn(LeftKey(pairs[i].left));
    }
  }
}

/// The blocking state of one candidate set: every key's holders in
/// truncation order, and every candidate's keys, flagged where it is not in
/// the kept prefix. Candidates are addressed by their index in the
/// candidate vector; empty tables (dead candidates) hold no key. Holds up
/// to 2^30 keys and 2^32 postings.
class BlockingKeyIndex {
 public:
  /// What one Patch changed.
  struct Change {
    /// C, sorted: the new and retired candidates, plus old ones displaced
    /// from or resurrected into some key's kept prefix. A pair's counts,
    /// and a candidate's taint bit, can change only inside C.
    std::vector<uint32_t> changed;
    size_t displaced = 0;    ///< (candidate, key) postings that left a prefix
    size_t resurrected = 0;  ///< (candidate, key) postings that re-entered one
  };

  /// Indexes every candidate, truncating at `max_posting` in `order`.
  void Build(const std::vector<BinaryTable>& candidates, size_t max_posting,
             const std::vector<uint32_t>& order = {});

  /// A cold pass: Build, then CountRows over every row; fills `stats`
  /// (FillStats plus the two phases' timings).
  std::vector<CandidateTablePair> BuildAndCount(
      const std::vector<BinaryTable>& candidates,
      const BlockingOptions& options, const std::vector<uint32_t>& order,
      ThreadPool* pool, BlockingStats* stats);

  /// Brings the index from its current candidate set to `candidates`: the
  /// ids flagged in `retired` (at most size() entries) lost their keys, and
  /// ids from size() on are new. `order` is the truncation order of the new
  /// set; it must rank the candidates the index already holds as the
  /// previous order did (a session's (source table, id) order does).
  /// Touches only the keys the retired and new candidates hold.
  Change Patch(const std::vector<BinaryTable>& candidates,
               const std::vector<uint8_t>& retired,
               const std::vector<uint32_t>& order = {});

  /// Every pair with shared_pairs >= θ or shared_lefts >= θ, sorted by
  /// (a, b). Without `rows` every candidate's row is counted; with `rows`
  /// (sorted) only pairs with an endpoint in `rows` are, each once.
  std::vector<CandidateTablePair> CountRows(
      size_t theta_overlap, ThreadPool* pool,
      const std::vector<uint32_t>* rows = nullptr) const;

  /// keys, dropped_postings, taint and exact_counts; timings untouched.
  void FillStats(BlockingStats* stats) const;

  /// Calls fn(held, kept, left) with each kept list `id` is in: the first
  /// `kept` holders of the key, and whether it is a left-value key.
  template <typename Fn>
  void ForEachKeptList(uint32_t id, Fn&& fn) const {
    for (uint32_t entry : cand_keys_[id]) {
      if ((entry & kDropped) != 0) continue;
      const Span& s = spans_[entry & kSlotMask];
      fn(holders_.data() + s.begin,
         static_cast<uint32_t>(std::min<size_t>(s.size, max_posting_)),
         (entry & kLeft) != 0);
    }
  }

  size_t size() const { return cand_keys_.size(); }
  bool tainted(uint32_t id) const { return dropped_count_[id] != 0; }
  /// Heap bytes the index holds (capacity, not size).
  size_t bytes() const;

 private:
  struct Span {
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// A candidate's key entry: the key's slot plus two flag bits.
  static constexpr uint32_t kLeft = 1u << 30;
  static constexpr uint32_t kDropped = 1u << 31;
  static constexpr uint32_t kSlotMask = kLeft - 1;

  /// The slot of `key`, created (empty) on first sight.
  uint32_t SlotOf(uint64_t key);
  void SetDropped(uint32_t id, uint32_t slot, bool dropped);
  /// Writes `list` as `slot`'s holders, moving it to the arena's end when
  /// it outgrew its range.
  void StoreHolders(uint32_t slot, const std::vector<uint32_t>& list);
  void CompactHolders();

  size_t max_posting_ = 0;
  /// key + 1 -> slot + 1 (FlatMap64 reserves key 0 and reads 0 as unset).
  FlatMap64<uint32_t> slot_of_;
  std::vector<Span> spans_;        ///< per slot: its holders in holders_
  std::vector<uint32_t> holders_;  ///< arena of holder lists, rank order
  size_t garbage_ = 0;             ///< arena entries no span owns
  std::vector<std::vector<uint32_t>> cand_keys_;  ///< per candidate
  std::vector<uint32_t> dropped_count_;  ///< per candidate: flagged keys
  size_t num_keys_ = 0;                  ///< slots with a holder
  size_t dropped_postings_ = 0;
};

/// Runs blocking over all candidates: a cold pass over a fresh
/// BlockingKeyIndex. Returned pairs satisfy shared_pairs >= θ_overlap or
/// shared_lefts >= θ_overlap, sorted by (a, b). `order` is the truncation
/// order (empty = id order). Empty input reports empty, exact stats.
std::vector<CandidateTablePair> GenerateCandidatePairs(
    const std::vector<BinaryTable>& candidates,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr,
    BlockingStats* stats = nullptr, const std::vector<uint32_t>& order = {});

/// A mutation's blocked pairs: the base pairs with no endpoint flagged in
/// `changed` (their counts and exactness cannot have moved), merged with
/// `rows`, the recounted pairs of the changed rows (CountRows with `rows`),
/// both sorted by (a, b). The recounted pairs the base did not have go to
/// `fresh`, in order: the only pairs scoring has to see.
std::vector<CandidateTablePair> SpliceChangedRows(
    const std::vector<CandidateTablePair>& base,
    const std::vector<uint8_t>& changed,
    const std::vector<CandidateTablePair>& rows,
    std::vector<CandidateTablePair>* fresh);

/// Test seam for the per-thread row counter's 32-bit epoch, which clears
/// the slot array only when it wraps. Setting it backwards is unsafe, as
/// for SetThreadCoherenceEpochForTesting.
uint32_t ThreadBlockingEpochForTesting();
void SetThreadBlockingEpochForTesting(uint32_t epoch);

}  // namespace ms
