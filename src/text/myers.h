// Bit-parallel approximate string matching (Myers 1999, Hyyrö 2003).
//
// The scalar banded DP in edit_distance.cc costs O(θ_ed · n) cell updates
// plus two heap allocations per call; on the pair-scoring hot path (the
// pipeline's dominant stage) that is the inner loop of the whole system.
// Myers' algorithm encodes a full DP column in two machine words (the
// positive/negative vertical delta bit vectors) and advances one text
// character with ~15 word operations, independent of the threshold:
//
//   - `Myers64` — single-word kernel for patterns ≤ 64 bytes (the
//     overwhelming corpus case after cell normalization).
//   - `MyersBlocked` — unbounded-length variant that stacks ⌈m/64⌉ words
//     and carries the horizontal delta across block boundaries
//     (Hyyrö's AdvanceBlock formulation).
//   - `MyersPattern` — the per-pattern bitmask table (Peq), precomputable
//     once and reused across every comparison against that pattern. Stored
//     sparsely: a pattern touches at most |pattern| distinct byte values,
//     so instead of a dense 256 × words mask table (2KB per cached single-
//     word pattern) it keeps one mask row per distinct byte plus a 256-entry
//     row index — ~4x smaller for typical short cell values, which is what
//     long-lived session matchers hoard.
//   - `BatchApproxMatcher` — the batch interface pair scoring uses: it
//     caches `MyersPattern`s per interned ValueId so scoring one left value
//     against many right values builds the mask table exactly once, and it
//     mirrors the `ValuesMatch` predicate (exact / synonym / approximate)
//     bit for bit.
//
// Both kernels return the exact Levenshtein distance (they are not
// band-limited approximations), so they agree with `EditDistanceFull`
// everywhere and with `EditDistanceBanded` whenever the distance fits the
// band — the property the differential tests in tests/text_test.cc enforce.
// The scalar banded DP stays off the hot path, as the oracle.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "table/string_pool.h"
#include "text/edit_distance.h"
#include "text/synonyms.h"

namespace ms {

/// Precomputed pattern state: the Peq bitmask table keyed by byte value,
/// stored sparsely. `slot[c]` indexes the mask row for byte c; row 0 is a
/// shared all-zero row for bytes absent from the pattern, so lookups never
/// branch. Row r occupies masks[r * words .. r * words + words).
struct MyersPattern {
  uint32_t length = 0;
  uint32_t words = 0;  ///< ⌈length/64⌉ (0 for the empty pattern)
  std::array<uint16_t, 256> slot{};  ///< byte -> mask row (0 = absent)
  std::vector<uint64_t> masks;       ///< (1 + distinct bytes) × words rows

  bool single_word() const { return length <= 64; }

  /// Single-word mask for byte c (valid when words == 1).
  uint64_t Mask1(uint8_t c) const { return masks[slot[c]]; }

  /// Blocked mask row for byte c (`words` consecutive entries).
  const uint64_t* Row(uint8_t c) const {
    return masks.data() + static_cast<size_t>(slot[c]) * words;
  }

  /// Heap footprint of the mask table (the quantity the sparse layout
  /// shrinks versus the former dense 256-entry table).
  size_t MaskBytes() const { return masks.capacity() * sizeof(uint64_t); }
};

/// Builds (or rebuilds) the bitmask table for `pattern` into `*out`.
void BuildMyersPattern(std::string_view pattern, MyersPattern* out);

/// Exact Levenshtein distance between the prebuilt pattern and `text`.
/// O(⌈m/64⌉ · |text|) word operations, no heap allocation for m ≤ 512.
size_t MyersDistance(const MyersPattern& pattern, std::string_view text);

/// Band-limited variant with the same contract as EditDistanceBanded:
/// returns the exact distance when it is <= band, otherwise band + 1. The
/// kernel abandons a column early once even the best possible remaining
/// run of matches (one score decrement per leftover text byte) cannot pull
/// the score back under the band — the bit-parallel analogue of the banded
/// DP's row_min early-out.
size_t MyersDistanceBounded(const MyersPattern& pattern,
                            std::string_view text, size_t band);

/// One-shot single-word kernel. Requires pattern.size() <= 64.
size_t Myers64(std::string_view pattern, std::string_view text);

/// One-shot blocked kernel; any lengths (single-word internally when the
/// pattern fits one word, so Myers64 == MyersBlocked on shared inputs).
size_t MyersBlocked(std::string_view pattern, std::string_view text);

/// Counters for the batch matcher; aggregated per scoring chunk into
/// PipelineStats so the fast-path mix is observable.
struct MatcherStats {
  /// Value verdicts computed: one per Match() call, either overload. The
  /// pair scorer (PairScorer, synth/compatibility.h) computes each
  /// left-value verdict of a pair at most once and re-reads it from its
  /// verdict grid, so a re-read is not counted; right values are compared,
  /// and counted, per comparison.
  size_t match_calls = 0;
  size_t myers64_calls = 0;        ///< single-word kernel runs
  size_t myers_blocked_calls = 0;  ///< multi-word kernel runs
  /// Scalar banded-DP runs. Always 0 since the Myers kernels became the
  /// only matching path; kept so persisted stats and reports keep their
  /// layout.
  size_t banded_calls = 0;
  size_t pattern_cache_hits = 0;   ///< mask tables reused
  size_t pattern_cache_misses = 0; ///< mask tables built
  size_t charmask_rejects = 0;     ///< pairs rejected before any kernel run
  size_t cache_flushes = 0;        ///< value-cache resets (capacity cap hit)

  void Add(const MatcherStats& o) {
    match_calls += o.match_calls;
    myers64_calls += o.myers64_calls;
    myers_blocked_calls += o.myers_blocked_calls;
    banded_calls += o.banded_calls;
    pattern_cache_hits += o.pattern_cache_hits;
    pattern_cache_misses += o.pattern_cache_misses;
    charmask_rejects += o.charmask_rejects;
    cache_flushes += o.cache_flushes;
  }
};

/// Scores one pattern value against many candidate values without
/// recomputing its bitmasks: `Match(a, b)` treats `a` as the (cached)
/// pattern side and must return exactly what `ValuesMatch(a, b, pool, opts)`
/// returns for the configuration it was built from. One matcher serves one
/// scoring run; value strings repeat heavily across neighbouring tables, so
/// the per-id cache amortizes mask builds across the whole candidate loop.
///
/// The pair scorer resolves each value of a pair once into a `Record` and
/// runs the same predicate over records, so its quadratic loops read flat
/// arrays instead of probing the cache per comparison; only a comparison
/// that survives every cheap test reaches the cache again, for its pattern.
///
/// Beyond the pattern masks, the matcher interns per-value state once per
/// first sight: the pool string_view (stable — StringPool stores strings in
/// a deque and never moves them — so this skips the pool's per-Get mutex)
/// and the precomputed ⌊len · f_ed⌋ threshold component. A Match or Text
/// call after warm-up touches no locks and allocates nothing.
///
/// Long-lived matchers (SynthesisSession keeps one per worker across runs)
/// can bound the cache with `max_cached_values`: when the cap is exceeded
/// the whole cache is flushed (counted in MatcherStats::cache_flushes).
/// Cache contents never affect results, only speed, so flushing is always
/// safe.
class BatchApproxMatcher {
 public:
  BatchApproxMatcher(const StringPool& pool, const EditDistanceOptions& edit,
                     bool approximate_matching,
                     const SynonymDictionary* synonyms,
                     const SynonymSnapshot* synonym_snapshot = nullptr,
                     size_t max_cached_values = 0)
      : pool_(pool),
        edit_(edit),
        approximate_(approximate_matching),
        synonyms_(synonyms),
        snapshot_(synonym_snapshot),
        max_cached_values_(max_cached_values) {}

  BatchApproxMatcher(const BatchApproxMatcher&) = delete;
  BatchApproxMatcher& operator=(const BatchApproxMatcher&) = delete;

  /// The ValuesMatch predicate: exact id equality, then synonyms (through
  /// the snapshot when one is set — lock-free — otherwise the dictionary),
  /// then the fractional-threshold approximate match with `a` as the
  /// pattern side.
  bool Match(ValueId a, ValueId b);

  /// One value resolved for a scored pair: the inputs of the predicate's
  /// cheap tests, copied out of the value cache. A record is a plain copy,
  /// so a cache flush never invalidates it (`text` points into the pool).
  struct Record {
    ValueId id = kInvalidValueId;
    /// Class root through the synonym snapshot; kInvalidValueId when the
    /// value has no synonym or no snapshot is set.
    ValueId syn_class = kInvalidValueId;
    uint32_t length = 0;
    uint32_t frac_floor = 0;  ///< ⌊length · f_ed⌋
    uint64_t char_mask = 0;   ///< see ValueInfo::char_mask
    uint32_t mask_bits = 0;   ///< popcount(char_mask)
    const char* text = nullptr;

    std::string_view view() const { return {text, length}; }
  };

  /// Resolves `id` into a record. Under approximate matching the value is
  /// read through the cache (honouring `max_cached_values`); otherwise the
  /// predicate reads only the id and the synonym class, and the cache is
  /// not touched.
  Record Resolve(ValueId id);

  /// Match over resolved values: the same verdict, in the same predicate
  /// order, as Match(a.id, b.id), with `a` the pattern side. The cheap
  /// tests run inline; only a survivor fetches `a`'s cached pattern and
  /// runs a kernel.
  bool Match(const Record& a, const Record& b) {
    ++stats_.match_calls;
    if (a.id == b.id) return true;
    if (snapshot_ != nullptr) {
      if (a.syn_class != kInvalidValueId && a.syn_class == b.syn_class) {
        return true;
      }
    } else if (synonyms_ != nullptr && synonyms_->AreSynonyms(a.id, b.id)) {
      return true;
    }
    return approximate_ && Approx(a, b);
  }

  /// The pool string of `id`, read through the value cache: only the first
  /// sight of an id calls StringPool::Get (and takes its lock). The view
  /// points into the pool, not the cache, so it outlives cache flushes.
  /// Honours `max_cached_values` the way Match does.
  std::string_view Text(ValueId id);

  /// Re-points the matcher at a new matching configuration while keeping
  /// as much warm state as validity allows: the per-value cache (texts,
  /// charmasks, ⌊len·f_ed⌋ floors, pattern masks) survives whenever
  /// `edit.fractional` is unchanged — none of it depends on any other
  /// option — and is flushed otherwise. This is what lets a session re-run
  /// scoring under tweaked thresholds without rebuilding a single mask.
  void Reconfigure(const EditDistanceOptions& edit, bool approximate_matching,
                   const SynonymDictionary* synonyms,
                   const SynonymSnapshot* synonym_snapshot);

  const MatcherStats& stats() const { return stats_; }

  /// Clears the counters (not the cache); sessions call this per run so
  /// per-run stats stay attributable.
  void ResetStats() { stats_ = MatcherStats{}; }

  /// Heap footprint of the value cache (mask rows dominate).
  size_t cache_bytes() const { return cache_bytes_; }
  size_t cached_values() const { return infos_.size(); }

  /// The pool this matcher resolves ids against; callers handing the
  /// matcher around assert it matches theirs.
  const StringPool& pool() const { return pool_; }

 private:
  struct ValueInfo {
    std::string_view text;   ///< stable view into the pool
    size_t frac_floor = 0;   ///< ⌊|text| · f_ed⌋
    /// Presence bitmap of the text's bytes folded to 64 bits. For any two
    /// values, max over both directions of popcount(mine & ~theirs) lower-
    /// bounds the edit distance (every occurrence of a byte class present
    /// on one side only must be touched by an edit), so a popcount
    /// rejects most non-matching candidates before any kernel runs.
    /// Folding collisions only weaken the bound, never break it.
    uint64_t char_mask = 0;
    uint32_t mask_bits = 0;  ///< popcount(char_mask)
    std::unique_ptr<MyersPattern> pattern;  ///< built on first pattern use
  };

  /// The approximate tail of the predicate over two distinct, non-synonym
  /// values: FractionalThreshold with the ⌊len · f_ed⌋ components
  /// precomputed, then the length gap and the char-mask lower bound, and
  /// the kernel only for what survives.
  bool Approx(const Record& a, const Record& b) {
    const size_t band = std::min(
        {size_t{a.frac_floor}, size_t{b.frac_floor}, edit_.cap});
    if (band == 0) return false;  // interning: a != b implies texts differ
    const size_t gap =
        a.length > b.length ? a.length - b.length : b.length - a.length;
    if (gap > band) return false;  // length gap alone exceeds the threshold
    // max(popcount(a & ~b), popcount(b & ~a)) with one popcount per
    // comparison: popcount(x & ~y) = popcount(x) - popcount(x & y).
    const size_t shared =
        static_cast<size_t>(__builtin_popcountll(a.char_mask & b.char_mask));
    const size_t lb = std::max(a.mask_bits, b.mask_bits) - shared;
    if (lb > band) {
      ++stats_.charmask_rejects;
      return false;
    }
    return Kernel(a, b, band);
  }

  /// Runs the bounded kernel with `a`'s cached pattern against `b`.
  bool Kernel(const Record& a, const Record& b, size_t band);
  /// InfoFor behind the `max_cached_values` check: flushes first when
  /// inserting `id` would exceed the cap.
  ValueInfo& CachedInfo(ValueId id);
  ValueInfo& InfoFor(ValueId id);
  const MyersPattern& PatternFor(ValueInfo& info);
  void FlushCache();

  const StringPool& pool_;
  EditDistanceOptions edit_;
  bool approximate_;
  const SynonymDictionary* synonyms_;
  const SynonymSnapshot* snapshot_;
  size_t max_cached_values_;
  FlatMap64<uint32_t> index_;  ///< id+1 -> infos_ slot + 1 (0 = absent)
  std::deque<ValueInfo> infos_;
  size_t cache_bytes_ = 0;
  /// One-entry MRU for the pattern side: inner scoring loops hold one left
  /// value against many right values, so this usually skips even the flat
  /// hash probe.
  ValueId mru_pattern_id_ = kInvalidValueId;
  ValueInfo* mru_pattern_ = nullptr;
  MatcherStats stats_;
};

}  // namespace ms
