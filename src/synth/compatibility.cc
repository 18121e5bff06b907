#include "synth/compatibility.h"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <tuple>
#include <vector>

namespace ms {

Status CompatibilityOptions::Validate() const {
  MS_RETURN_IF_ERROR(edit.Validate());
  if (synonym_snapshot != nullptr) {
    if (synonyms == nullptr) {
      return Status::InvalidArgument(
          "compat.synonym_snapshot set without compat.synonyms; a snapshot "
          "is a view of a dictionary, not a replacement for one");
    }
    if (synonym_snapshot->source_version() != synonyms->version()) {
      return Status::FailedPrecondition(
          "compat.synonym_snapshot is stale (dictionary version " +
          std::to_string(synonyms->version()) + ", snapshot version " +
          std::to_string(synonym_snapshot->source_version()) +
          "); re-take it with SynonymDictionary::Snapshot()");
    }
  }
  return Status::OK();
}

bool ValuesMatch(ValueId a, ValueId b, const StringPool& pool,
                 const CompatibilityOptions& opts) {
  if (a == b) return true;
  if (AreSynonymsVia(opts.synonym_snapshot, opts.synonyms, a, b)) return true;
  if (!opts.approximate_matching) return false;
  return ApproxMatch(pool.Get(a), pool.Get(b), opts.edit);
}

namespace {

/// A residue pair with its two pool strings, resolved once for the content
/// sort below.
struct KeyedPair {
  ValuePair pair;
  std::string_view left = {};
  std::string_view right = {};
};

/// Greedy one-to-one matching of a's pairs against b's pairs. Exact matches
/// are resolved with a sorted merge first; only the residue pays the
/// quadratic approximate pass (candidate tables are small). The matcher
/// caches each qa value's pattern bitmasks, so one left residue value is
/// scored against every b residue with a single mask build.
size_t CountPairOverlap(const BinaryTable& a, const BinaryTable& b,
                        BatchApproxMatcher& matcher, bool exact_only) {
  const auto& pa = a.pairs();
  const auto& pb = b.pairs();
  size_t exact = 0;
  // Reusable scratch: one allocation per thread, not three per scored pair.
  static thread_local std::vector<KeyedPair> rest_a, rest_b;
  rest_a.clear();
  rest_b.clear();
  size_t i = 0, j = 0;
  while (i < pa.size() && j < pb.size()) {
    if (pa[i] < pb[j]) {
      rest_a.push_back({pa[i++]});
    } else if (pb[j] < pa[i]) {
      rest_b.push_back({pb[j++]});
    } else {
      ++exact;
      ++i;
      ++j;
    }
  }
  for (; i < pa.size(); ++i) rest_a.push_back({pa[i]});
  for (; j < pb.size(); ++j) rest_b.push_back({pb[j]});

  if (exact_only) return exact;
  if (rest_a.empty() || rest_b.empty()) return exact;

  // The greedy matching below is order-sensitive when a residue value
  // could pair with several counterparts, and pair lists arrive sorted by
  // ValueId — i.e. by string-pool *interning order*, which is a corpus
  // construction history, not a property of the tables. Canonicalize to
  // value content so two corpora holding the same tables score
  // identically no matter how their pools were grown (the incremental
  // path's pool retains removed tables' values; a cold rebuild's does
  // not). The keys come from the matcher's value cache, resolved once per
  // element, not from StringPool::Get: every Get locks the pool, so calling
  // it per comparison serializes the scoring workers on that one mutex.
  // The pool stores each string once, so equal keys mean equal pairs and
  // the order is the same as sorting through the pool.
  const auto sort_by_content = [&matcher](std::vector<KeyedPair>& rest) {
    for (KeyedPair& k : rest) {
      k.left = matcher.Text(k.pair.left);
      k.right = matcher.Text(k.pair.right);
    }
    std::sort(rest.begin(), rest.end(),
              [](const KeyedPair& x, const KeyedPair& y) {
                return std::tie(x.left, x.right) < std::tie(y.left, y.right);
              });
  };
  sort_by_content(rest_a);
  sort_by_content(rest_b);

  // Approximate residue matching (greedy, each b-pair used once).
  static thread_local std::vector<bool> used;
  used.assign(rest_b.size(), false);
  size_t approx = 0;
  for (const auto& qa : rest_a) {
    for (size_t k = 0; k < rest_b.size(); ++k) {
      if (used[k]) continue;
      const ValuePair& qb = rest_b[k].pair;
      if (matcher.Match(qa.pair.left, qb.left) &&
          matcher.Match(qa.pair.right, qb.right)) {
        used[k] = true;
        ++approx;
        break;
      }
    }
  }
  return exact + approx;
}

/// One left-run of a sorted pair list: pairs [begin, end) share `left`.
struct LeftRun {
  ValueId left;
  uint32_t begin;
  uint32_t end;
};

void CollectLeftRuns(const std::vector<ValuePair>& pairs,
                     std::vector<LeftRun>* runs) {
  runs->clear();
  uint32_t i = 0;
  const uint32_t n = static_cast<uint32_t>(pairs.size());
  while (i < n) {
    uint32_t e = i;
    const ValueId l = pairs[i].left;
    while (e < n && pairs[e].left == l) ++e;
    runs->push_back({l, i, e});
    i = e;
  }
}

/// Counts conflicting left values: a's left matches some b's left but their
/// right values differ (and are not synonyms / approximate matches). The
/// predicate per a-run is purely existential over b's runs, so b's run list
/// is built once and each a-left is scored against every b-left with cached
/// pattern masks instead of re-walking b's pair list per run.
size_t CountConflicts(const BinaryTable& a, const BinaryTable& b,
                      BatchApproxMatcher& matcher) {
  const auto& pa = a.pairs();
  const auto& pb = b.pairs();
  // Reusable scratch: one allocation per thread, not two per scored pair.
  static thread_local std::vector<LeftRun> runs_a, runs_b;
  CollectLeftRuns(pa, &runs_a);
  CollectLeftRuns(pb, &runs_b);

  size_t conflicts = 0;
  for (const auto& ra : runs_a) {
    bool any_left_match = false;
    bool any_right_conflict = false;
    for (const auto& rb : runs_b) {
      if (!matcher.Match(ra.left, rb.left)) continue;
      any_left_match = true;
      // Conflict if some right of a's run fails to match some right of
      // b's run (paper: ∃ r != r').
      for (uint32_t x = ra.begin; x < ra.end && !any_right_conflict; ++x) {
        for (uint32_t y = rb.begin; y < rb.end; ++y) {
          if (!matcher.Match(pa[x].right, pb[y].right)) {
            any_right_conflict = true;
            break;
          }
        }
      }
      if (any_right_conflict) break;
    }
    if (any_left_match && any_right_conflict) ++conflicts;
  }
  return conflicts;
}

PairScores FinishScores(PairScores s, const BinaryTable& a,
                        const BinaryTable& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ov = static_cast<double>(s.overlap);
  const double cf = static_cast<double>(s.conflicts);
  s.w_pos = std::max(ov / na, ov / nb);
  s.w_neg = -std::max(cf / na, cf / nb);
  return s;
}

}  // namespace

PairScores ComputeCompatibility(const BinaryTable& a, const BinaryTable& b,
                                const StringPool& pool,
                                const CompatibilityOptions& opts) {
  BatchApproxMatcher matcher(pool, opts.edit, opts.approximate_matching,
                             opts.synonyms, opts.synonym_snapshot);
  return ComputeCompatibility(a, b, pool, opts, &matcher);
}

PairScores ComputeCompatibility(const BinaryTable& a, const BinaryTable& b,
                                const StringPool& pool,
                                const CompatibilityOptions& opts,
                                BatchApproxMatcher* matcher,
                                const BlockingHint* hint,
                                ScoringStats* stats) {
  // Ids resolve against the matcher's pool; a mismatched pool would yield
  // plausible but wrong scores with nothing else flagging it.
  assert(&matcher->pool() == &pool);
  (void)pool;
  PairScores s;
  if (hint) {
    s.shared_pairs = hint->shared_pairs;
    s.shared_lefts = hint->shared_lefts;
  }
  if (a.empty() || b.empty()) return s;

  const bool exact_only = !opts.approximate_matching && !opts.synonyms;

  // Overlap. Under exact-only matching, |B ∩ B'| is precisely blocking's
  // shared-pair co-occurrence count, so an exact hint replaces the merge.
  if (exact_only && hint && hint->exact) {
    s.overlap = hint->shared_pairs;
    if (stats) ++stats->overlap_merges_skipped;
  } else {
    s.overlap = CountPairOverlap(a, b, *matcher, exact_only);
  }

  // Conflicts always need the left-run scan: blocking's left counts cannot
  // prove the conflict set empty for any pair that survived blocking (an
  // untruncated shared value pair implies a shared left, so every exact-
  // hinted survivor has shared_lefts >= 1).
  s.conflicts = CountConflicts(a, b, *matcher);
  return FinishScores(s, a, b);
}

// --------------------------------------------------------------- reference
// The seed implementation, verbatim modulo naming: per-call value matching
// through the scalar banded DP, no mask caching, no blocking-count reuse.
// tests/compatibility_test.cc and bench_pr2 hold the fast path to
// byte-identical agreement with this.

namespace {

/// The seed value predicate: exact, synonym, then the banded DP under the
/// fractional threshold.
bool ReferenceValuesMatch(ValueId a, ValueId b, const StringPool& pool,
                          const CompatibilityOptions& opts) {
  if (a == b) return true;
  if (AreSynonymsVia(opts.synonym_snapshot, opts.synonyms, a, b)) return true;
  if (!opts.approximate_matching) return false;
  const std::string_view sa = pool.Get(a);
  const std::string_view sb = pool.Get(b);
  if (sa == sb) return true;
  const size_t band = FractionalThreshold(sa, sb, opts.edit);
  if (band == 0) return false;
  return EditDistanceBanded(sa, sb, band) <= band;
}

size_t ReferenceCountPairOverlap(const BinaryTable& a, const BinaryTable& b,
                                 const StringPool& pool,
                                 const CompatibilityOptions& opts) {
  const auto& pa = a.pairs();
  const auto& pb = b.pairs();
  size_t exact = 0;
  std::vector<ValuePair> rest_a, rest_b;
  size_t i = 0, j = 0;
  while (i < pa.size() && j < pb.size()) {
    if (pa[i] < pb[j]) {
      rest_a.push_back(pa[i++]);
    } else if (pb[j] < pa[i]) {
      rest_b.push_back(pb[j++]);
    } else {
      ++exact;
      ++i;
      ++j;
    }
  }
  for (; i < pa.size(); ++i) rest_a.push_back(pa[i]);
  for (; j < pb.size(); ++j) rest_b.push_back(pb[j]);

  if (!opts.approximate_matching && !opts.synonyms) return exact;
  if (rest_a.empty() || rest_b.empty()) return exact;

  // Mirror the fast path: canonicalize residue order by value content so
  // the greedy matching is independent of pool interning history.
  const auto by_content = [&](const ValuePair& x, const ValuePair& y) {
    return std::make_pair(pool.Get(x.left), pool.Get(x.right)) <
           std::make_pair(pool.Get(y.left), pool.Get(y.right));
  };
  std::sort(rest_a.begin(), rest_a.end(), by_content);
  std::sort(rest_b.begin(), rest_b.end(), by_content);

  std::vector<bool> used(rest_b.size(), false);
  size_t approx = 0;
  for (const auto& qa : rest_a) {
    for (size_t k = 0; k < rest_b.size(); ++k) {
      if (used[k]) continue;
      const auto& qb = rest_b[k];
      if (ReferenceValuesMatch(qa.left, qb.left, pool, opts) &&
          ReferenceValuesMatch(qa.right, qb.right, pool, opts)) {
        used[k] = true;
        ++approx;
        break;
      }
    }
  }
  return exact + approx;
}

size_t ReferenceCountConflicts(const BinaryTable& a, const BinaryTable& b,
                               const StringPool& pool,
                               const CompatibilityOptions& opts) {
  const auto& pa = a.pairs();
  const auto& pb = b.pairs();
  size_t conflicts = 0;

  size_t i = 0;
  while (i < pa.size()) {
    size_t ie = i;
    const ValueId la = pa[i].left;
    while (ie < pa.size() && pa[ie].left == la) ++ie;

    bool any_left_match = false;
    bool any_right_conflict = false;
    size_t j = 0;
    while (j < pb.size()) {
      size_t je = j;
      const ValueId lb = pb[j].left;
      while (je < pb.size() && pb[je].left == lb) ++je;
      if (ReferenceValuesMatch(la, lb, pool, opts)) {
        any_left_match = true;
        for (size_t x = i; x < ie && !any_right_conflict; ++x) {
          for (size_t y = j; y < je; ++y) {
            if (!ReferenceValuesMatch(pa[x].right, pb[y].right, pool, opts)) {
              any_right_conflict = true;
              break;
            }
          }
        }
      }
      if (any_right_conflict) break;
      j = je;
    }
    if (any_left_match && any_right_conflict) ++conflicts;
    i = ie;
  }
  return conflicts;
}

}  // namespace

PairScores ComputeCompatibilityReference(const BinaryTable& a,
                                         const BinaryTable& b,
                                         const StringPool& pool,
                                         const CompatibilityOptions& opts) {
  PairScores s;
  if (a.empty() || b.empty()) return s;
  s.overlap = ReferenceCountPairOverlap(a, b, pool, opts);
  s.conflicts = ReferenceCountConflicts(a, b, pool, opts);
  return FinishScores(s, a, b);
}

}  // namespace ms
