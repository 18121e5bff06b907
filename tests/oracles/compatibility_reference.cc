#include "oracles/compatibility_reference.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "oracles/edit_distance_reference.h"
#include "text/synonyms.h"

namespace ms {

namespace {

/// The seed value predicate: exact, synonym (the dictionary's locked
/// union-find walk, not the view the engine reads), then the banded DP under
/// the fractional threshold.
bool ReferenceValuesMatch(ValueId a, ValueId b, const StringPool& pool,
                          const CompatibilityOptions& opts) {
  if (a == b) return true;
  if (opts.synonyms != nullptr && opts.synonyms->AreSynonyms(a, b)) {
    return true;
  }
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
  // Eq. 3 and Eq. 4: max-containment of the overlap and of the conflicts.
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ov = static_cast<double>(s.overlap);
  const double cf = static_cast<double>(s.conflicts);
  s.w_pos = std::max(ov / na, ov / nb);
  s.w_neg = -std::max(cf / na, cf / nb);
  return s;
}

}  // namespace ms
