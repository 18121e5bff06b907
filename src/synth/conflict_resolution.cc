#include "synth/conflict_resolution.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

namespace ms {
namespace {

/// The synonym view one call reads; null without a feed.
std::shared_ptr<const SynonymSnapshot> ViewOf(
    const ConflictResolutionOptions& options) {
  return options.synonyms != nullptr ? options.synonyms->View() : nullptr;
}

bool RightsConflict(ValueId r1, ValueId r2, const SynonymSnapshot* synonyms) {
  if (r1 == r2) return false;
  return synonyms == nullptr || !synonyms->AreSynonyms(r1, r2);
}

/// Grouping of every (table, pair) instance by left value.
struct LeftGroup {
  // (table index, right value); one entry per kept table containing left.
  std::vector<std::pair<size_t, ValueId>> rights;
};

}  // namespace

ConflictResolutionResult ResolveConflicts(
    const std::vector<const BinaryTable*>& tables,
    const ConflictResolutionOptions& options) {
  ConflictResolutionResult result;
  const auto synonyms = ViewOf(options);
  const size_t n = tables.size();
  std::vector<bool> removed(n, false);

  for (;;) {
    ++result.iterations;
    // Rebuild left-value groups over the surviving tables (partitions are
    // small; the paper maintains incremental heaps, we favor clarity).
    std::unordered_map<ValueId, LeftGroup> groups;
    for (size_t t = 0; t < n; ++t) {
      if (removed[t]) continue;
      for (const auto& p : tables[t]->pairs()) {
        groups[p.left].rights.push_back({t, p.right});
      }
    }

    // cntV((l,r)) = number of value-pair instances conflicting with (l,r);
    // cntB(t) = max over t's pairs. (Algorithm 4 lines 3-7.)
    std::vector<size_t> cnt_b(n, 0);
    bool any_conflict = false;
    for (auto& [left, group] : groups) {
      auto& rs = group.rights;
      if (rs.size() < 2) continue;
      for (size_t i = 0; i < rs.size(); ++i) {
        size_t conflicts = 0;
        for (size_t j = 0; j < rs.size(); ++j) {
          if (i == j) continue;
          if (RightsConflict(rs[i].second, rs[j].second, synonyms.get())) {
            ++conflicts;
          }
        }
        if (conflicts > 0) {
          any_conflict = true;
          cnt_b[rs[i].first] = std::max(cnt_b[rs[i].first], conflicts);
        }
      }
    }
    if (!any_conflict) break;

    // Remove the table with the most-conflicting value pair (line 8-9).
    size_t worst = 0;
    size_t worst_cnt = 0;
    for (size_t t = 0; t < n; ++t) {
      if (removed[t]) continue;
      if (cnt_b[t] > worst_cnt ||
          (cnt_b[t] == worst_cnt && worst_cnt > 0 &&
           tables[t]->size() < tables[worst]->size())) {
        worst = t;
        worst_cnt = cnt_b[t];
      }
    }
    removed[worst] = true;
    ++result.tables_removed;
  }

  for (size_t t = 0; t < n; ++t) {
    if (!removed[t]) result.kept.push_back(t);
  }
  return result;
}

bool IsConflictFree(const std::vector<const BinaryTable*>& tables,
                    const std::vector<size_t>& kept,
                    const ConflictResolutionOptions& options) {
  const auto synonyms = ViewOf(options);
  std::unordered_map<ValueId, std::vector<ValueId>> rights_by_left;
  for (size_t t : kept) {
    for (const auto& p : tables[t]->pairs()) {
      rights_by_left[p.left].push_back(p.right);
    }
  }
  for (const auto& [left, rights] : rights_by_left) {
    for (size_t i = 0; i < rights.size(); ++i) {
      for (size_t j = i + 1; j < rights.size(); ++j) {
        if (RightsConflict(rights[i], rights[j], synonyms.get())) return false;
      }
    }
  }
  return true;
}

std::vector<ValuePair> MajorityVotePairs(
    const std::vector<const BinaryTable*>& tables,
    const ConflictResolutionOptions& options) {
  (void)options;
  // support[left][right] = number of tables containing (left, right).
  std::unordered_map<ValueId, std::map<ValueId, size_t>> support;
  for (const auto* t : tables) {
    for (const auto& p : t->pairs()) {
      support[p.left][p.right] += 1;
    }
  }
  std::vector<ValuePair> out;
  out.reserve(support.size());
  for (const auto& [left, rights] : support) {
    ValueId best = kInvalidValueId;
    size_t best_count = 0;
    for (const auto& [right, count] : rights) {
      if (count > best_count) {  // std::map order => smallest id wins ties
        best = right;
        best_count = count;
      }
    }
    out.push_back({left, best});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ms
