// Step 3: conflict resolution inside a synthesized partition (Problem 17,
// Algorithm 4). A partition's tables may disagree on some left value (same
// left, different rights — extraction errors or dirty sources like the
// chemical-symbol example in Figure 4). Since Problem 17 (max value pairs,
// no conflicting table pair kept) is NP-hard, Algorithm 4 greedily removes
// the table containing the value pair that conflicts with the most other
// value pairs, until the partition is conflict-free.
//
// A majority-voting alternative is provided for the Section 5.6 comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "synth/compatibility.h"
#include "table/binary_table.h"

namespace ms {

struct ConflictResolutionOptions {
  /// Rights that are synonyms are not conflicts (Section 4.2). Each
  /// ResolveConflicts / IsConflictFree call reads one View() of it.
  const SynonymDictionary* synonyms = nullptr;
};

/// Result of resolving one partition.
struct ConflictResolutionResult {
  /// Indices (into the input vector) of tables kept; conflict-free.
  std::vector<size_t> kept;
  size_t tables_removed = 0;
  size_t iterations = 0;
};

/// Algorithm 4 over the partition's tables.
ConflictResolutionResult ResolveConflicts(
    const std::vector<const BinaryTable*>& tables,
    const ConflictResolutionOptions& options = {});

/// True when no pair of tables in `tables` (restricted to `kept` indices)
/// has a non-empty conflict set — the invariant Algorithm 4 guarantees.
bool IsConflictFree(const std::vector<const BinaryTable*>& tables,
                    const std::vector<size_t>& kept,
                    const ConflictResolutionOptions& options = {});

/// Majority-voting alternative: per left value keep the right value backed
/// by the most tables (ties broken by smaller ValueId). Returns the cleaned
/// set of pairs directly rather than a table subset.
std::vector<ValuePair> MajorityVotePairs(
    const std::vector<const BinaryTable*>& tables,
    const ConflictResolutionOptions& options = {});

}  // namespace ms
