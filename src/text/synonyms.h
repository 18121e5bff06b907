// Synonym dictionary (paper Section 4.1 "Synonyms" + Section 4.2 conflict
// definition). When an external feed declares two strings synonymous, they
// (a) count as a positive match when computing w+, and (b) are *not*
// treated as conflicting right-hand sides when computing w- / F(B,B').
//
// The dictionary is a mutable union-find guarded by a mutex (AddSynonym can
// race with lookups, and even const lookups path-compress). That makes
// every AreSynonyms call on the pair-scoring hot path a lock + hash probe.
// `SynonymSnapshot` is the scoring-time answer: an immutable, fully
// flattened value -> class-id view taken once per scoring run. Lookups are
// two lock-free flat-hash probes and the snapshot records the dictionary
// version it was taken at, so long-lived sessions know when to refresh.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "table/string_pool.h"

namespace ms {

class SynonymDictionary;

/// Immutable flattened view of a SynonymDictionary: every value that has a
/// synonym maps to its class root; values absent from the map are their own
/// class. Safe to share across threads without locking; results are
/// identical to the dictionary's as of the version it was taken at.
class SynonymSnapshot {
 public:
  /// Empty snapshot: AreSynonyms(a, b) == (a == b).
  SynonymSnapshot() = default;

  /// True if the two values were known synonyms (or are equal).
  bool AreSynonyms(ValueId a, ValueId b) const {
    if (a == b) return true;
    const ValueId ra = ClassOf(a);
    if (ra == kInvalidValueId) return false;  // a is its own class, b != a
    return ra == ClassOf(b);
  }

  /// The class root of `v`, or kInvalidValueId when v has no synonym. Two
  /// distinct values are synonyms iff their roots are equal and valid.
  ValueId ClassOf(ValueId v) const {
    const ValueId* r = class_of_.Find(static_cast<uint64_t>(v) + 1);
    return r == nullptr ? kInvalidValueId : *r;
  }

  /// Number of values with at least one synonym.
  size_t size() const { return class_of_.size(); }

  /// Dictionary version this snapshot reflects (0 for the empty snapshot).
  uint64_t source_version() const { return source_version_; }

 private:
  friend class SynonymDictionary;

  FlatMap64<ValueId> class_of_;  ///< (value id + 1) -> class root
  uint64_t source_version_ = 0;
};

/// Union-find over interned values: synonymous values share a class id.
/// All methods are thread-safe (one mutex); hot paths should go through a
/// SynonymSnapshot instead.
class SynonymDictionary {
 public:
  explicit SynonymDictionary(std::shared_ptr<StringPool> pool)
      : pool_(std::move(pool)) {}

  /// Declares a and b synonyms (strings are interned if new).
  void AddSynonym(std::string_view a, std::string_view b);

  /// True if the two values are known synonyms (or equal).
  bool AreSynonyms(ValueId a, ValueId b) const;
  bool AreSynonyms(std::string_view a, std::string_view b) const;

  /// Canonical class representative for a value (itself if no synonyms).
  ValueId ClassOf(ValueId v) const;

  /// All members of v's synonym class, including v.
  std::vector<ValueId> ClassMembers(ValueId v) const;

  size_t num_classes_with_synonyms() const;

  /// Monotonic mutation counter: bumped by every AddSynonym that changes
  /// the dictionary. Snapshot holders compare against it to decide whether
  /// their snapshot is stale.
  uint64_t version() const;

  /// Takes an immutable flattened view of the current state.
  SynonymSnapshot Snapshot() const;

 private:
  ValueId FindLocked(ValueId v) const;

  std::shared_ptr<StringPool> pool_;
  mutable std::mutex mu_;
  // Parent pointers; values absent from the map are their own class.
  mutable std::unordered_map<ValueId, ValueId> parent_;
  uint64_t version_ = 0;
};

/// The synonym check every matching path shares: the snapshot (lock-free)
/// when one is wired in, otherwise the dictionary, otherwise no synonyms.
/// Centralized so precedence can never diverge between scoring, conflict
/// resolution, and the batch matcher.
inline bool AreSynonymsVia(const SynonymSnapshot* snapshot,
                           const SynonymDictionary* dict, ValueId a,
                           ValueId b) {
  if (snapshot != nullptr) return snapshot->AreSynonyms(a, b);
  return dict != nullptr && dict->AreSynonyms(a, b);
}

}  // namespace ms
