// Synonym dictionary (paper Section 4.1 "Synonyms" + Section 4.2 conflict
// definition). When an external feed declares two strings synonymous, they
// (a) count as a positive match when computing w+, and (b) are *not*
// treated as conflicting right-hand sides when computing w- / F(B,B').
//
// The dictionary is a mutable union-find guarded by a mutex (AddSynonym can
// race with lookups, and even const lookups path-compress). Every matching
// path reads its `View()` instead: one immutable, fully flattened
// value -> class-root map, rebuilt under the mutex only when the version
// moved and shared by every reader. Lookups are lock-free flat-hash probes,
// and a view records the dictionary version it reflects.
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
/// All methods are thread-safe (one mutex). Matching reads View(); the
/// locked AreSynonyms is the reference tests compare the view against.
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

  /// Monotonic mutation counter: bumped by every AddSynonym that changes
  /// the dictionary. A graph scored under the feed records it
  /// (ScoredGraph::synonym_version) so its holder can tell it is stale.
  uint64_t version() const;

  /// The immutable flattened view of the current state, with
  /// source_version() == version() as of the call. Views are shared: the
  /// dictionary rebuilds one only after AddSynonym moved the version, and
  /// a held view never changes.
  std::shared_ptr<const SynonymSnapshot> View() const;

 private:
  ValueId FindLocked(ValueId v) const;

  std::shared_ptr<StringPool> pool_;
  mutable std::mutex mu_;
  // Parent pointers; values absent from the map are their own class.
  mutable std::unordered_map<ValueId, ValueId> parent_;
  uint64_t version_ = 0;
  mutable std::shared_ptr<const SynonymSnapshot> view_;  ///< null until read
};

}  // namespace ms
