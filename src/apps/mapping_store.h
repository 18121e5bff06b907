// Curated mapping store: the materialized, indexed form of synthesized
// mappings that applications consume (paper introduction: "one could index
// synthesized mapping tables using hash-based techniques (e.g., bloom
// filters) for efficient lookup based on value containment. Such logic is
// both simple to implement and easy to scale.").
//
// One id-native layout answers every query:
//   - A store-wide value table owns one copy of each distinct value any
//     entry holds, with its hash. Add fills it by ValueId through
//     StringPool::Get alone (never Find, so a restored pool's lazy string
//     index stays unbuilt), via a build-time dense ValueId -> slot array:
//     each pair side costs one array read, and each distinct value is
//     copied and hashed once.
//   - Per entry and per direction, an array of (key hash, key slot, partner
//     slot) records sorted by hash, one per distinct key; a key with several
//     partners keeps the one whose string is smallest. It alone answers
//     Probe, LookupRight, LookupLeft and their batches: a probe hashes its
//     normalized value, binary-searches the entry's own array, and reads a
//     key's bytes only to confirm a hash match.
//   - One flat list of value -> (entry, side bits) postings, reached from
//     the value table's hash index, is the only FindByContainment path.
//
// All lookups normalize their inputs with the same rules the synthesis
// pipeline used, so raw user values ("CA ", "California[1]") hit.
//
// Thread contract: a store is built single-threaded (Add) and immutable
// afterwards — every const method is safe to call from any number of
// threads concurrently provided no Add runs. MappingService enforces this
// by only ever publishing fully-built stores inside an immutable
// ServingSnapshot (apps/serving.h). A BatchScratch belongs to one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "synth/mapping.h"
#include "table/string_pool.h"
#include "text/normalize.h"

namespace ms {

/// One mapping direction resolved for a probe value.
enum class ValueSide { kNone = 0, kLeft, kRight, kBoth };

class MappingStore {
 public:
  explicit MappingStore(std::shared_ptr<StringPool> pool,
                        NormalizeOptions normalize = {});

  /// Registers a curated mapping under a human-readable name. Returns its
  /// index. Not thread-safe against any concurrent method — build first,
  /// serve after.
  size_t Add(SynthesizedMapping mapping, std::string name);

  size_t size() const { return entries_.size(); }
  const SynthesizedMapping& mapping(size_t i) const {
    return entries_[i].mapping;
  }
  const std::string& name(size_t i) const { return entries_[i].name; }

  /// Which side(s) of mapping `i` contain the (raw) value.
  ValueSide Probe(size_t i, const std::string& raw_value) const;

  /// Batched Probe over a request vector: normalizes once per input and
  /// probes once per *distinct* normalized value (serving columns are full
  /// of repeats). Element k of the result is exactly
  /// Probe(i, raw_values[k]).
  std::vector<ValueSide> ProbeBatch(
      size_t i, const std::vector<std::string>& raw_values) const;

  /// Containment search: mappings ranked by how many of `values` they
  /// contain on either side, each input occurrence counting once per side
  /// it hits (total hits descending, ties by ascending mapping index). Only
  /// mappings with >= min_hits matches return, so min_hits == 0 returns
  /// every mapping.
  struct ContainmentMatch {
    size_t index = 0;
    size_t left_hits = 0;
    size_t right_hits = 0;
    size_t total() const { return left_hits + right_hits; }
  };
  std::vector<ContainmentMatch> FindByContainment(
      const std::vector<std::string>& values, size_t min_hits = 2) const;

  /// Functional lookup left -> right within mapping `i` (normalized). A
  /// left value paired with several rights answers the right whose
  /// normalized string is smallest (bytewise), so the answer depends only
  /// on the mapping's contents, never on the order the pool interned its
  /// values in.
  std::optional<std::string> LookupRight(size_t i,
                                         const std::string& raw_left) const;

  /// Reverse lookup right -> left, with the same rule: of the lefts paired
  /// with the value, the one whose normalized string is smallest.
  std::optional<std::string> LookupLeft(size_t i,
                                        const std::string& raw_right) const;

  /// Reusable normalize/dedup working set for the batched calls. A caller
  /// serving many batches (one network connection, a bench loop) keeps one
  /// alive and hands it to every call, so its vectors reuse their grown
  /// capacity instead of re-allocating per request. Contents are
  /// call-scoped scratch — never read them between calls. Not shareable
  /// across threads.
  struct BatchScratch {
    std::vector<std::string> distinct;  ///< distinct normalized values
    std::vector<uint64_t> hashes;       ///< hash of each distinct value
    std::vector<uint32_t> slot_of;      ///< per input: its distinct index
    std::vector<uint32_t> cells;        ///< dedup hash table (index + 1)
    std::vector<uint32_t> partner;      ///< per distinct: answer's slot
  };

  /// Batched LookupRight/LookupLeft with the same amortization as
  /// ProbeBatch. Element k is exactly the scalar lookup of raw value k.
  /// Without a scratch the call uses a temporary one; pass the same scratch
  /// across calls to skip the per-request allocations.
  std::vector<std::optional<std::string>> LookupRightBatch(
      size_t i, const std::vector<std::string>& raw_lefts,
      BatchScratch* scratch = nullptr) const;
  std::vector<std::optional<std::string>> LookupLeftBatch(
      size_t i, const std::vector<std::string>& raw_rights,
      BatchScratch* scratch = nullptr) const;

 private:
  /// One distinct key of an entry in one direction, with its answer.
  struct Key {
    uint64_t hash = 0;     ///< hash of the key's bytes
    uint32_t key = 0;      ///< value-table slot of the key
    uint32_t partner = 0;  ///< value-table slot of the answer
  };
  using Keys = std::vector<Key>;

  struct Entry {
    std::string name;
    SynthesizedMapping mapping;
    Keys by_left;   ///< left -> right, sorted by hash
    Keys by_right;  ///< right -> left, sorted by hash
  };

  /// A value's membership in one entry; a value's postings chain from its
  /// newest entry back to its oldest.
  struct Posting {
    uint32_t entry = 0;
    uint32_t next = 0;  ///< older posting of the value, or UINT32_MAX
    uint8_t sides = 0;  ///< bit 0 = left, bit 1 = right
  };

  std::string Norm(const std::string& raw) const {
    return NormalizeCell(raw, normalize_);
  }
  std::string_view Text(uint32_t slot) const {
    return std::string_view(bytes_.data() + offsets_[slot],
                            offsets_[slot + 1] - offsets_[slot]);
  }
  /// The value table's slot for a pool id, adding the value on first sight.
  uint32_t SlotFor(ValueId id);
  /// Sorts one direction's records by hash and keeps one per key, then
  /// posts each key under `side` for entry `entry`.
  void IndexKeys(uint32_t entry, uint8_t side, Keys* keys);
  /// The record for normalized value `v` (hash `h`), or nullptr.
  const Key* FindKey(const Keys& keys, std::string_view v, uint64_t h) const;
  /// Which sides of entry `e` hold normalized value `v` (hash `h`).
  ValueSide SideOf(const Entry& e, std::string_view v, uint64_t h) const;
  /// The value-table slot holding `v` (hash `h`), or UINT32_MAX.
  uint32_t FindSlot(std::string_view v, uint64_t h) const;
  /// Shared batch plumbing: fills scratch->distinct/hashes with one element
  /// per distinct normalized value and scratch->slot_of with each input's
  /// distinct index.
  void DedupNormalized(const std::vector<std::string>& raw_values,
                       BatchScratch* scratch) const;
  std::vector<std::optional<std::string>> LookupBatch(
      Keys Entry::*direction, size_t i,
      const std::vector<std::string>& raw_values, BatchScratch* scratch) const;

  std::shared_ptr<StringPool> pool_;
  NormalizeOptions normalize_;
  std::vector<Entry> entries_;

  // The store-wide value table, indexed by slot.
  std::string bytes_;                ///< every value's bytes, back to back
  std::vector<size_t> offsets_{0};   ///< slot -> start; one end mark more
  std::vector<uint64_t> hashes_;     ///< slot -> hash of its bytes
  std::vector<uint32_t> head_;       ///< slot -> newest posting or UINT32_MAX
  std::vector<uint32_t> cells_;      ///< hash index over slots (slot + 1)
  std::vector<Posting> postings_;
  /// Build-time ValueId -> slot + 1 (0 = not in the store yet).
  std::vector<uint32_t> slot_of_id_;
};

}  // namespace ms
