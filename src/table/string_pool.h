// Global string interning. Every distinct cell value in a corpus is stored
// once and referenced by a dense 32-bit ValueId everywhere else (tables,
// binary relations, inverted indexes, graphs). This keeps the quadratic
// compatibility computations id-based and cache-friendly.
//
// Two storage modes coexist in one pool:
//   - Intern()'d strings are copied into pool-owned storage (deque: stored
//     bytes never move), exactly as before.
//   - AdoptExternal() appends string_views over caller-owned memory without
//     copying — the zero-copy path the persistence layer uses to rebuild a
//     pool over an mmap'd snapshot/corpus-store region. The backing mapping
//     is pinned for the pool's lifetime with RetainBacking(), so views can
//     never outlive their bytes no matter where the pool handle travels.
//
// The string -> id hash over adopted views is built lazily: AdoptExternal()
// only appends the views, and the index over them is materialized on the
// first operation that needs it (Intern / InternBatch / Find). Serving
// paths that only resolve ids (Get) — a MappingStore answering lookups from
// a restored snapshot — never pay the hash build, which dominates the
// corpus-store open time. Laziness is invisible to callers: results are
// identical either way.
//
// MarkReadOnly() freezes the pool for serving-only deployments: lookups
// keep working, but interning an unseen string returns kInvalidValueId
// instead of mutating the pool.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ms {

using ValueId = uint32_t;

/// Sentinel for "no value".
inline constexpr ValueId kInvalidValueId = UINT32_MAX;

/// Append-only interning pool. Intern() is thread-safe; Get() is safe to
/// call concurrently with Intern() because stored bytes never move (deque
/// storage for owned strings, caller-pinned memory for adopted ones) and
/// ids are handed out only after the string is in place. Every Get() still
/// locks `mu_` (the id -> view table may reallocate), so calling it per
/// element inside a parallel loop serializes the workers on that mutex.
/// Hot loops read strings through a cache of the returned views instead,
/// as BatchApproxMatcher::Text does: a view stays valid as long as its id
/// (until the pool dies or TruncateTo drops the id).
class StringPool {
 public:
  StringPool() = default;
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id for `s`, inserting it on first sight. On a read-only
  /// pool, unseen strings return kInvalidValueId instead of inserting.
  ValueId Intern(std::string_view s);

  /// Interns every string in `strs` under a single lock acquisition and
  /// appends the resulting ids to `ids` (same order). Batching matters on
  /// the extraction hot path: per-cell Intern() calls serialize every
  /// worker on this pool's mutex.
  void InternBatch(const std::vector<std::string>& strs,
                   std::vector<ValueId>* ids);

  /// Zero-copy bulk adoption: appends `views` verbatim as ids
  /// size()..size()+n-1 WITHOUT copying the bytes. The caller guarantees
  /// the backing memory outlives the pool — pin an mmap with
  /// RetainBacking(). The string -> id index over adopted views is built
  /// lazily on the first Find()/Intern(); id-based lookups (Get) never
  /// trigger it. Ignored on a read-only pool.
  void AdoptExternal(const std::vector<std::string_view>& views);

  /// Pins `backing` (e.g. a persist::MmapFile) until the pool is destroyed,
  /// making AdoptExternal()'d views safe wherever the pool handle is shared.
  void RetainBacking(std::shared_ptr<const void> backing);

  /// Freezes the pool: Find()/Get() keep working, Intern() of an already
  /// interned string still returns its id, but unseen strings return
  /// kInvalidValueId instead of inserting. Irreversible; used by
  /// serving-only deployments restored from snapshots.
  void MarkReadOnly();
  bool read_only() const;

  /// Removes every id >= `new_size`, releasing owned storage and index
  /// entries for the dropped tail. The unintern half of the append-rollback
  /// protocol: a failed corpus append truncates the pool back to its
  /// pre-append size so the strings the dead delta interned are neither
  /// Find-able nor held in memory. Only owned (Intern'd) strings may be in
  /// the dropped tail — adopted views are only ever created by restore
  /// paths that precede any append. No-op when new_size >= size().
  void TruncateTo(size_t new_size);

  /// How many TruncateTo calls have dropped ids. A dropped id can be handed
  /// out again for a different string, so anything cached per id (views,
  /// lengths, masks) is valid only while this count is unchanged.
  uint64_t truncations() const;

  /// Returns the id for `s` or kInvalidValueId if never interned. Builds
  /// the deferred index over adopted views if necessary.
  ValueId Find(std::string_view s) const;

  /// The interned string for a valid id.
  std::string_view Get(ValueId id) const;

  size_t size() const;

  /// Observability for the lazy index: how many strings are currently
  /// covered by the string -> id hash. Stays 0 after AdoptExternal() until
  /// a Find()/Intern() forces the build; tests and bench_micro use this to
  /// prove serving-only paths never pay it.
  size_t indexed_strings() const;

 private:
  /// Indexes views_[indexed_..views_.size()) into index_. Caller holds mu_.
  void EnsureIndexLocked() const;

  mutable std::mutex mu_;
  /// id -> bytes; views point into `owned_` or into retained backings.
  std::vector<std::string_view> views_;
  std::deque<std::string> owned_;
  /// Lazily covers views_[0..indexed_); adopted views are indexed on the
  /// first string -> id operation, never on adoption.
  mutable std::unordered_map<std::string_view, ValueId> index_;
  mutable size_t indexed_ = 0;
  std::vector<std::shared_ptr<const void>> backings_;
  bool read_only_ = false;
  uint64_t truncations_ = 0;
};

}  // namespace ms
