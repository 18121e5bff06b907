// Thread-safe cache of raw ValueId -> normalized ValueId used by candidate
// extraction. The seed implementation guarded one global map with one mutex
// and released it while normalizing, which (a) serialized every extraction
// worker on a single lock and (b) let two threads that both missed the same
// raw value normalize and intern it twice (the "double-normalize race" —
// harmless for correctness because interning is idempotent, but wasted work
// and a lock convoy at scale). This version stripes the cache across
// independently locked shards and holds the owning shard's lock across
// normalize+intern, so each raw value is normalized exactly once and
// workers only contend when they touch the same shard.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hashing.h"
#include "table/string_pool.h"
#include "text/normalize.h"

namespace ms {

class ShardedNormalizationCache {
 public:
  /// `num_shards` is rounded up to a power of two. 16 shards keeps the
  /// collision probability for typical worker counts (<= 16) low without
  /// bloating the footprint.
  ShardedNormalizationCache(StringPool* pool, const NormalizeOptions& opts,
                            size_t num_shards = 16);

  /// Returns the normalized id for `raw` (kInvalidValueId when the value
  /// normalizes to the empty string). Each distinct raw id is normalized
  /// exactly once across all threads.
  ValueId Normalized(ValueId raw);

  /// Normalizes a whole column at once: `out` is resized to `raw.size()`
  /// with out[i] = Normalized(raw[i]). Misses are grouped per shard and
  /// interned into the StringPool in one batch per shard, so a column costs
  /// O(#shards touched) lock acquisitions instead of O(#cells).
  void NormalizeBatch(const std::vector<ValueId>& raw,
                      std::vector<ValueId>* out);

  /// Number of NormalizeCell invocations == distinct raw values that missed.
  /// The double-normalize regression test asserts this equals the number of
  /// distinct raw values, regardless of thread count.
  size_t normalize_calls() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Cell lookups resolved without normalizing (cache hits plus intra-batch
  /// duplicates collapsed before the cache was consulted).
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<ValueId, ValueId> map;
  };

  size_t ShardFor(ValueId raw) const {
    return static_cast<size_t>(Mix64(raw)) & shard_mask_;
  }

  /// Normalizes + interns `raw` into `shard`, which must be locked by the
  /// caller and be the owning shard of `raw`.
  ValueId MissLocked(Shard& shard, ValueId raw);

  StringPool* pool_;
  NormalizeOptions opts_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace ms
