#include "extract/normalization_cache.h"

#include <algorithm>

namespace ms {

ShardedNormalizationCache::ShardedNormalizationCache(
    StringPool* pool, const NormalizeOptions& opts, size_t num_shards)
    : pool_(pool), opts_(opts) {
  size_t n = 1;
  while (n < num_shards) n <<= 1;
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

ValueId ShardedNormalizationCache::MissLocked(Shard& shard, ValueId raw) {
  // Normalizing under the shard lock is deliberate: it closes the window in
  // which a second thread could also miss and normalize the same raw value.
  // Other shards stay fully concurrent.
  std::string norm = NormalizeCell(pool_->Get(raw), opts_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  ValueId id = norm.empty() ? kInvalidValueId : pool_->Intern(norm);
  shard.map.emplace(raw, id);
  return id;
}

ValueId ShardedNormalizationCache::Normalized(ValueId raw) {
  Shard& shard = *shards_[ShardFor(raw)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(raw);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  return MissLocked(shard, raw);
}

void ShardedNormalizationCache::NormalizeBatch(const std::vector<ValueId>& raw,
                                               std::vector<ValueId>* out) {
  out->assign(raw.size(), kInvalidValueId);
  if (raw.empty()) return;

  // Columns repeat values heavily; resolve each distinct raw id once and
  // fan the results back out with a binary search at the end.
  std::vector<ValueId> distinct(raw);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<ValueId> norm(distinct.size(), kInvalidValueId);

  std::vector<std::vector<size_t>> buckets(shards_.size());
  for (size_t di = 0; di < distinct.size(); ++di) {
    buckets[ShardFor(distinct[di])].push_back(di);
  }

  // Duplicates collapsed by the distinct step never touch the cache, but
  // they are still lookups served without normalizing — count them as hits
  // so hit/miss totals stay comparable with the per-cell path.
  size_t local_hits = raw.size() - distinct.size();
  size_t local_misses = 0;
  std::vector<size_t> miss_idx;
  std::vector<std::string> miss_strs;
  std::vector<ValueId> miss_ids;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    miss_idx.clear();
    miss_strs.clear();
    for (size_t di : buckets[s]) {
      auto it = shard.map.find(distinct[di]);
      if (it != shard.map.end()) {
        norm[di] = it->second;
        ++local_hits;
        continue;
      }
      ++local_misses;
      std::string ns = NormalizeCell(pool_->Get(distinct[di]), opts_);
      if (ns.empty()) {
        shard.map.emplace(distinct[di], kInvalidValueId);
      } else {
        miss_idx.push_back(di);
        miss_strs.push_back(std::move(ns));
      }
    }
    if (!miss_strs.empty()) {
      // One pool lock for the whole shard's misses instead of one per cell.
      miss_ids.clear();
      pool_->InternBatch(miss_strs, &miss_ids);
      for (size_t i = 0; i < miss_idx.size(); ++i) {
        norm[miss_idx[i]] = miss_ids[i];
        shard.map.emplace(distinct[miss_idx[i]], miss_ids[i]);
      }
    }
  }
  hits_.fetch_add(local_hits, std::memory_order_relaxed);
  misses_.fetch_add(local_misses, std::memory_order_relaxed);

  for (size_t i = 0; i < raw.size(); ++i) {
    const size_t pos = static_cast<size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), raw[i]) -
        distinct.begin());
    (*out)[i] = norm[pos];
  }
}

}  // namespace ms
