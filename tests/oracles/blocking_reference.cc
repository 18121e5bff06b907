#include "oracles/blocking_reference.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "oracles/mapreduce.h"

namespace ms {
namespace {

struct OverlapCounts {
  uint32_t pairs = 0;
  uint32_t lefts = 0;
};

/// What the reduce side records across partitions, under `mu`.
struct Truncation {
  std::mutex mu;
  size_t keys = 0;
  size_t dropped_postings = 0;
  std::vector<uint32_t> tainted;
};

// Appends all co-occurring (i < j) id pairs from one posting list after
// truncating it to the max_posting candidates first in (order[id], id).
// Dropped ids are recorded in `trunc` so the reference matches the
// engine's per-pair exactness.
void EmitIdPairs(std::vector<uint32_t>& ids, size_t max_posting,
                 const std::vector<uint32_t>& order,
                 std::vector<std::pair<uint64_t, bool>>* out, bool is_pair,
                 Truncation* trunc) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  {
    std::lock_guard<std::mutex> lock(trunc->mu);
    ++trunc->keys;
  }
  if (ids.size() > max_posting) {
    if (!order.empty()) {
      std::sort(ids.begin(), ids.end(), [&](uint32_t x, uint32_t y) {
        return std::pair(order[x], x) < std::pair(order[y], y);
      });
    }
    {
      std::lock_guard<std::mutex> lock(trunc->mu);
      trunc->dropped_postings += ids.size() - max_posting;
      trunc->tainted.insert(trunc->tainted.end(), ids.begin() + max_posting,
                            ids.end());
    }
    ids.resize(max_posting);
    std::sort(ids.begin(), ids.end());
  }
  for (size_t x = 0; x < ids.size(); ++x) {
    for (size_t y = x + 1; y < ids.size(); ++y) {
      out->push_back({(static_cast<uint64_t>(ids[x]) << 32) | ids[y], is_pair});
    }
  }
}

}  // namespace

std::vector<CandidateTablePair> GenerateCandidatePairsReference(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    ThreadPool* pool, const std::vector<uint32_t>& order,
    BlockingStats* stats) {
  // --- MapReduce round: key = hashed value pair (or hashed left value with
  // a tag bit), value = candidate id. Reduce emits co-occurring id pairs.
  std::vector<uint32_t> inputs(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) inputs[i] = i;

  using KV = std::pair<uint64_t, bool>;  // (packed id pair, is_pair_key)
  Truncation trunc;
  std::function<void(const uint32_t&, Emitter<uint64_t, uint32_t>&)> map_fn =
      [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
        ForEachBlockingKey(candidates[id],
                           [&](uint64_t key) { em.Emit(key, id); });
      };
  std::function<void(const uint64_t&, std::vector<uint32_t>&,
                     std::vector<KV>*)>
      reduce_fn = [&](const uint64_t& key, std::vector<uint32_t>& ids,
                      std::vector<KV>* out) {
        EmitIdPairs(ids, options.max_posting, order, out, (key & 1) == 0,
                    &trunc);
      };

  auto emitted = RunMapReduce<uint32_t, uint64_t, uint32_t, KV>(
      inputs, map_fn, reduce_fn, pool);

  // --- Count per id-pair.
  std::unordered_map<uint64_t, OverlapCounts> counts;
  counts.reserve(emitted.size());
  for (const auto& [packed, is_pair] : emitted) {
    auto& c = counts[packed];
    if (is_pair) {
      ++c.pairs;
    } else {
      ++c.lefts;
    }
  }

  std::vector<uint8_t> tainted;
  if (!trunc.tainted.empty()) {
    tainted.assign(candidates.size(), 0);
    for (uint32_t id : trunc.tainted) tainted[id] = 1;
  }

  std::vector<CandidateTablePair> out;
  for (const auto& [packed, c] : counts) {
    if (c.pairs >= options.theta_overlap || c.lefts >= options.theta_overlap) {
      CandidateTablePair p;
      p.a = static_cast<uint32_t>(packed >> 32);
      p.b = static_cast<uint32_t>(packed & 0xffffffffu);
      p.shared_pairs = c.pairs;
      p.shared_lefts = c.lefts;
      p.counts_exact = tainted.empty() || (!tainted[p.a] && !tainted[p.b]);
      out.push_back(p);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  if (stats != nullptr) {
    *stats = BlockingStats{};
    stats->keys = trunc.keys;
    stats->dropped_postings = trunc.dropped_postings;
    stats->exact_counts = trunc.dropped_postings == 0;
    stats->tainted_candidates = static_cast<size_t>(
        std::count(tainted.begin(), tainted.end(), uint8_t{1}));
    stats->tainted = std::move(tainted);
  }
  return out;
}

}  // namespace ms
