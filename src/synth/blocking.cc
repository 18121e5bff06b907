#include "synth/blocking.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/flat_hash.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "mr/mapreduce.h"

namespace ms {
namespace {

struct OverlapCounts {
  uint32_t pairs = 0;
  uint32_t lefts = 0;
};

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Blocking key spaces shared by every implementation: full value pairs get
// tag bit 0 (feeds shared_pairs / w+), left values get tag bit 1 (feeds
// shared_lefts / w-).
uint64_t PairKey(const ValuePair& p) {
  return HashIdPair(p.left, p.right) << 1;
}
uint64_t LeftKey(ValueId left) { return (Mix64(left) << 1) | 1; }

/// Calls `fn` with each pair key of `b`, then each distinct left's key.
template <typename Fn>
void ForEachBlockingKey(const BinaryTable& b, Fn&& fn) {
  const auto& pairs = b.pairs();
  for (const auto& p : pairs) fn(PairKey(p));
  // Pairs are sorted by left, so each left-run start is a distinct left.
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].left != pairs[i - 1].left) {
      fn(LeftKey(pairs[i].left));
    }
  }
}

void EmitBlockingKeys(const BinaryTable& b, uint32_t id,
                      Emitter<uint64_t, uint32_t>& em) {
  ForEachBlockingKey(b, [&](uint64_t key) { em.Emit(key, id); });
}

// A candidate's position in the truncation order: (order[id], id), packed.
uint64_t TruncationRank(const std::vector<uint32_t>& order, uint32_t id) {
  return (uint64_t{order[id]} << 32) | id;
}

// Appends all co-occurring (i < j) id pairs from one posting list
// (reference implementation only). Dropped ids go to `tainted` under
// `tainted_mu` so the reference matches the production per-pair exactness.
void EmitIdPairs(std::vector<uint32_t>& ids, size_t max_posting,
                 const std::vector<uint32_t>& order,
                 std::vector<std::pair<uint64_t, bool>>* out, bool is_pair,
                 std::mutex& tainted_mu, std::vector<uint32_t>* tainted) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() > max_posting) {
    if (!order.empty()) {
      std::sort(ids.begin(), ids.end(), [&](uint32_t x, uint32_t y) {
        return TruncationRank(order, x) < TruncationRank(order, y);
      });
    }
    {
      std::lock_guard<std::mutex> lock(tainted_mu);
      tainted->insert(tainted->end(), ids.begin() + max_posting, ids.end());
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

// Truncates one posting list (sorted by id, de-duplicated) to the
// max_posting candidates that come first in the truncation order, appending
// the dropped ids to `dropped`; the kept ids stay sorted by id. In id order
// the kept ids are the prefix already; any other order partitions the list
// by rank, so only lists that actually truncate pay for it.
void TruncatePosting(std::vector<uint32_t>& ids, size_t max_posting,
                     const std::vector<uint32_t>& order,
                     std::vector<uint32_t>* dropped) {
  if (ids.size() <= max_posting) return;
  if (!order.empty()) {
    std::nth_element(ids.begin(), ids.begin() + max_posting, ids.end(),
                     [&](uint32_t x, uint32_t y) {
                       return TruncationRank(order, x) <
                              TruncationRank(order, y);
                     });
    std::sort(ids.begin(), ids.begin() + max_posting);
  }
  dropped->insert(dropped->end(), ids.begin() + max_posting, ids.end());
  ids.resize(max_posting);
}

std::vector<CandidateTablePair> CollectAndSort(
    std::vector<std::vector<CandidateTablePair>>& per_shard) {
  std::vector<CandidateTablePair> out;
  size_t total = 0;
  for (const auto& s : per_shard) total += s.size();
  out.reserve(total);
  for (auto& s : per_shard) {
    out.insert(out.end(), s.begin(), s.end());
  }
  // Deterministic order for reproducibility.
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return out;
}

}  // namespace

Status BlockingOptions::Validate() const {
  if (theta_overlap == 0) {
    return Status::InvalidArgument(
        "blocking.theta_overlap must be >= 1: 0 would emit every candidate "
        "pair and defeat blocking entirely");
  }
  if (max_posting < 2) {
    return Status::InvalidArgument(
        "blocking.max_posting must be >= 2: shorter posting lists can never "
        "produce a co-occurrence, so no pair would ever be scored");
  }
  return Status::OK();
}

bool DeltaMergeIsExact(bool retired, bool reranked,
                       size_t base_dropped_postings,
                       size_t delta_dropped_postings) {
  const bool resurrection = retired && base_dropped_postings != 0;
  const bool displacement = reranked && delta_dropped_postings != 0;
  return !resurrection && !displacement;
}

size_t CountRetiredOnlyKeys(const std::vector<BinaryTable>& before,
                            const std::vector<uint8_t>& retired,
                            const std::vector<BinaryTable>& after,
                            uint32_t first_new) {
  // Every key a retired candidate holds, flagged once a survivor is seen
  // holding it. Keys are stored shifted by one: FlatMap64 reserves key 0.
  FlatMap64<uint8_t> orphans;
  // Which sides the retired candidates hold each value on. A survivor can
  // hold a retired left key only under a retired left, and a retired pair
  // key only on a pair whose two values are a retired left and a retired
  // right (64-bit key hashes are taken as collision-free, as blocking
  // itself takes them), so every other key is skipped without hashing.
  constexpr uint8_t kLeft = 1, kRight = 2;
  std::vector<uint8_t> sides;
  const auto flag = [&sides](ValueId v, uint8_t side) {
    if (v >= sides.size()) sides.resize(static_cast<size_t>(v) + 1, 0);
    sides[v] |= side;
  };
  const auto has = [&sides](ValueId v, uint8_t side) {
    return v < sides.size() && (sides[v] & side) != 0;
  };
  for (size_t i = 0; i < retired.size(); ++i) {
    if (!retired[i]) continue;
    ForEachBlockingKey(before[i],
                       [&](uint64_t key) { orphans[key + 1] = 0; });
    for (const ValuePair& p : before[i].pairs()) {
      flag(p.left, kLeft);
      flag(p.right, kRight);
    }
  }
  size_t unseen = orphans.size();
  const auto seen_held = [&](uint64_t key) {
    const uint8_t* held = orphans.Find(key + 1);
    if (held != nullptr && *held == 0) {
      orphans[key + 1] = 1;
      --unseen;
    }
  };
  for (uint32_t id = 0; id < first_new && unseen != 0; ++id) {
    const auto& pairs = after[id].pairs();
    for (size_t i = 0; i < pairs.size(); ++i) {
      const ValuePair& p = pairs[i];
      if (!has(p.left, kLeft)) continue;
      if (i == 0 || p.left != pairs[i - 1].left) seen_held(LeftKey(p.left));
      if (has(p.right, kRight)) seen_held(PairKey(p));
    }
  }
  return unseen;
}

std::vector<CandidateTablePair> GenerateCandidatePairs(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    ThreadPool* pool, BlockingStats* stats,
    const std::vector<uint32_t>& order) {
  // A cold run is the delta pass over an empty base: every id is appended,
  // every key is new, and the union taint bitmap starts empty. An empty
  // input still reports its (exact, empty) stats.
  std::vector<uint8_t> tainted;
  DeltaBlockingStats delta;
  auto out = GenerateDeltaCandidatePairs(candidates, 0, options, pool,
                                         &tainted, &delta, order);
  if (stats) {
    stats->map_shuffle_seconds = delta.map_shuffle_seconds;
    stats->count_seconds = delta.count_seconds;
    stats->reduce_seconds = delta.reduce_seconds;
    stats->keys = delta.new_keys;
    stats->dropped_postings = delta.dropped_postings;
    stats->tainted_candidates = static_cast<size_t>(
        std::count(tainted.begin(), tainted.end(), uint8_t{1}));
    stats->exact_counts = stats->dropped_postings == 0;
    stats->tainted = std::move(tainted);
  }
  return out;
}

std::vector<CandidateTablePair> GenerateDeltaCandidatePairs(
    const std::vector<BinaryTable>& candidates, uint32_t first_new,
    const BlockingOptions& options, ThreadPool* pool,
    std::vector<uint8_t>* tainted, DeltaBlockingStats* stats,
    const std::vector<uint32_t>& order) {
  if (first_new >= candidates.size()) return {};
  Timer timer;
  std::vector<uint8_t> local_tainted;
  if (tainted == nullptr) tainted = &local_tainted;
  if (!tainted->empty()) tainted->resize(candidates.size(), 0);

  // --- Map + shuffle: hash-partition (blocking key -> candidate id), so
  // every posting list lives wholly inside one partition. With existing
  // candidates (first_new > 0) only the keys some appended candidate holds
  // are emitted: existing candidates contribute their postings for exactly
  // those keys, nothing else. That filter is the only full-corpus scan a
  // delta pass pays, and it is linear.
  std::vector<uint32_t> inputs(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) inputs[i] = i;
  std::function<void(const uint32_t&, Emitter<uint64_t, uint32_t>&)> map_fn =
      [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
        EmitBlockingKeys(candidates[id], id, em);
      };
  // FlatMap64 reserves key 0 as its empty sentinel, so delta keys are
  // stored shifted by one (the pipeline already tolerates 64-bit key-hash
  // collisions, which an unrepresentable key 2^64-1 would amount to).
  FlatMap64<char> delta_keys;
  if (first_new > 0) {
    Emitter<uint64_t, uint32_t> collector(1);
    for (uint32_t id = first_new; id < candidates.size(); ++id) {
      EmitBlockingKeys(candidates[id], id, collector);
    }
    for (const auto& [key, unused] : collector.buffers()[0]) {
      delta_keys[key + 1] = 1;
    }
    map_fn = [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
      Emitter<uint64_t, uint32_t> probe(1);
      EmitBlockingKeys(candidates[id], id, probe);
      for (const auto& [key, emitted_id] : probe.buffers()[0]) {
        if (delta_keys.Find(key + 1) != nullptr) em.Emit(key, emitted_id);
      }
    };
  }
  auto parts = RunMapShuffle<uint32_t, uint64_t, uint32_t>(inputs, map_fn, pool);
  if (stats) stats->map_shuffle_seconds = timer.ElapsedSeconds();

  // --- Streaming count: sort each partition by key, walk posting-list runs,
  // and stream the co-occurring id pairs that touch an appended id directly
  // into per-partition flat count maps sharded by the packed id pair.
  // Nothing quadratic is ever stored; each id pair costs one hash-map
  // increment. Truncation follows union semantics: each list keeps the
  // max_posting candidates first in truncation order. Old-old counts and
  // old-candidate taint are not recomputed here — they equal the base run's
  // unless a new candidate ranks before old ones and displaces one from a
  // truncated list (see DeltaMergeIsExact).
  timer.Restart();
  const size_t workers = pool ? pool->num_threads() : 1;
  const bool parallel = pool && workers > 1;
  const size_t num_shards = NextPow2(workers);
  const uint64_t shard_mask = num_shards - 1;
  // One count-map group per partition when counting runs in parallel;
  // serially, all partitions share one group so the merge below is a no-op.
  const size_t num_groups = parallel ? parts.size() : 1;
  std::vector<std::vector<FlatMap64<OverlapCounts>>> counts(num_groups);
  for (auto& c : counts) c.resize(num_shards);
  std::vector<size_t> part_new_keys(parts.size(), 0);
  std::vector<size_t> part_scanned(parts.size(), 0);
  std::vector<size_t> part_dropped_delta(parts.size(), 0);
  // Candidate ids dropped from a truncated posting list, per partition.
  // Only pairs touching one of these can have understated counts; everyone
  // else keeps per-pair count exactness (counts_exact) even when some hot
  // key somewhere truncated.
  std::vector<std::vector<uint32_t>> part_tainted(parts.size());

  auto count_partition = [&](size_t p) {
    auto& part = parts[p];
    if (part.empty()) return;
    auto& shards = counts[parallel ? p : 0];
    std::vector<uint32_t> ids;
    size_t i = 0;
    while (i < part.size()) {
      const uint64_t key = part[i].first;
      size_t j = i;
      ids.clear();
      for (; j < part.size() && part[j].first == key; ++j) {
        // Runs are sorted by id, so de-dup is an adjacency check.
        if (ids.empty() || ids.back() != part[j].second) {
          ids.push_back(part[j].second);
        }
      }
      i = j;
      ++part_scanned[p];
      // Ids are sorted, so the old ids are the prefix below first_new.
      const size_t old_len = static_cast<size_t>(
          std::lower_bound(ids.begin(), ids.end(), first_new) - ids.begin());
      if (old_len == 0) ++part_new_keys[p];
      const size_t base_dropped =
          old_len > options.max_posting ? old_len - options.max_posting : 0;
      const size_t union_dropped =
          ids.size() > options.max_posting ? ids.size() - options.max_posting
                                           : 0;
      part_dropped_delta[p] += union_dropped - base_dropped;
      // Deterministic truncation, accounted for. The dropped ids can include
      // old ids (already tainted in the base run unless displaced —
      // re-adding is idempotent) and appended ids (newly tainted).
      TruncatePosting(ids, options.max_posting, order, &part_tainted[p]);
      const bool is_pair = (key & 1) == 0;
      // Only pairs touching an appended id: a < b and appended ids are the
      // largest, so restricting b to the appended suffix of the kept list
      // (still sorted by id) covers exactly (old x new) and (new x new).
      const size_t first_new_pos = static_cast<size_t>(
          std::lower_bound(ids.begin(), ids.end(), first_new) - ids.begin());
      for (size_t x = 0; x < ids.size(); ++x) {
        const uint64_t hi = static_cast<uint64_t>(ids[x]) << 32;
        for (size_t y = std::max(x + 1, first_new_pos); y < ids.size(); ++y) {
          const uint64_t packed = hi | ids[y];
          // High mix bits pick the shard; FlatMap64 slots use the low bits.
          auto& c = shards[(Mix64(packed) >> 32) & shard_mask][packed];
          if (is_pair) {
            ++c.pairs;
          } else {
            ++c.lefts;
          }
        }
      }
    }
  };
  if (parallel) {
    // Each partition task sorts its own buffer; count maps are per group.
    pool->ParallelFor(parts.size(), [&](size_t p) {
      std::sort(parts[p].begin(), parts[p].end());
      count_partition(p);
    });
  } else {
    // Serial: all partitions share one map group. Growth-by-doubling beats
    // an upfront reservation here — increment counts overestimate distinct
    // id pairs several-fold, and an oversized map trades amortized rehash
    // for a cache miss on every increment (measurably worse).
    for (size_t p = 0; p < parts.size(); ++p) {
      std::sort(parts[p].begin(), parts[p].end());
      count_partition(p);
    }
  }
  if (stats) stats->count_seconds = timer.ElapsedSeconds();

  // --- Fold the per-partition taint lists into the caller's union bitmap:
  // a pair's counts are exact iff neither endpoint was ever dropped from a
  // truncated list (a pair only loses count from a list both appear in
  // when one of them sits in the dropped tail).
  for (const auto& t : part_tainted) {
    for (uint32_t id : t) {
      if (tainted->empty()) tainted->assign(candidates.size(), 0);
      (*tainted)[id] = 1;
    }
  }

  // --- Reduce: merge each shard across partition groups (parallel over
  // shards), apply the θ_overlap threshold, and emit surviving pairs. With
  // one group (serial counting) the "merge" reads the counts in place.
  timer.Restart();
  std::vector<std::vector<CandidateTablePair>> survivors(num_shards);
  auto emit_survivor = [&](std::vector<CandidateTablePair>& out,
                           uint64_t packed, const OverlapCounts& c) {
    if (c.pairs >= options.theta_overlap || c.lefts >= options.theta_overlap) {
      CandidateTablePair p;
      p.a = static_cast<uint32_t>(packed >> 32);
      p.b = static_cast<uint32_t>(packed & 0xffffffffu);
      p.shared_pairs = c.pairs;
      p.shared_lefts = c.lefts;
      p.counts_exact =
          tainted->empty() || (!(*tainted)[p.a] && !(*tainted)[p.b]);
      out.push_back(p);
    }
  };
  auto reduce_shard = [&](size_t s) {
    auto& out = survivors[s];
    if (num_groups == 1) {
      counts[0][s].ForEach([&](uint64_t packed, const OverlapCounts& c) {
        emit_survivor(out, packed, c);
      });
      return;
    }
    size_t expected = 0;
    for (size_t g = 0; g < num_groups; ++g) expected += counts[g][s].size();
    if (expected == 0) return;
    FlatMap64<OverlapCounts> merged(expected);
    for (size_t g = 0; g < num_groups; ++g) {
      counts[g][s].ForEach([&](uint64_t packed, const OverlapCounts& c) {
        auto& m = merged[packed];
        m.pairs += c.pairs;
        m.lefts += c.lefts;
      });
    }
    merged.ForEach([&](uint64_t packed, const OverlapCounts& c) {
      emit_survivor(out, packed, c);
    });
  };
  if (parallel && num_shards > 1) {
    pool->ParallelFor(num_shards, reduce_shard);
  } else {
    for (size_t s = 0; s < num_shards; ++s) reduce_shard(s);
  }

  auto out = CollectAndSort(survivors);
  if (stats) {
    stats->reduce_seconds = timer.ElapsedSeconds();
    for (size_t p = 0; p < parts.size(); ++p) {
      stats->new_keys += part_new_keys[p];
      stats->scanned_keys += part_scanned[p];
      stats->dropped_postings += part_dropped_delta[p];
    }
  }
  return out;
}

std::vector<CandidateTablePair> GenerateCandidatePairsReference(
    const std::vector<BinaryTable>& candidates, const BlockingOptions& options,
    ThreadPool* pool, const std::vector<uint32_t>& order) {
  // --- MapReduce round: key = hashed value pair (or hashed left value with
  // a tag bit), value = candidate id. Reduce emits co-occurring id pairs.
  std::vector<uint32_t> inputs(candidates.size());
  for (uint32_t i = 0; i < candidates.size(); ++i) inputs[i] = i;

  using KV = std::pair<uint64_t, bool>;  // (packed id pair, is_pair_key)
  std::mutex tainted_mu;
  std::vector<uint32_t> tainted_ids;
  std::function<void(const uint32_t&, Emitter<uint64_t, uint32_t>&)> map_fn =
      [&](const uint32_t& id, Emitter<uint64_t, uint32_t>& em) {
        EmitBlockingKeys(candidates[id], id, em);
      };
  std::function<void(const uint64_t&, std::vector<uint32_t>&,
                     std::vector<KV>*)>
      reduce_fn = [&](const uint64_t& key, std::vector<uint32_t>& ids,
                      std::vector<KV>* out) {
        EmitIdPairs(ids, options.max_posting, order, out, (key & 1) == 0,
                    tainted_mu, &tainted_ids);
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
  if (!tainted_ids.empty()) {
    tainted.assign(candidates.size(), 0);
    for (uint32_t id : tainted_ids) tainted[id] = 1;
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
  return out;
}

}  // namespace ms
