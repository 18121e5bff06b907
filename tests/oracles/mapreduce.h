// Mini in-process MapReduce. The paper runs candidate-pair blocking and
// Hash-to-Min connected components as Map-Reduce jobs on a production
// cluster; we reproduce the same programming model on a thread pool:
//   map: Input -> (K, V) pairs
//   shuffle: hash-partition by K
//   reduce: (K, all V's) -> Outputs
// The blocking and Hash-to-Min oracles run on it, written as the paper
// describes them while staying single-machine. Linked by the tests and
// benches, never by the `ms` library.
#pragma once

#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"

namespace ms {

/// Picks a partition count for a given input size and worker count.
size_t DefaultPartitionCount(size_t input_size, size_t workers);

template <typename K, typename V>
class Emitter {
 public:
  Emitter(size_t partitions, std::hash<K> hasher = {})
      : buffers_(partitions), hasher_(hasher) {}

  void Emit(const K& key, V value) {
    size_t p = hasher_(key) % buffers_.size();
    buffers_[p].emplace_back(key, std::move(value));
  }

  std::vector<std::vector<std::pair<K, V>>>& buffers() { return buffers_; }

 private:
  std::vector<std::vector<std::pair<K, V>>> buffers_;
  std::hash<K> hasher_;
};

/// Runs a full map-shuffle-reduce round.
///  - `inputs`: the records to map over.
///  - `map_fn(input, emitter)`: emits intermediate (K, V) pairs.
///  - `reduce_fn(key, values, out)`: appends outputs for one key group.
/// Returns all reduce outputs (order unspecified across keys).
template <typename Input, typename K, typename V, typename Output>
std::vector<Output> RunMapReduce(
    const std::vector<Input>& inputs,
    const std::function<void(const Input&, Emitter<K, V>&)>& map_fn,
    const std::function<void(const K&, std::vector<V>&, std::vector<Output>*)>&
        reduce_fn,
    ThreadPool* pool) {
  const size_t workers = pool ? pool->num_threads() : 1;
  const size_t partitions = DefaultPartitionCount(inputs.size(), workers);

  // --- Map phase: each worker owns an Emitter, which hash-partitions what
  // it emits by key, so every pair for one key lands in one partition.
  std::vector<Emitter<K, V>> emitters;
  emitters.reserve(workers);
  for (size_t w = 0; w < workers; ++w) emitters.emplace_back(partitions);

  if (pool && workers > 1) {
    const size_t chunk = (inputs.size() + workers - 1) / workers;
    for (size_t w = 0; w < workers; ++w) {
      const size_t begin = w * chunk;
      const size_t end = std::min(inputs.size(), begin + chunk);
      if (begin >= end) break;
      pool->Submit([&, w, begin, end] {
        for (size_t i = begin; i < end; ++i) map_fn(inputs[i], emitters[w]);
      });
    }
    pool->WaitIdle();
  } else {
    for (const auto& in : inputs) map_fn(in, emitters[0]);
  }

  // --- Shuffle + reduce: group each partition's pairs by key (worker
  // order, then emission order) and reduce every group.
  std::vector<std::vector<Output>> partial(partitions);
  auto reduce_partition = [&](size_t p) {
    std::unordered_map<K, std::vector<V>> groups;
    for (auto& em : emitters) {
      for (auto& [k, v] : em.buffers()[p]) groups[k].push_back(std::move(v));
    }
    for (auto& [k, vs] : groups) reduce_fn(k, vs, &partial[p]);
  };
  if (pool && workers > 1) {
    for (size_t p = 0; p < partitions; ++p) {
      pool->Submit([&, p] { reduce_partition(p); });
    }
    pool->WaitIdle();
  } else {
    for (size_t p = 0; p < partitions; ++p) reduce_partition(p);
  }

  std::vector<Output> out;
  size_t total = 0;
  for (auto& po : partial) total += po.size();
  out.reserve(total);
  for (auto& po : partial) {
    out.insert(out.end(), std::make_move_iterator(po.begin()),
               std::make_move_iterator(po.end()));
  }
  return out;
}

}  // namespace ms
