#include "oracles/hash_to_min.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

#include "oracles/mapreduce.h"

namespace ms {

std::vector<uint32_t> ConnectedComponentsHashToMin(
    const CompatibilityGraph& graph, double min_pos_weight,
    ThreadPool* pool) {
  const size_t n = graph.num_vertices();
  // label[v]: current minimum vertex id known to be in v's component.
  std::vector<uint32_t> label(n);
  for (uint32_t v = 0; v < n; ++v) label[v] = v;

  // Static adjacency restricted to qualifying edges.
  std::vector<std::vector<uint32_t>> adj(n);
  for (const auto& e : graph.edges()) {
    if (e.w_pos < min_pos_weight) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }

  std::vector<uint32_t> vertices(n);
  for (uint32_t v = 0; v < n; ++v) vertices[v] = v;

  // Each round: every vertex sends min(label of itself, labels heard last
  // round) to all neighbors and itself; reduce takes the min per vertex.
  // Converges in O(log n) rounds on typical graphs [13].
  bool changed = true;
  size_t round = 0;
  const size_t max_rounds = 64;  // safety; log2(n) rounds expected
  while (changed && round < max_rounds) {
    changed = false;
    ++round;
    using KV = std::pair<uint32_t, uint32_t>;  // (vertex, candidate label)
    std::function<void(const uint32_t&, Emitter<uint32_t, uint32_t>&)> map_fn =
        [&](const uint32_t& v, Emitter<uint32_t, uint32_t>& em) {
          const uint32_t lv = label[v];
          em.Emit(v, lv);
          for (uint32_t u : adj[v]) em.Emit(u, lv);
        };
    std::function<void(const uint32_t&, std::vector<uint32_t>&,
                       std::vector<KV>*)>
        reduce_fn = [](const uint32_t& v, std::vector<uint32_t>& labels,
                       std::vector<KV>* out) {
          uint32_t mn = labels[0];
          for (uint32_t l : labels) mn = std::min(mn, l);
          out->push_back({v, mn});
        };
    auto updates = RunMapReduce<uint32_t, uint32_t, uint32_t, KV>(
        vertices, map_fn, reduce_fn, pool);
    for (const auto& [v, mn] : updates) {
      if (mn < label[v]) {
        label[v] = mn;
        changed = true;
      }
    }
  }

  // Densify labels to 0..k-1.
  std::unordered_map<uint32_t, uint32_t> dense;
  std::vector<uint32_t> comp(n);
  for (uint32_t v = 0; v < n; ++v) {
    auto [it, inserted] = dense.emplace(label[v], static_cast<uint32_t>(dense.size()));
    comp[v] = it->second;
  }
  return comp;
}

std::vector<std::vector<VertexId>> GroupByComponent(
    const std::vector<uint32_t>& component_of) {
  uint32_t max_comp = 0;
  for (uint32_t c : component_of) max_comp = std::max(max_comp, c);
  std::vector<std::vector<VertexId>> groups(component_of.empty() ? 0
                                                                 : max_comp + 1);
  for (VertexId v = 0; v < component_of.size(); ++v) {
    groups[component_of[v]].push_back(v);
  }
  return groups;
}

}  // namespace ms
