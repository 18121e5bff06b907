#include "graph/connected_components.h"

#include <deque>

namespace ms {

std::vector<uint32_t> ConnectedComponentsBfs(const CompatibilityGraph& graph,
                                             double min_pos_weight) {
  const size_t n = graph.num_vertices();
  std::vector<uint32_t> comp(n, UINT32_MAX);
  uint32_t next = 0;
  std::deque<VertexId> queue;
  for (VertexId s = 0; s < n; ++s) {
    if (comp[s] != UINT32_MAX) continue;
    comp[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      VertexId v = queue.front();
      queue.pop_front();
      for (uint32_t e : graph.IncidentEdges(v)) {
        const CompatEdge& edge = graph.edges()[e];
        if (edge.w_pos < min_pos_weight) continue;
        VertexId u = graph.Other(edge, v);
        if (comp[u] == UINT32_MAX) {
          comp[u] = next;
          queue.push_back(u);
        }
      }
    }
    ++next;
  }
  return comp;
}

}  // namespace ms
