#include "graph/weighted_graph.h"

#include <algorithm>
#include <cassert>

namespace ms {

CompatibilityGraph::CompatibilityGraph(size_t num_vertices,
                                       std::vector<CompatEdge> edges)
    : num_vertices_(num_vertices), edges_(std::move(edges)) {
  Finalize();
}

void CompatibilityGraph::AddEdge(VertexId u, VertexId v, double w_pos,
                                 double w_neg) {
  assert(u != v);
  assert(u < num_vertices_ && v < num_vertices_);
  if (u > v) std::swap(u, v);
  edges_.push_back({u, v, w_pos, w_neg});
  finalized_ = false;
}

void CompatibilityGraph::Finalize() {
  if (finalized_) return;
  // Count degrees, turn them into each list's end, then place the edges
  // from the last index down, moving each end to its list's start: every
  // vertex's list comes out ascending.
  offsets_.assign(num_vertices_ + 1, 0);
  for (const CompatEdge& e : edges_) {
    assert(e.u < e.v && e.v < num_vertices_);
    ++offsets_[e.u];
    ++offsets_[e.v];
  }
  size_t end = 0;
  for (size_t& o : offsets_) o = end += o;
  incident_.resize(2 * edges_.size());
  for (size_t e = edges_.size(); e-- > 0;) {
    incident_[--offsets_[edges_[e].u]] = static_cast<uint32_t>(e);
    incident_[--offsets_[edges_[e].v]] = static_cast<uint32_t>(e);
  }
  finalized_ = true;
}

std::span<const uint32_t> CompatibilityGraph::IncidentEdges(VertexId v) const {
  assert(finalized_);
  assert(v + 1 < offsets_.size());
  return {incident_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

}  // namespace ms
