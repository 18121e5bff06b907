// The compatibility graph G = (B, E) of Section 4.2: vertices are candidate
// binary tables; each edge carries a positive compatibility weight w+ and a
// negative incompatibility weight w-. Edges with both weights zero are
// never materialized (the blocking step guarantees sparsity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ms {

using VertexId = uint32_t;

/// One undirected edge with both signals.
struct CompatEdge {
  VertexId u = 0;
  VertexId v = 0;
  double w_pos = 0.0;  ///< w+(u, v) in [0, 1]
  double w_neg = 0.0;  ///< w-(u, v) in [-1, 0]
};

/// Sparse undirected graph stored as an edge list plus CSR adjacency: one
/// offsets array and one incident-edge array, filled by a counting pass.
/// Build via AddEdge()+Finalize(), or adopt a whole edge list at
/// construction; adjacency queries after Finalize().
class CompatibilityGraph {
 public:
  explicit CompatibilityGraph(size_t num_vertices = 0)
      : num_vertices_(num_vertices) {}
  /// Adopts `edges` (each u < v < num_vertices) and finalizes.
  CompatibilityGraph(size_t num_vertices, std::vector<CompatEdge> edges);

  void set_num_vertices(size_t n) { num_vertices_ = n; }
  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Adds an undirected edge (u != v). Call before Finalize().
  void AddEdge(VertexId u, VertexId v, double w_pos, double w_neg);

  /// Builds adjacency. Idempotent.
  void Finalize();

  const std::vector<CompatEdge>& edges() const { return edges_; }

  /// Indices into edges() incident to vertex v, ascending (valid after
  /// Finalize()).
  std::span<const uint32_t> IncidentEdges(VertexId v) const;

  /// The other endpoint of edge e relative to v.
  VertexId Other(const CompatEdge& e, VertexId v) const {
    return e.u == v ? e.v : e.u;
  }

 private:
  size_t num_vertices_;
  std::vector<CompatEdge> edges_;
  /// Vertex v's incident edges are incident_[offsets_[v], offsets_[v + 1]).
  std::vector<size_t> offsets_;
  std::vector<uint32_t> incident_;
  bool finalized_ = false;
};

}  // namespace ms
