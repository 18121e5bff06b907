// Connected components over the positive edges of a compatibility graph,
// by BFS. The synthesis pipeline's divide-and-conquer (Appendix F) runs it
// first, then partitions each component independently. The paper's
// Map-Reduce formulation, Hash-to-Min, is a test oracle
// (tests/oracles/hash_to_min.h) that must produce the same components.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"

namespace ms {

/// BFS components over edges with w_pos >= min_pos_weight.
/// Returns component id per vertex (dense, starting at 0).
std::vector<uint32_t> ConnectedComponentsBfs(const CompatibilityGraph& graph,
                                             double min_pos_weight = 0.0);

}  // namespace ms
