// Test oracle for connected components: Hash-to-Min (Appendix F, [13]),
// the Map-Reduce formulation the paper uses at scale, on the mini MapReduce
// engine (oracles/mapreduce.h). It must produce the same components as the
// engine's BFS (graph/connected_components.h). Linked by the tests and
// benches, never by the `ms` library.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "graph/weighted_graph.h"

namespace ms {

/// Hash-to-Min components over edges with w_pos >= min_pos_weight
/// (iterative min-label propagation): component id per vertex, dense from 0.
std::vector<uint32_t> ConnectedComponentsHashToMin(
    const CompatibilityGraph& graph, double min_pos_weight = 0.0,
    ThreadPool* pool = nullptr);

}  // namespace ms
