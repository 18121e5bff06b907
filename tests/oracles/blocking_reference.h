// Test oracle for blocking: the seed implementation, which materializes
// every co-occurring id pair of every (truncated) posting list and then
// counts them in one hash map. It shares only the blocking-key definition
// (synth/blocking.h) with the engine. Linked by the tests and the benches
// that compare against it, never by the `ms` library; do not use it on
// large inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "synth/blocking.h"
#include "table/binary_table.h"

namespace ms {

/// The pairs GenerateCandidatePairs must return for the same arguments.
/// With `stats`, also fills what the engine reports beside them: keys,
/// dropped_postings, the taint bitmap and its count, and exact_counts
/// (timings stay zero).
std::vector<CandidateTablePair> GenerateCandidatePairsReference(
    const std::vector<BinaryTable>& candidates,
    const BlockingOptions& options = {}, ThreadPool* pool = nullptr,
    const std::vector<uint32_t>& order = {}, BlockingStats* stats = nullptr);

}  // namespace ms
