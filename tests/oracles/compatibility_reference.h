// Test oracle for pair scoring: the seed scalar implementation (per-call
// value matching through the banded DP, no mask caching, no blocking
// reuse). tests/compatibility_test.cc and `bench_gates scoring` hold
// PairScorer (synth/compatibility.h) to byte-identical agreement with it.
// Linked by the tests and benches, never by the `ms` library.
#pragma once

#include "synth/compatibility.h"

namespace ms {

/// The scores ComputeCompatibility must return for the same arguments.
PairScores ComputeCompatibilityReference(const BinaryTable& a,
                                         const BinaryTable& b,
                                         const StringPool& pool,
                                         const CompatibilityOptions& opts = {});

}  // namespace ms
