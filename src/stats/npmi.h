// Point-wise Mutual Information and its normalized variant (Section 3.1,
// Equations 1-2). PMI measures how much more often two values co-occur in
// corpus columns than chance; NPMI rescales it to [-1, 1].
#pragma once

#include "stats/inverted_index.h"

namespace ms {

/// PMI(u, v) = log( p(u,v) / (p(u) p(v)) ) with p's estimated from column
/// frequencies. Returns -infinity surrogate (-1e9) when the values never
/// co-occur, and 0 when either value is unseen.
double Pmi(const ColumnInvertedIndex& index, ValueId u, ValueId v);

/// NPMI(u, v) = PMI / (-log p(u,v)), in [-1, 1].
///  +1  : values only ever occur together,
///   0  : independent,
///  -1  : never co-occur.
/// NPMI(u, u) == 1 for any value present in the corpus.
double Npmi(const ColumnInvertedIndex& index, ValueId u, ValueId v);

/// NPMI from the counts Npmi reads off the index: N = `num_columns`,
/// |C(u)| = `c_u`, |C(v)| = `c_v` and |C(u) ∩ C(v)| = `c_uv`. For callers
/// that need c_uv themselves (coherence profiles), so each pair's posting
/// lists are intersected once. Bitwise equal to Npmi on the same counts.
double NpmiFromCounts(size_t num_columns, size_t c_u, size_t c_v,
                      size_t c_uv);

/// The paper's s(u, v) coherence between two values == NPMI.
inline double ValueCoherence(const ColumnInvertedIndex& index, ValueId u,
                             ValueId v) {
  return Npmi(index, u, v);
}

}  // namespace ms
