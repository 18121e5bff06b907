// Test oracles for edit distance: the full-matrix Levenshtein distance and
// the paper's banded dynamic program (Ukkonen-style, Algorithm 2), which
// fills only a diagonal band of width θ_ed in O(θ_ed · min(|v1|,|v2|))
// time. The engine decides matches with the bit-parallel Myers kernels
// (text/myers.h); these scalar versions are what the kernels are tested
// against. Linked by the tests and benches, never by the `ms` library.
#pragma once

#include <cstddef>
#include <string_view>

namespace ms {

/// Full-matrix Levenshtein distance. O(|a|·|b|).
size_t EditDistanceFull(std::string_view a, std::string_view b);

/// Banded Levenshtein: returns the exact distance if it is <= band,
/// otherwise any value > band (early-exits). band may be 0 (exact match).
size_t EditDistanceBanded(std::string_view a, std::string_view b, size_t band);

}  // namespace ms
