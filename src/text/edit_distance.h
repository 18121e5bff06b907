// Approximate string matching (paper Section 4.1 + Appendix B).
//
// The match predicate uses a *fractional* edit-distance threshold
//   θ_ed(v1, v2) = min{ ⌊|v1|·f_ed⌋, ⌊|v2|·f_ed⌋, k_ed }
// so short codes ("USA" vs "RSA") require exact equality while longer names
// tolerate small variations. The match predicate runs the bit-parallel
// Myers kernel (text/myers.h). The paper's banded dynamic program
// (Ukkonen-style, Algorithm 2), which only fills a diagonal band of width
// θ_ed in O(θ_ed · min(|v1|,|v2|)) time, stays here as the scalar oracle
// the kernels are tested against.
#pragma once

#include <cstddef>
#include <string_view>

#include "common/status.h"

namespace ms {

/// Paper defaults: f_ed = 0.2, k_ed = 10.
struct EditDistanceOptions {
  double fractional = 0.2;  ///< f_ed
  size_t cap = 10;          ///< k_ed safeguard

  /// InvalidArgument when f_ed is not a finite value in [0, 1) — f_ed >= 1
  /// would declare every pair of equal-length strings a match — or the cap
  /// is absurdly large (bands beyond any cell value length are a config
  /// typo, not a threshold).
  Status Validate() const;

  bool operator==(const EditDistanceOptions&) const = default;
};

/// Full-matrix Levenshtein distance. O(|a|·|b|); reference implementation
/// used by tests to validate the banded version.
size_t EditDistanceFull(std::string_view a, std::string_view b);

/// Banded Levenshtein: returns the exact distance if it is <= band,
/// otherwise any value > band (early-exits). band may be 0 (exact match).
/// The scalar oracle for the Myers kernels and ComputeCompatibilityReference.
size_t EditDistanceBanded(std::string_view a, std::string_view b, size_t band);

/// The dynamic threshold θ_ed(v1, v2).
size_t FractionalThreshold(std::string_view a, std::string_view b,
                           const EditDistanceOptions& opts = {});

/// True when a and b approximately match under the fractional threshold
/// (Example 8: "American Samoa" ~ "American Samoa (US)" after
/// normalization), decided by the bounded Myers kernel.
bool ApproxMatch(std::string_view a, std::string_view b,
                 const EditDistanceOptions& opts = {});

}  // namespace ms
