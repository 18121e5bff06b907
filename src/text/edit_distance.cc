#include "text/edit_distance.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "text/myers.h"

namespace ms {

Status EditDistanceOptions::Validate() const {
  if (!std::isfinite(fractional) || fractional < 0.0 || fractional >= 1.0) {
    return Status::InvalidArgument(
        "edit.fractional (f_ed) must be a finite value in [0, 1), got " +
        std::to_string(fractional));
  }
  if (cap > 1u << 20) {
    return Status::InvalidArgument(
        "edit.cap (k_ed) of " + std::to_string(cap) +
        " exceeds any plausible cell length; likely a config typo");
  }
  return Status::OK();
}

size_t FractionalThreshold(std::string_view a, std::string_view b,
                           const EditDistanceOptions& opts) {
  const size_t ta = static_cast<size_t>(
      std::floor(static_cast<double>(a.size()) * opts.fractional));
  const size_t tb = static_cast<size_t>(
      std::floor(static_cast<double>(b.size()) * opts.fractional));
  return std::min({ta, tb, opts.cap});
}

bool ApproxMatch(std::string_view a, std::string_view b,
                 const EditDistanceOptions& opts) {
  if (a == b) return true;
  const size_t band = FractionalThreshold(a, b, opts);
  if (band == 0) return false;  // short strings require exact equality
  const size_t gap =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (gap > band) return false;  // length gap alone exceeds the band
  // Pattern = shorter side (fewer words for the blocked kernel). The
  // thread_local pattern keeps the blocked Peq table's heap allocation out
  // of the per-call cost; the bounded kernel keeps the banded DP's early-out
  // property.
  const std::string_view pat = a.size() <= b.size() ? a : b;
  const std::string_view txt = a.size() <= b.size() ? b : a;
  static thread_local MyersPattern pattern;
  BuildMyersPattern(pat, &pattern);
  return MyersDistanceBounded(pattern, txt, band) <= band;
}

}  // namespace ms
