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

size_t EditDistanceFull(std::string_view a, std::string_view b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

size_t EditDistanceBanded(std::string_view a, std::string_view b,
                          size_t band) {
  // Ensure |a| <= |b| (Algorithm 2 line 1-2).
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size(), m = b.size();
  if (m - n > band) return band + 1;  // length gap alone exceeds the band
  if (n == 0) return m;

  constexpr size_t kInf = static_cast<size_t>(-1) / 2;
  // Row-by-row DP restricted to j in [i-band, i+band].
  std::vector<size_t> prev(m + 1, kInf), cur(m + 1, kInf);
  const size_t init_hi = std::min(m, band);
  for (size_t j = 0; j <= init_hi; ++j) prev[j] = j;

  for (size_t i = 1; i <= n; ++i) {
    const size_t lo = (i > band) ? i - band : 0;
    const size_t hi = std::min(m, i + band);
    size_t row_min = kInf;
    // Cells outside [lo,hi] stay kInf in cur.
    if (lo > 0) {
      cur[lo - 1] = kInf;
    }
    for (size_t j = lo; j <= hi; ++j) {
      size_t best = kInf;
      if (j == 0) {
        best = i;
      } else {
        if (prev[j] != kInf) best = std::min(best, prev[j] + 1);
        if (cur[j - 1] != kInf) best = std::min(best, cur[j - 1] + 1);
        if (prev[j - 1] != kInf) {
          best = std::min(best, prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1));
        }
      }
      cur[j] = best;
      row_min = std::min(row_min, best);
    }
    if (hi + 1 <= m) cur[hi + 1] = kInf;
    if (row_min > band) return band + 1;  // whole band exceeded: early out
    std::swap(prev, cur);
  }
  return std::min(prev[m], band + 1);
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
