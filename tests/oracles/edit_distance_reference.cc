#include "oracles/edit_distance_reference.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace ms {

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

}  // namespace ms
