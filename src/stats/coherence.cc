#include "stats/coherence.h"

#include <algorithm>
#include <cmath>

#include "stats/npmi.h"

namespace ms {

double ColumnCoherence(const ColumnInvertedIndex& index,
                       const std::vector<ValueId>& cells,
                       const CoherenceOptions& opts,
                       CoherenceProfile* profile) {
  if (profile != nullptr) {
    *profile = CoherenceProfile{};
    profile->n_eval = static_cast<uint32_t>(index.num_columns());
  }
  std::vector<ValueId> distinct(cells);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (distinct.empty()) return 0.0;
  if (distinct.size() == 1) {
    if (profile != nullptr) profile->score = 1.0;
    return 1.0;
  }

  if (distinct.size() > opts.max_sampled_values) {
    Rng rng(opts.sample_seed);
    rng.Shuffle(distinct);
    distinct.resize(opts.max_sampled_values);
  }

  double sum = 0.0;
  double sum_pos = 0.0;
  size_t pairs = 0;
  uint32_t sup_pos = 0;
  uint32_t sup_zero = 0;
  uint32_t b_max = 0;
  const size_t n = index.num_columns();
  for (size_t i = 0; i < distinct.size(); ++i) {
    const size_t cu = index.ColumnFrequency(distinct[i]);
    const bool i_supported = cu >= opts.min_value_support;
    for (size_t j = i + 1; j < distinct.size(); ++j) {
      const size_t cv = index.ColumnFrequency(distinct[j]);
      if (i_supported && cv >= opts.min_value_support) {
        // One posting-list intersection per pair feeds both the NPMI and
        // the margin profile.
        const size_t c_uv = index.CoOccurrence(distinct[i], distinct[j]);
        const double npmi = NpmiFromCounts(n, cu, cv, c_uv);
        sum += npmi;
        if (profile != nullptr) {
          const uint32_t cuv = static_cast<uint32_t>(c_uv);
          if (cuv > 0) {
            ++sup_pos;
            sum_pos += npmi;
            b_max = std::max(b_max, cuv);
          } else {
            ++sup_zero;
          }
        }
      }
      // Unsupported pairs contribute 0 (no evidence either way).
      ++pairs;
    }
  }
  const double score =
      pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
  if (profile != nullptr) {
    profile->score = score;
    profile->sum_pos = sum_pos;
    profile->pairs = static_cast<uint32_t>(pairs);
    profile->sup_pos = sup_pos;
    profile->sup_zero = sup_zero;
    profile->b_max = b_max;
  }
  return score;
}

bool CoherenceVerdictStable(const CoherenceProfile& profile, double threshold,
                            size_t n_now) {
  const size_t n_eval = profile.n_eval;
  if (n_now == n_eval) return true;  // nothing moved
  // Index-independent scores (empty / single-distinct columns record
  // pairs == 0 with score 0 or 1; sampled sets whose pairs are all
  // unsupported score a constant 0).
  if (profile.pairs == 0) return true;
  const bool kept = profile.score >= threshold;
  const bool grew = n_now > n_eval;
  // Monotone direction cannot flip the verdict: at fixed counts every
  // supported pair's NPMI is non-decreasing in N, so S only rises under
  // growth and only falls under shrink.
  if (grew && kept) return true;
  if (!grew && !kept) return true;
  if (n_eval < 2 || n_now < 2) return false;  // degenerate; just re-evaluate

  // Remaining cases need the one-sided bound through rho. If there are no
  // positive supported pairs, sum_pos is exactly 0 at any N and S is
  // constant (-Z/P).
  const double p = static_cast<double>(profile.pairs);
  if (profile.sup_pos == 0) {
    const double s = -static_cast<double>(profile.sup_zero) / p;
    return kept ? (s >= threshold) : (s < threshold);
  }

  const double k = static_cast<double>(profile.sup_pos);
  const double z = static_cast<double>(profile.sup_zero);
  double bound;
  if (grew) {
    // Upper bound for S(n_now): rho at c = min(b_max, n_eval - 1) is the
    // smallest ratio any positive pair can shrink its (NPMI - 1) gap by.
    const double c = static_cast<double>(
        std::min<uint32_t>(profile.b_max, profile.n_eval - 1));
    const double denom = std::log(static_cast<double>(n_now) / c);
    if (!(denom > 0.0)) return false;
    const double rho = std::log(static_cast<double>(n_eval) / c) / denom;
    bound = (k + rho * (profile.sum_pos - k) - z) / p;
    // Rejected column stays rejected if even the optimistic score misses.
    return bound < threshold;
  }
  // Shrink: lower bound for S(n_now); rho at c = b_max is the largest
  // ratio any positive pair's gap can grow by. Requires b_max < n_now, or
  // the log flips sign (a pair's c_uv could equal the shrunken N and pin
  // its NPMI at 1 — cheap to just re-evaluate).
  const double c = static_cast<double>(profile.b_max);
  if (c >= static_cast<double>(n_now)) return false;
  const double denom = std::log(static_cast<double>(n_now) / c);
  if (!(denom > 0.0)) return false;
  const double rho = std::log(static_cast<double>(n_eval) / c) / denom;
  bound = (k + rho * (profile.sum_pos - k) - z) / p;
  // Kept column stays kept if even the pessimistic score clears the bar.
  return bound >= threshold;
}

}  // namespace ms
