#include "stats/coherence.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "stats/npmi.h"

namespace ms {
namespace {

/// Per-thread state of the counting kernel. `slots[c]` holds, for ColumnId
/// c, the epoch of the block pass that last wrote it (high 32 bits) and the
/// mask of that block's values seen in c so far (low 32 bits). Each block
/// pass takes a fresh epoch, so a slot from any earlier pass, column or
/// index reads as an empty mask and no pass clears the array; only a wrap
/// of the epoch does.
struct CoherenceScratch {
  std::vector<uint64_t> slots;
  uint32_t epoch = 0;
  std::vector<ValueId> distinct;
  std::vector<size_t> freq;       ///< |C(u)| per sampled value
  std::vector<uint32_t> rank;     ///< position among the supported values
  std::vector<ValueId> supported; ///< supported values in sample order
  /// c_uv by supported rank, lower triangle: pair (i, j < i) at
  /// i * (i - 1) / 2 + j.
  std::vector<uint32_t> counts;
  CoherenceWork work;
};

CoherenceScratch& Scratch() {
  static thread_local CoherenceScratch scratch;
  return scratch;
}

uint32_t NextEpoch(CoherenceScratch& s) {
  if (++s.epoch == 0) {
    std::fill(s.slots.begin(), s.slots.end(), 0);
    s.epoch = 1;
  }
  return s.epoch;
}

size_t TriangleRow(size_t r) { return r * (r - 1) / 2; }

/// Fills s.counts with c_uv for every pair of s.supported and returns the
/// posting entries walked. Values are taken in blocks of 32, one mask bit
/// each. A block's own lists are walked once, each entry first adding one
/// to the count of every earlier value of the block already in that column
/// and then setting its own bit; the lists of every later value are then
/// walked read-only against those bits. Every pair (j, i) with j < i is so
/// counted exactly once, in the pass of the block holding j.
uint64_t CountCoOccurrences(const ColumnInvertedIndex& index,
                            CoherenceScratch& s) {
  const size_t m = s.supported.size();
  s.counts.assign(TriangleRow(m), 0);
  if (s.slots.size() < index.column_id_bound()) {
    s.slots.resize(index.column_id_bound(), 0);
  }
  uint64_t walked = 0;
  // A lone value in the last block has no pair left to count.
  for (size_t b0 = 0; b0 + 1 < m; b0 += 32) {
    const size_t b1 = std::min(m, b0 + 32);
    const uint32_t epoch = NextEpoch(s);
    const uint64_t fresh = static_cast<uint64_t>(epoch) << 32;
    for (size_t r = b0; r < b1; ++r) {
      uint32_t* row = s.counts.data() + TriangleRow(r) + b0;
      const uint64_t bit = uint64_t{1} << (r - b0);
      const PostingsView list = index.Postings(s.supported[r]);
      for (const ColumnId c : list) {
        uint64_t& slot = s.slots[c];
        const uint64_t live = (slot >> 32) == epoch ? slot : fresh;
        for (uint32_t seen = static_cast<uint32_t>(live); seen != 0;
             seen &= seen - 1) {
          ++row[std::countr_zero(seen)];
        }
        slot = live | bit;
      }
      walked += list.size;
    }
    for (size_t r = b1; r < m; ++r) {
      uint32_t* row = s.counts.data() + TriangleRow(r) + b0;
      const PostingsView list = index.Postings(s.supported[r]);
      for (const ColumnId c : list) {
        const uint64_t slot = s.slots[c];
        if ((slot >> 32) != epoch) continue;
        for (uint32_t seen = static_cast<uint32_t>(slot); seen != 0;
             seen &= seen - 1) {
          ++row[std::countr_zero(seen)];
        }
      }
      walked += list.size;
    }
  }
  return walked;
}

}  // namespace

double ColumnCoherence(const ColumnInvertedIndex& index,
                       const std::vector<ValueId>& cells,
                       const CoherenceOptions& opts,
                       CoherenceProfile* profile) {
  CoherenceScratch& s = Scratch();
  ++s.work.columns;
  if (profile != nullptr) {
    *profile = CoherenceProfile{};
    profile->n_eval = static_cast<uint32_t>(index.num_columns());
  }
  std::vector<ValueId>& distinct = s.distinct;
  distinct.assign(cells.begin(), cells.end());
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

  // Only pairs of supported values read c_uv; count them all in one pass.
  s.freq.resize(distinct.size());
  s.rank.resize(distinct.size());
  s.supported.clear();
  for (size_t i = 0; i < distinct.size(); ++i) {
    s.freq[i] = index.ColumnFrequency(distinct[i]);
    s.rank[i] = static_cast<uint32_t>(s.supported.size());
    if (s.freq[i] >= opts.min_value_support) {
      s.supported.push_back(distinct[i]);
    }
  }
  s.work.postings += CountCoOccurrences(index, s);

  double sum = 0.0;
  double sum_pos = 0.0;
  size_t pairs = 0;
  uint32_t sup_pos = 0;
  uint32_t sup_zero = 0;
  uint32_t b_max = 0;
  const size_t n = index.num_columns();
  for (size_t i = 0; i < distinct.size(); ++i) {
    const size_t cu = s.freq[i];
    const bool i_supported = cu >= opts.min_value_support;
    for (size_t j = i + 1; j < distinct.size(); ++j) {
      const size_t cv = s.freq[j];
      if (i_supported && cv >= opts.min_value_support) {
        // One count per pair feeds both the NPMI and the margin profile.
        const size_t c_uv = s.counts[TriangleRow(s.rank[j]) + s.rank[i]];
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

CoherenceWork ThreadCoherenceWork() { return Scratch().work; }

uint32_t ThreadCoherenceEpochForTesting() { return Scratch().epoch; }

void SetThreadCoherenceEpochForTesting(uint32_t epoch) {
  Scratch().epoch = epoch;
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
