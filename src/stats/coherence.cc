#include "stats/coherence.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "stats/npmi.h"

namespace ms {
namespace {

/// Per-thread state of the counting kernel. `slots[c]` holds, for column c
/// (a ColumnId of the index, or a local id of a delta), the epoch of the
/// block pass that last wrote it (high 32 bits) and the mask of that
/// block's values seen in c so far (low 32 bits). Each block pass takes a
/// fresh epoch, so a slot from any earlier pass, column or index reads as
/// an empty mask and no pass clears the array; only a wrap of the epoch
/// does.
struct CoherenceScratch {
  std::vector<uint64_t> slots;
  uint32_t epoch = 0;
  std::vector<ValueId> sample;     ///< the column's sampled values
  std::vector<PostingsView> lists; ///< the list each sampled value walks
  std::vector<size_t> freq;        ///< |C(u)| per sampled value
  std::vector<uint32_t> counts;    ///< c_uv when the caller keeps none
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

/// The column's distinct values, ascending, into s.sample.
void DistinctValues(const std::vector<ValueId>& cells, CoherenceScratch& s) {
  std::vector<ValueId>& sample = s.sample;
  sample.assign(cells.begin(), cells.end());
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
}

/// The column's distinct values, and past max_sampled_values a seeded
/// shuffle's first max_sampled_values of them, into s.sample.
void SampleValues(const std::vector<ValueId>& cells,
                  const CoherenceOptions& opts, CoherenceScratch& s) {
  DistinctValues(cells, s);
  std::vector<ValueId>& sample = s.sample;
  if (sample.size() > opts.max_sampled_values) {
    Rng rng(opts.sample_seed);
    rng.Shuffle(sample);
    sample.resize(opts.max_sampled_values);
  }
}

/// Adds to `counts` (lower triangle over sample positions) the columns of
/// s.lists holding each pair, column c counting `weight(c)`, and returns
/// the entries walked. Values are taken in blocks of 32, one mask bit each.
/// A block's own lists are walked once, each entry first adding to the
/// count of every earlier value of the block already in that column and
/// then setting its own bit; the lists of every later value are then
/// walked read-only against those bits. Every pair (j, i) with j < i is so
/// counted exactly once, in the pass of the block holding j. Column ids
/// must lie below `slot_bound`.
template <typename Weight>
uint64_t CountCoOccurrences(CoherenceScratch& s, size_t slot_bound,
                            uint32_t* counts, Weight weight) {
  const size_t m = s.lists.size();
  if (s.slots.size() < slot_bound) s.slots.resize(slot_bound, 0);
  uint64_t walked = 0;
  // A lone value in the last block has no pair left to count.
  for (size_t b0 = 0; b0 + 1 < m; b0 += 32) {
    const size_t b1 = std::min(m, b0 + 32);
    const uint32_t epoch = NextEpoch(s);
    const uint64_t fresh = static_cast<uint64_t>(epoch) << 32;
    for (size_t r = b0; r < b1; ++r) {
      uint32_t* row = counts + TriangleRow(r) + b0;
      const uint64_t bit = uint64_t{1} << (r - b0);
      for (const ColumnId c : s.lists[r]) {
        uint64_t& slot = s.slots[c];
        const uint64_t live = (slot >> 32) == epoch ? slot : fresh;
        const uint32_t w = weight(c);
        for (uint32_t seen = static_cast<uint32_t>(live); seen != 0;
             seen &= seen - 1) {
          row[std::countr_zero(seen)] += w;
        }
        slot = live | bit;
      }
      walked += s.lists[r].size;
    }
    for (size_t r = b1; r < m; ++r) {
      uint32_t* row = counts + TriangleRow(r) + b0;
      for (const ColumnId c : s.lists[r]) {
        const uint64_t slot = s.slots[c];
        if ((slot >> 32) != epoch) continue;
        const uint32_t w = weight(c);
        for (uint32_t seen = static_cast<uint32_t>(slot); seen != 0;
             seen &= seen - 1) {
          row[std::countr_zero(seen)] += w;
        }
      }
      walked += s.lists[r].size;
    }
  }
  return walked;
}

/// S(C) of s.sample from its counts and s.freq at corpus size `n`, pairs
/// taken in (i, j) order; fills the profile's pair aggregates.
double ScoreSample(size_t n, const CoherenceScratch& s,
                   const uint32_t* counts, const CoherenceOptions& opts,
                   CoherenceProfile* profile) {
  const size_t m = s.sample.size();
  double sum = 0.0;
  double sum_pos = 0.0;
  size_t pairs = 0;
  uint32_t sup_pos = 0;
  uint32_t sup_zero = 0;
  uint32_t b_max = 0;
  for (size_t i = 0; i < m; ++i) {
    const size_t cu = s.freq[i];
    const bool i_supported = cu >= opts.min_value_support;
    for (size_t j = i + 1; j < m; ++j) {
      const size_t cv = s.freq[j];
      if (i_supported && cv >= opts.min_value_support) {
        // One count per pair feeds both the NPMI and the margin profile.
        const uint32_t c_uv = counts[TriangleRow(j) + i];
        const double npmi = NpmiFromCounts(n, cu, cv, c_uv);
        sum += npmi;
        if (c_uv > 0) {
          ++sup_pos;
          sum_pos += npmi;
          b_max = std::max(b_max, c_uv);
        } else {
          ++sup_zero;
        }
      }
      // Unsupported pairs contribute 0 (no evidence either way).
      ++pairs;
    }
  }
  const double score = pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
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

/// The index-independent scores: 0 for an empty sample, 1 for one value.
/// Returns false (and touches nothing) for a sample with pairs.
bool TrivialScore(size_t m, CoherenceProfile* profile, double* score) {
  if (m > 1) return false;
  *score = m == 0 ? 0.0 : 1.0;
  if (profile != nullptr) profile->score = *score;
  return true;
}

/// Counts into the caller's array when it keeps one, else into scratch.
uint32_t* CountsFor(CoherenceScratch& s, std::span<uint32_t> counts) {
  const size_t pairs = TriangleRow(s.sample.size());
  if (counts.empty()) {
    s.counts.resize(pairs);
    return s.counts.data();
  }
  assert(counts.size() == pairs);
  return counts.data();
}

void StartProfile(size_t n, CoherenceProfile* profile) {
  if (profile == nullptr) return;
  *profile = CoherenceProfile{};
  profile->n_eval = static_cast<uint32_t>(n);
}

}  // namespace

size_t SampledPairCount(const std::vector<ValueId>& cells,
                        const CoherenceOptions& opts) {
  // The sample's size needs no shuffle: which values it keeps does not
  // change how many.
  CoherenceScratch& s = Scratch();
  DistinctValues(cells, s);
  return TriangleRow(
      std::min<size_t>(s.sample.size(), opts.max_sampled_values));
}

double ColumnCoherence(const ColumnInvertedIndex& index,
                       const std::vector<ValueId>& cells,
                       const CoherenceOptions& opts,
                       CoherenceProfile* profile,
                       std::span<uint32_t> counts) {
  CoherenceScratch& s = Scratch();
  ++s.work.columns;
  StartProfile(index.num_columns(), profile);
  SampleValues(cells, opts, s);
  double score;
  if (TrivialScore(s.sample.size(), profile, &score)) return score;

  s.lists.clear();
  s.freq.clear();
  for (ValueId v : s.sample) {
    s.lists.push_back(index.Postings(v));
    s.freq.push_back(s.lists.back().size);
  }
  uint32_t* c = CountsFor(s, counts);
  std::fill(c, c + TriangleRow(s.sample.size()), 0);
  s.work.postings += CountCoOccurrences(s, index.column_id_bound(), c,
                                        [](ColumnId) { return 1u; });
  return ScoreSample(index.num_columns(), s, c, opts, profile);
}

void CoOccurrenceDelta::Build(
    const std::vector<const std::vector<ValueId>*>& appended,
    const std::vector<const std::vector<ValueId>*>& removed) {
  // (value, local column) for every distinct value of every column, then
  // one sort groups each value's columns in ascending local id.
  std::vector<std::pair<ValueId, ColumnId>> entries;
  std::vector<ValueId> distinct;
  ColumnId local = 0;
  for (const auto* columns : {&appended, &removed}) {
    for (const std::vector<ValueId>* cells : *columns) {
      distinct.assign(cells->begin(), cells->end());
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      for (ValueId v : distinct) entries.emplace_back(v, local);
      ++local;
    }
  }
  std::sort(entries.begin(), entries.end());
  num_appended_ = appended.size();
  num_columns_ = local;
  size_t values = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    values += i == 0 || entries[i].first != entries[i - 1].first;
  }
  lists_ = FlatMap64<uint64_t>(values);
  postings_.resize(entries.size());
  for (size_t i = 0; i < entries.size();) {
    const size_t begin = i;
    for (; i < entries.size() && entries[i].first == entries[begin].first;
         ++i) {
      postings_[i] = entries[i].second;
    }
    lists_[Key(entries[begin].first)] =
        (uint64_t{begin} << 32) | static_cast<uint64_t>(i - begin);
  }
}

PostingsView CoOccurrenceDelta::Postings(ValueId v) const {
  const uint64_t* list = lists_.Find(Key(v));
  if (list == nullptr) return {};
  return {postings_.data() + (*list >> 32),
          static_cast<size_t>(*list & 0xffffffffu)};
}

double ColumnCoherenceFromCounts(const ColumnInvertedIndex& index,
                                 const CoOccurrenceDelta& delta,
                                 const std::vector<ValueId>& cells,
                                 const CoherenceOptions& opts,
                                 std::span<const uint32_t> base_counts,
                                 std::span<uint32_t> counts,
                                 CoherenceProfile* profile) {
  CoherenceScratch& s = Scratch();
  SampleValues(cells, opts, s);
  const size_t pairs = TriangleRow(s.sample.size());
  if (base_counts.size() != pairs ||
      (!counts.empty() && counts.size() != pairs)) {
    // The cells sample another number of values than the slices hold, so
    // the counts were not taken on this column: score it in full instead,
    // and leave `counts` as it is.
    return ColumnCoherence(index, cells, opts, profile);
  }
  ++s.work.columns;
  StartProfile(index.num_columns(), profile);
  double score;
  if (TrivialScore(s.sample.size(), profile, &score)) return score;

  uint32_t* c = CountsFor(s, counts);
  if (c != base_counts.data()) {
    std::copy(base_counts.begin(), base_counts.end(), c);
  }
  s.lists.clear();
  s.freq.clear();
  for (ValueId v : s.sample) {
    s.lists.push_back(delta.Postings(v));
    s.freq.push_back(index.ColumnFrequency(v));
  }
  // Removed columns subtract one from each pair they hold; the true counts
  // are never negative, so modular uint32 arithmetic lands on them exactly.
  const size_t appended = delta.num_appended();
  s.work.postings += CountCoOccurrences(
      s, delta.num_columns(), c,
      [appended](ColumnId col) { return col < appended ? 1u : ~0u; });
  return ScoreSample(index.num_columns(), s, c, opts, profile);
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
