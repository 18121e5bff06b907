// PR 2 acceptance benchmark: the pair-scoring stage (the pipeline's
// dominant cost) with the bit-parallel Myers fast path — batched pattern
// masks + blocking-count reuse — versus the seed scalar banded-DP scorer,
// at >= 100k-candidate scale. Results go to BENCH_PR2.json (or argv[2]):
//
//   ./bench/bench_pr2 [num_candidates] [output.json]
//
// Two correctness gates run before any speedup is reported and fail the
// binary at every scale:
//   1. every scored pair must produce byte-identical PairScores in both
//      modes (the fast path may never diverge from the scalar oracle), and
//   2. a randomized sweep of vocabulary string pairs must show the Myers
//      kernels agreeing exactly with the O(nm) EditDistanceFull oracle.
// The >= 2x speedup bar is enforced at acceptance scale (100k candidates).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "synth/blocking.h"
#include "synth/compatibility.h"
#include "table/binary_table.h"
#include "table/string_pool.h"
#include "text/edit_distance.h"
#include "text/myers.h"

namespace ms {
namespace {

constexpr int kRepeats = 3;

template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < kRepeats; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

/// Web-shaped string vocabulary: multi-word entity names with typo'd
/// variants (what approximate matching exists for), short codes that must
/// stay exact, and a sprinkle of > 64-byte strings for the blocked kernel.
struct Vocab {
  std::shared_ptr<StringPool> pool = std::make_shared<StringPool>();
  std::vector<ValueId> lefts;
  std::vector<ValueId> rights;
  std::vector<std::string> strings;  // for the edit-distance oracle sweep

  Vocab(size_t n_lefts, size_t n_rights, Rng& rng) {
    const char* first[] = {"united", "republic", "southern", "new", "grand",
                           "upper", "saint", "north", "royal", "east"};
    const char* second[] = {"province", "island", "territory", "state",
                            "district", "region", "county", "kingdom",
                            "federation", "commonwealth"};
    for (size_t i = 0; i < n_lefts; ++i) {
      std::string s = std::string(first[rng.Uniform(10)]) + " " +
                      second[rng.Uniform(10)] + " " +
                      std::to_string(i / 7);
      switch (rng.Uniform(8)) {
        case 0:  // typo variant: substitution
          s[rng.Uniform(s.size())] = static_cast<char>('a' + rng.Uniform(26));
          break;
        case 1:  // typo variant: trailing insertion
          s += static_cast<char>('a' + rng.Uniform(26));
          break;
        case 2:  // long form (> 64 bytes, blocked kernel)
          s += " of the greater unified historical administrative division";
          break;
        default:
          break;
      }
      lefts.push_back(pool->Intern(s));
      strings.push_back(std::move(s));
    }
    for (size_t i = 0; i < n_rights; ++i) {
      std::string s = "c" + std::to_string(i);
      rights.push_back(pool->Intern(s));
      strings.push_back(std::move(s));
    }
  }
};

/// Candidate tables sampling the vocabulary with popularity skew, the same
/// shape bench_pr1 uses for blocking — a few hot values, a long thin tail.
std::vector<BinaryTable> BuildCandidates(size_t n, const Vocab& vocab,
                                         Rng& rng) {
  const uint32_t nl = static_cast<uint32_t>(vocab.lefts.size());
  const uint32_t nr = static_cast<uint32_t>(vocab.rights.size());
  auto skewed = [&](uint32_t space) -> uint32_t {
    const double r = rng.UniformDouble();
    if (r < 0.10) return static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t warm = space / 100 + 1;
    if (r < 0.40) return 8 + static_cast<uint32_t>(rng.Uniform(warm));
    return 8 + warm + static_cast<uint32_t>(rng.Uniform(space - 8 - warm));
  };
  std::vector<BinaryTable> cands;
  cands.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<ValuePair> pairs;
    const size_t rows = 6 + rng.Uniform(8);
    pairs.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      pairs.push_back({vocab.lefts[skewed(nl)], vocab.rights[skewed(nr)]});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = static_cast<BinaryTableId>(t);
    cands.push_back(std::move(b));
  }
  return cands;
}

bool SameScores(const PairScores& x, const PairScores& y) {
  return x.overlap == y.overlap && x.conflicts == y.conflicts &&
         x.w_pos == y.w_pos && x.w_neg == y.w_neg;
}

}  // namespace
}  // namespace ms

int main(int argc, char** argv) {
  using namespace ms;
  const size_t n_candidates =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_PR2.json";

  Rng rng(4321);
  std::cout << "building vocabulary + " << n_candidates
            << " candidate tables...\n"
            << std::flush;
  Vocab vocab(30000, 4000, rng);
  auto candidates = BuildCandidates(n_candidates, vocab, rng);

  std::cout << "blocking...\n" << std::flush;
  BlockingOptions bopts;
  BlockingStats bstats;
  auto pairs = GenerateCandidatePairs(candidates, bopts, nullptr, &bstats);
  std::cout << "  " << pairs.size() << " candidate pairs to score ("
            << bstats.dropped_postings << " postings dropped, exact_counts="
            << bstats.exact_counts << ")\n";

  const StringPool& pool = *vocab.pool;

  // ---------------------------------------------------------- scalar oracle
  // ComputeCompatibilityReference matches values through the banded DP
  // itself, so both modes run under the same options.
  const CompatibilityOptions opts;

  std::cout << "pair scoring: seed scalar (banded DP, per-pair matching)"
            << "...\n"
            << std::flush;
  std::vector<PairScores> ref_scores(pairs.size());
  const double scalar_s = BestOf([&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      ref_scores[i] = ComputeCompatibilityReference(
          candidates[pairs[i].a], candidates[pairs[i].b], pool, opts);
    }
  });

  // ------------------------------------------------------------- fast path
  // The pipeline's chunked loop: one BatchApproxMatcher and PairScorer per
  // chunk so mask builds and table resolutions amortize, blocking hints
  // threaded through.
  std::vector<PairScores> fast_scores(pairs.size());
  ScoringStats sstats;
  const double fast_s = BestOf([&] {
    sstats = ScoringStats{};
    constexpr size_t kChunk = 256;
    for (size_t begin = 0; begin < pairs.size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, pairs.size());
      BatchApproxMatcher matcher(pool, opts.edit, opts.approximate_matching,
                                 opts.synonyms);
      PairScorer scorer(opts, &matcher);
      for (size_t i = begin; i < end; ++i) {
        const BlockingHint hint{pairs[i].shared_pairs, pairs[i].shared_lefts,
                                bstats.exact_counts};
        fast_scores[i] = scorer.Score(candidates[pairs[i].a],
                                      candidates[pairs[i].b], &hint, &sstats);
      }
      sstats.matcher.Add(matcher.stats());
    }
  });

  // ------------------------------------------------- divergence gates
  size_t score_divergence = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!SameScores(ref_scores[i], fast_scores[i])) ++score_divergence;
  }

  std::cout << "oracle sweep: Myers vs EditDistanceFull on vocabulary pairs"
            << "...\n"
            << std::flush;
  size_t oracle_divergence = 0;
  constexpr size_t kOracleSamples = 20000;
  Rng probe(7);
  for (size_t i = 0; i < kOracleSamples; ++i) {
    const std::string& a = probe.Pick(vocab.strings);
    const std::string& b = probe.Pick(vocab.strings);
    const size_t truth = EditDistanceFull(a, b);
    if (MyersBlocked(a, b) != truth) ++oracle_divergence;
    if (a.size() <= 64 && Myers64(a, b) != truth) ++oracle_divergence;
  }

  const double speedup = scalar_s / fast_s;
  const auto& m = sstats.matcher;
  std::cout << "  scalar " << scalar_s << "s, fast " << fast_s << "s  => "
            << speedup << "x over " << pairs.size() << " pairs\n"
            << "  score divergence " << score_divergence
            << ", oracle divergence " << oracle_divergence << " / "
            << kOracleSamples << " samples\n"
            << "  kernels: " << m.myers64_calls << " myers64, "
            << m.myers_blocked_calls << " blocked, " << m.banded_calls
            << " banded; mask cache " << m.pattern_cache_hits << " hits / "
            << m.pattern_cache_misses << " builds; reuse skipped "
            << sstats.overlap_merges_skipped << " merges\n";

  // ----------------------------------------------------------------- JSON
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n"
      << "  \"pr\": 2,\n"
      << "  \"bench\": \"bench_pr2 (bit-parallel Myers pair scoring)\",\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"pair_scoring\": {\n"
      << "    \"candidates\": " << candidates.size() << ",\n"
      << "    \"pairs_scored\": " << pairs.size() << ",\n"
      << "    \"scalar_seconds\": " << scalar_s << ",\n"
      << "    \"fast_seconds\": " << fast_s << ",\n"
      << "    \"speedup\": " << speedup << ",\n"
      << "    \"score_divergence\": " << score_divergence << ",\n"
      << "    \"myers64_calls\": " << m.myers64_calls << ",\n"
      << "    \"myers_blocked_calls\": " << m.myers_blocked_calls << ",\n"
      << "    \"banded_fallback_calls\": " << m.banded_calls << ",\n"
      << "    \"mask_cache_hits\": " << m.pattern_cache_hits << ",\n"
      << "    \"mask_cache_builds\": " << m.pattern_cache_misses << ",\n"
      << "    \"charmask_rejects\": " << m.charmask_rejects << ",\n"
      << "    \"overlap_merges_skipped\": " << sstats.overlap_merges_skipped
      << "\n"
      << "  },\n"
      << "  \"oracle_sweep\": {\n"
      << "    \"samples\": " << kOracleSamples << ",\n"
      << "    \"divergence\": " << oracle_divergence << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // Correctness gates hold at every scale; the speedup bar only means
  // anything at acceptance scale (small runs are fixed-cost dominated).
  if (score_divergence != 0 || oracle_divergence != 0) {
    std::cerr << "FAIL: fast path diverges from the scalar/full oracle\n";
    return 1;
  }
  constexpr size_t kAcceptanceScale = 100000;
  if (n_candidates >= kAcceptanceScale && speedup < 2.0) {
    std::cerr << "FAIL: pair-scoring speedup below 2x at acceptance scale\n";
    return 1;
  }
  return 0;
}
