// Google-benchmark micro-benchmarks for the performance-critical kernels:
// banded vs full vs bit-parallel Myers edit distance (short / long /
// mismatched lengths, one-shot and prebuilt-pattern), NPMI lookups,
// blocking, pair scoring, greedy partitioning, conflict resolution, bloom
// probes, and mapping-store lookups.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "apps/mapping_store.h"
#include "common/bloom_filter.h"
#include "common/random.h"
#include "persist/corpus_store.h"
#include "stats/npmi.h"
#include "synth/blocking.h"
#include "synth/compatibility.h"
#include "synth/conflict_resolution.h"
#include "synth/partitioner.h"
#include "table/corpus.h"
#include "text/edit_distance.h"
#include "text/myers.h"

#ifndef MS_PERSIST_SCRATCH_DIR
#define MS_PERSIST_SCRATCH_DIR "."
#endif

namespace ms {
namespace {

std::string RandomString(Rng& rng, size_t len) {
  std::string s;
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng.Uniform(26));
  }
  return s;
}

void BM_EditDistanceFull(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(rng, len), b = RandomString(rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistanceFull(a, b));
  }
}
BENCHMARK(BM_EditDistanceFull)->Arg(8)->Arg(32)->Arg(128);

void BM_EditDistanceBanded(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(rng, len), b = a;
  b[len / 2] = '!';  // distance 1, well within the band
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistanceBanded(a, b, 3));
  }
}
BENCHMARK(BM_EditDistanceBanded)->Arg(8)->Arg(32)->Arg(128);

void BM_ApproxMatch(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::string> values;
  for (int i = 0; i < 64; ++i) values.push_back(RandomString(rng, 12));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ApproxMatch(values[i % 64], values[(i + 1) % 64]));
    ++i;
  }
}
BENCHMARK(BM_ApproxMatch);

// ------------------------------------------------------- scalar vs Myers
// Same inputs as BM_EditDistanceBanded (short / long / 64-boundary) so the
// scalar-banded vs bit-parallel comparison is direct.

void BM_Myers64OneShot(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(rng, len), b = a;
  b[len / 2] = '!';
  for (auto _ : state) {
    benchmark::DoNotOptimize(Myers64(a, b));
  }
}
BENCHMARK(BM_Myers64OneShot)->Arg(8)->Arg(32)->Arg(64);

void BM_MyersBlockedOneShot(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(rng, len), b = a;
  b[len / 2] = '!';
  for (auto _ : state) {
    benchmark::DoNotOptimize(MyersBlocked(a, b));
  }
}
BENCHMARK(BM_MyersBlockedOneShot)->Arg(128)->Arg(256);

// The batch case pair scoring actually hits: the pattern's bitmask table is
// prebuilt once and amortized over the candidate loop.
void BM_MyersPrebuiltPattern(benchmark::State& state) {
  Rng rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  std::string a = RandomString(rng, len), b = a;
  b[len / 2] = '!';
  MyersPattern p;
  BuildMyersPattern(a, &p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MyersDistance(p, b));
  }
}
BENCHMARK(BM_MyersPrebuiltPattern)->Arg(8)->Arg(32)->Arg(128);

// Mismatched lengths: the length-gap prefilter rejects before any kernel
// work, so the predicate should collapse to a subtraction.
void BM_ApproxMatchMismatchedLengths(benchmark::State& state) {
  Rng rng(2);
  EditDistanceOptions opts;
  std::string short_s = RandomString(rng, 8);
  std::string long_s = RandomString(rng, 120);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxMatch(short_s, long_s, opts));
  }
}
BENCHMARK(BM_ApproxMatchMismatchedLengths);

// ApproxMatch (Myers) against the scalar banded DP under the same
// fractional threshold (second arg 0), for tracking the predicate-level
// speedup on near-miss pairs (the common case in conflict counting: similar
// lengths, distance just over θ).
void BM_ApproxMatchVsBanded(benchmark::State& state) {
  Rng rng(2);
  EditDistanceOptions opts;
  const bool myers = state.range(1) != 0;
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<std::string> values;
  for (int i = 0; i < 64; ++i) values.push_back(RandomString(rng, len));
  size_t i = 0;
  for (auto _ : state) {
    const std::string& a = values[i % 64];
    const std::string& b = values[(i + 1) % 64];
    if (myers) {
      benchmark::DoNotOptimize(ApproxMatch(a, b, opts));
    } else {
      const size_t band = FractionalThreshold(a, b, opts);
      benchmark::DoNotOptimize(EditDistanceBanded(a, b, band) <= band);
    }
    ++i;
  }
}
BENCHMARK(BM_ApproxMatchVsBanded)
    ->Args({12, 0})
    ->Args({12, 1})
    ->Args({28, 0})
    ->Args({28, 1})
    ->Args({90, 0})
    ->Args({90, 1});

// The full scoring kernel through the batch matcher (mask cache warm), the
// configuration session scoring runs per chunk.
void BM_BatchMatcherScoring(benchmark::State& state) {
  auto pool = std::make_shared<StringPool>();
  Rng rng(11);
  std::vector<ValueId> ids;
  for (int i = 0; i < 256; ++i) {
    ids.push_back(pool->Intern(RandomString(rng, 6 + rng.Uniform(24))));
  }
  EditDistanceOptions opts;
  BatchApproxMatcher matcher(*pool, opts, /*approximate_matching=*/true,
                             nullptr);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.Match(ids[i % 256], ids[(i + 1) % 256]));
    ++i;
  }
}
BENCHMARK(BM_BatchMatcherScoring);

struct ScoringWorld {
  std::shared_ptr<StringPool> pool = std::make_shared<StringPool>();
  std::vector<BinaryTable> candidates;

  explicit ScoringWorld(size_t n_tables, size_t rows = 16) {
    Rng rng(3);
    for (size_t t = 0; t < n_tables; ++t) {
      std::vector<ValuePair> pairs;
      for (size_t r = 0; r < rows; ++r) {
        // ~50 shared keys so blocking has real work.
        pairs.push_back(
            {pool->Intern("key" + std::to_string(rng.Uniform(50))),
             pool->Intern("val" + std::to_string(rng.Uniform(20)))});
      }
      BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
      b.id = static_cast<BinaryTableId>(t);
      candidates.push_back(std::move(b));
    }
  }
};

/// Web-shaped blocking world: value popularity is skewed (a few hot keys
/// with truncation-length posting lists, a long thin tail) and the key
/// space grows with the table count, like a real extracted-candidate set.
/// ScoringWorld above is deliberately dense (nearly all pairs overlap) —
/// that shape is right for scoring benchmarks but degenerate for blocking.
std::vector<BinaryTable> BlockingWorld(size_t n_tables) {
  Rng rng(7);
  auto pool = std::make_shared<StringPool>();
  const uint32_t key_space = static_cast<uint32_t>(n_tables * 2);
  std::vector<BinaryTable> candidates;
  for (size_t t = 0; t < n_tables; ++t) {
    std::vector<ValuePair> pairs;
    for (size_t r = 0; r < 10; ++r) {
      const double p = rng.UniformDouble();
      uint32_t k;
      if (p < 0.1) {
        k = static_cast<uint32_t>(rng.Uniform(8));
      } else if (p < 0.4) {
        k = 8 + static_cast<uint32_t>(rng.Uniform(key_space / 100 + 1));
      } else {
        k = 8 + key_space / 100 + 1 +
            static_cast<uint32_t>(rng.Uniform(key_space));
      }
      pairs.push_back({k, static_cast<ValueId>(rng.Uniform(2000))});
    }
    BinaryTable b = BinaryTable::FromPairs(std::move(pairs));
    b.id = static_cast<BinaryTableId>(t);
    candidates.push_back(std::move(b));
  }
  return candidates;
}

void BM_Blocking(benchmark::State& state) {
  auto candidates = BlockingWorld(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidatePairs(candidates, {}));
  }
}
BENCHMARK(BM_Blocking)->Arg(1024)->Arg(8192)->Arg(32768);

// Subset() guards its documented cost contract: O(kept cells) with the
// string pool shared, never a deep copy of the pool's bytes (see
// table/corpus.h). Ablation sweeps call it once per corpus-fraction point.
void BM_CorpusSubset(benchmark::State& state) {
  TableCorpus corpus;
  Rng rng(11);
  for (size_t t = 0; t < static_cast<size_t>(state.range(0)); ++t) {
    std::vector<std::string> lcol, rcol;
    for (size_t r = 0; r < 12; ++r) {
      lcol.push_back("name " + std::to_string(rng.Uniform(4000)));
      rcol.push_back("code" + std::to_string(rng.Uniform(500)));
    }
    corpus.AddFromStrings("d" + std::to_string(t % 32), TableSource::kWeb,
                          {"name", "code"}, {lcol, rcol});
  }
  for (auto _ : state) {
    TableCorpus half = corpus.Subset(0.5);
    benchmark::DoNotOptimize(half.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.size() / 2));
}
BENCHMARK(BM_CorpusSubset)->Arg(1024)->Arg(8192);

// Seed emit-then-count blocking, kept for speedup tracking against
// BM_Blocking (same worlds, same options).
void BM_BlockingReference(benchmark::State& state) {
  auto candidates = BlockingWorld(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCandidatePairsReference(candidates, {}));
  }
}
BENCHMARK(BM_BlockingReference)->Arg(1024)->Arg(8192)->Arg(32768);

void BM_PairScoring(benchmark::State& state) {
  ScoringWorld world(64);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = world.candidates[i % 64];
    const auto& b = world.candidates[(i + 7) % 64];
    benchmark::DoNotOptimize(ComputeCompatibility(a, b, *world.pool));
    ++i;
  }
}
BENCHMARK(BM_PairScoring);

void BM_GreedyPartition(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  CompatibilityGraph g(n);
  for (size_t e = 0; e < n * 4; ++e) {
    uint32_t u = static_cast<uint32_t>(rng.Uniform(n));
    uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
    if (u == v) continue;
    g.AddEdge(u, v, rng.UniformDouble(),
              rng.Bernoulli(0.2) ? -rng.UniformDouble() : 0.0);
  }
  g.Finalize();
  PartitionerOptions opts;
  opts.theta_edge = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyPartition(g, opts));
  }
}
BENCHMARK(BM_GreedyPartition)->Arg(128)->Arg(1024);

void BM_ConflictResolution(benchmark::State& state) {
  ScoringWorld world(24, 12);
  std::vector<const BinaryTable*> ptrs;
  for (const auto& c : world.candidates) ptrs.push_back(&c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ResolveConflicts(ptrs));
  }
}
BENCHMARK(BM_ConflictResolution);

void BM_BloomProbe(benchmark::State& state) {
  BloomFilter bf(10000, 0.01);
  Rng rng(5);
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back("entry" + std::to_string(i));
    bf.Add(keys.back());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.MayContain(keys[i % keys.size()]));
    ++i;
  }
}
BENCHMARK(BM_BloomProbe);

void BM_MappingStoreLookup(benchmark::State& state) {
  auto pool = std::make_shared<StringPool>();
  MappingStore store(pool);
  std::vector<ValuePair> pairs;
  for (int i = 0; i < 5000; ++i) {
    pairs.push_back({pool->Intern("left" + std::to_string(i)),
                     pool->Intern("right" + std::to_string(i))});
  }
  SynthesizedMapping m;
  m.merged = BinaryTable::FromPairs(std::move(pairs));
  store.Add(std::move(m), "bench");
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.LookupRight(0, "left" + std::to_string(i % 5000)));
    ++i;
  }
}
BENCHMARK(BM_MappingStoreLookup);

TableCorpus IndexBenchCorpus(size_t n_tables) {
  Rng rng(8);
  TableCorpus corpus;
  for (size_t t = 0; t < n_tables; ++t) {
    std::vector<std::string> cells;
    const size_t rows = 8 + rng.Uniform(10);
    for (size_t r = 0; r < rows; ++r) {
      cells.push_back("w" + std::to_string(rng.Uniform(n_tables * 4)));
    }
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {cells});
  }
  return corpus;
}

void BM_IndexBuildCsr(benchmark::State& state) {
  TableCorpus corpus = IndexBenchCorpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ColumnInvertedIndex index;
    index.Build(corpus);
    benchmark::DoNotOptimize(index.num_columns());
  }
}
BENCHMARK(BM_IndexBuildCsr)->Arg(1000)->Arg(10000);

// Seed vector<vector> build, for comparison with BM_IndexBuildCsr.
void BM_IndexBuildReference(benchmark::State& state) {
  TableCorpus corpus = IndexBenchCorpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ReferenceInvertedIndex index;
    index.Build(corpus);
    benchmark::DoNotOptimize(index.num_columns());
  }
}
BENCHMARK(BM_IndexBuildReference)->Arg(1000)->Arg(10000);

// Skewed-length posting intersection: exercises the galloping path.
void BM_CoOccurrenceSkewed(benchmark::State& state) {
  TableCorpus corpus;
  Rng rng(9);
  for (int t = 0; t < 4000; ++t) {
    std::vector<std::string> cells = {"hot"};
    if (rng.Bernoulli(0.01)) cells.push_back("rare");
    cells.push_back("w" + std::to_string(rng.Uniform(500)));
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {cells});
  }
  ColumnInvertedIndex index;
  index.Build(corpus);
  ValueId hot = corpus.pool().Find("hot");
  ValueId rare = corpus.pool().Find("rare");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.CoOccurrence(hot, rare));
  }
}
BENCHMARK(BM_CoOccurrenceSkewed);

// Corpus-store open time: lazy pool indexing (PR 5) defers the string -> id
// hash build, so id-only consumers (serving, snapshot-driven synthesis)
// open without it. The Eager variant forces the build with one Find(), i.e.
// the pre-PR-5 open cost shape.
TableCorpus StoreBenchCorpus(size_t tables) {
  TableCorpus corpus;
  Rng rng(11);
  for (size_t t = 0; t < tables; ++t) {
    std::vector<std::string> left, right;
    for (int r = 0; r < 10; ++r) {
      left.push_back("entity value " + std::to_string(rng.Uniform(20000)));
      right.push_back("c" + std::to_string(rng.Uniform(4000)));
    }
    corpus.AddFromStrings("d", TableSource::kWeb, {"a", "b"}, {left, right});
  }
  return corpus;
}

void BM_CorpusStoreOpenLazy(benchmark::State& state) {
  const std::string path =
      std::string(MS_PERSIST_SCRATCH_DIR) + "/bench_micro_open.mscorp";
  TableCorpus corpus = StoreBenchCorpus(static_cast<size_t>(state.range(0)));
  if (!persist::SaveCorpusStore(corpus, path).ok()) {
    state.SkipWithError("cannot write corpus store scratch file");
    return;
  }
  for (auto _ : state) {
    auto opened = persist::OpenCorpusStore(path);
    benchmark::DoNotOptimize(opened.value().pool().size());
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CorpusStoreOpenLazy)->Arg(2000)->Arg(20000);

void BM_CorpusStoreOpenEagerIndex(benchmark::State& state) {
  const std::string path =
      std::string(MS_PERSIST_SCRATCH_DIR) + "/bench_micro_open_eager.mscorp";
  TableCorpus corpus = StoreBenchCorpus(static_cast<size_t>(state.range(0)));
  if (!persist::SaveCorpusStore(corpus, path).ok()) {
    state.SkipWithError("cannot write corpus store scratch file");
    return;
  }
  for (auto _ : state) {
    auto opened = persist::OpenCorpusStore(path);
    // One string -> id lookup materializes the whole index: the old eager
    // open cost, now paid only by paths that actually intern or Find.
    benchmark::DoNotOptimize(opened.value().pool().Find("nope"));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_CorpusStoreOpenEagerIndex)->Arg(2000)->Arg(20000);

void BM_Npmi(benchmark::State& state) {
  TableCorpus corpus;
  Rng rng(6);
  for (int t = 0; t < 200; ++t) {
    std::vector<std::string> col;
    for (int r = 0; r < 10; ++r) {
      col.push_back("w" + std::to_string(rng.Uniform(100)));
    }
    corpus.AddFromStrings("d", TableSource::kWeb, {"c"}, {col});
  }
  ColumnInvertedIndex index;
  index.Build(corpus);
  size_t i = 0;
  for (auto _ : state) {
    ValueId u = corpus.pool().Find("w" + std::to_string(i % 100));
    ValueId v = corpus.pool().Find("w" + std::to_string((i + 13) % 100));
    benchmark::DoNotOptimize(Npmi(index, u, v));
    ++i;
  }
}
BENCHMARK(BM_Npmi);

}  // namespace
}  // namespace ms

BENCHMARK_MAIN();
