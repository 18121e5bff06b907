// Figure 9 reproduction: Synthesis runtime vs input size ({20..100}% of the
// corpus). Expected shape: close to linear growth thanks to edge sparsity
// from blocking (Section 5.3).
#include <iostream>

#include "bench_util.h"

int main() {
  using namespace ms;
  // A larger corpus makes the trend readable.
  GeneratedWorld world = bench::StandardWebWorld(/*popularity_scale=*/1.5);
  bench::PrintWorldSummary(world);

  PrintBanner(std::cout, "Figure 9: runtime vs fraction of input tables");
  TextTable table({"input %", "tables", "candidates", "edges", "runtime (s)",
                   "mappings"});
  for (double frac : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    TableCorpus subset = world.corpus.Subset(frac);
    SynthesisResult r = bench::Synthesize(SynthesisOptions{}, subset);
    table.AddRow({std::to_string(static_cast<int>(frac * 100)),
                  std::to_string(subset.size()),
                  std::to_string(r.stats.candidates),
                  std::to_string(r.stats.graph_edges),
                  bench::F(r.stats.total_seconds, 2),
                  std::to_string(r.stats.mappings)});
  }
  table.Print(std::cout);
  return 0;
}
