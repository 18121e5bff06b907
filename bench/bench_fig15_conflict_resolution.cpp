// Figure 15 + Section 5.6 reproduction: the effect of conflict resolution.
// Reports per-case F with and without Algorithm 4, the precision/recall
// deltas (paper: precision 0.903 -> 0.965, recall 0.885 -> 0.878), the
// number of improved cases (48/80 in the paper), and the comparison with
// majority voting.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_util.h"

int main() {
  using namespace ms;
  GeneratedWorld world = bench::StandardWebWorld();
  bench::PrintWorldSummary(world);

  auto run = [&](bool resolve, bool majority) {
    SynthesisOptions o;
    o.resolve_conflicts = resolve;
    o.use_majority_voting = majority;
    return bench::ScoreCases(
        bench::Relations(bench::Synthesize(o, world.corpus).mappings), world);
  };

  auto with_cr = run(true, false);
  auto without_cr = run(false, false);
  auto majority = run(false, true);

  auto avg = [](const std::vector<PrfScore>& v, auto field) {
    double s = 0;
    for (const auto& x : v) s += x.*field;
    return s / static_cast<double>(v.size());
  };

  PrintBanner(std::cout, "Section 5.6: conflict resolution effect");
  TextTable table({"variant", "AvgFscore", "AvgPrecision", "AvgRecall"});
  table.AddRow({"Synthesis (Algorithm 4)",
                bench::F(avg(with_cr, &PrfScore::fscore)),
                bench::F(avg(with_cr, &PrfScore::precision)),
                bench::F(avg(with_cr, &PrfScore::recall))});
  table.AddRow({"W/O resolution", bench::F(avg(without_cr, &PrfScore::fscore)),
                bench::F(avg(without_cr, &PrfScore::precision)),
                bench::F(avg(without_cr, &PrfScore::recall))});
  table.AddRow({"Majority voting", bench::F(avg(majority, &PrfScore::fscore)),
                bench::F(avg(majority, &PrfScore::precision)),
                bench::F(avg(majority, &PrfScore::recall))});
  table.Print(std::cout);

  size_t improved = 0, hurt = 0;
  for (size_t i = 0; i < with_cr.size(); ++i) {
    if (with_cr[i].fscore > without_cr[i].fscore + 1e-9) ++improved;
    if (with_cr[i].fscore < without_cr[i].fscore - 1e-9) ++hurt;
  }
  std::cout << "\nconflict resolution improves " << improved << "/"
            << with_cr.size() << " cases, hurts " << hurt << "\n";

  // --- Figure 15: per-case f with vs without, sorted by the with-CR run.
  PrintBanner(std::cout, "Figure 15: per-case f-score with/without resolution");
  std::vector<size_t> order(world.cases.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return with_cr[a].fscore > with_cr[b].fscore;
  });
  TextTable percase({"case", "name", "Synthesis", "W/O Resolution"});
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const size_t ci = order[rank];
    percase.AddRow({std::to_string(rank + 1), world.cases[ci].name,
                    bench::F(with_cr[ci].fscore, 2),
                    bench::F(without_cr[ci].fscore, 2)});
  }
  percase.Print(std::cout);
  return 0;
}
