// Figure 10 + Figure 11 reproduction: the Enterprise corpus. Synthesis vs
// the single-table EntTable baseline on ~30 best-effort enterprise cases,
// plus printed example mappings (Figure 11). Expected shape: Synthesis
// substantially higher recall at comparable precision.
#include <iostream>

#include "bench_util.h"
#include "eval/suite.h"

int main() {
  using namespace ms;
  GeneratorOptions gen;
  gen.seed = 42;
  GeneratedWorld world = GenerateEnterpriseWorld(gen);
  bench::PrintWorldSummary(world);

  SuiteOptions opts;
  opts.enterprise = true;
  opts.run_knowledge_bases = false;  // KBs do not exist for intranet data
  opts.run_wise_integrator = false;
  opts.run_correlation = false;
  opts.run_union = false;
  SuiteResult suite = RunMethodSuite(world, opts);

  PrintBanner(std::cout, "Figure 10: Synthesis vs EntTable on Enterprise");
  TextTable table({"method", "AvgFscore", "AvgPrecision", "AvgRecall"});
  for (const auto& e : suite.entries) {
    if (e.output.method_name != "Synthesis" &&
        e.output.method_name != "EntTable") {
      continue;
    }
    const auto& a = e.evaluation.aggregate;
    table.AddRow({e.output.method_name, bench::F(a.avg_fscore),
                  bench::F(a.avg_precision), bench::F(a.avg_recall)});
  }
  table.Print(std::cout);

  // --- Figure 11: example synthesized enterprise mappings.
  PrintBanner(std::cout, "Figure 11: example enterprise mappings");
  SynthesisResult r = bench::Synthesize(SynthesisOptions{}, world.corpus);
  const StringPool& pool = world.corpus.pool();
  size_t shown = 0;
  for (const auto& m : r.mappings) {
    if (++shown > 6) break;
    std::cout << "(" << m.left_label << " -> " << m.right_label << "): ";
    size_t k = 0;
    for (const auto& p : m.merged.pairs()) {
      if (++k > 2) break;
      std::cout << "(" << pool.Get(p.left) << ", " << pool.Get(p.right)
                << ") ";
    }
    std::cout << "... [" << m.size() << " pairs, " << m.num_domains
              << " shares]\n";
  }
  return 0;
}
