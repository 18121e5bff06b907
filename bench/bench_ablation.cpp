// Design-choice ablations beyond the paper's own figures (DESIGN.md §4):
//  1. Greedy Algorithm 3 vs the exact optimum of Problem 11 on small random
//     graphs — the empirical counterpart of the O(log N) approximation
//     discussion (Appendix C/D).
//  2. Redundant-cluster consolidation (Appendix K future work): how much
//     does the curation queue shrink, and does quality survive?
//  3. Temporal detection (Appendix J future work): are snapshot families
//     separable from code-system siblings?
#include <iostream>

#include "bench_util.h"
#include "common/random.h"
#include "synth/exact_partition.h"
#include "synth/redundancy.h"
#include "synth/temporal.h"

int main() {
  using namespace ms;

  // --- 1. Greedy vs exact on random graphs.
  PrintBanner(std::cout, "greedy Algorithm 3 vs exact optimum (Problem 11)");
  TextTable gvx({"vertices", "graphs", "avg ratio", "worst ratio",
                 "optimal found"});
  Rng rng(2017);
  for (size_t n : {6, 8, 10, 12}) {
    double ratio_sum = 0, worst = 1.0;
    size_t optimal = 0;
    const size_t trials = 40;
    for (size_t t = 0; t < trials; ++t) {
      CompatibilityGraph g(n);
      for (size_t e = 0; e < n * 2; ++e) {
        uint32_t u = static_cast<uint32_t>(rng.Uniform(n));
        uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
        if (u == v) continue;
        g.AddEdge(u, v, rng.UniformDouble(),
                  rng.Bernoulli(0.25) ? -rng.UniformDouble() : 0.0);
      }
      g.Finalize();
      PartitionerOptions opts;
      opts.theta_edge = 0.0;
      auto exact = ExactPartition(g, opts);
      auto greedy = GreedyPartition(g, opts);
      const double go = PartitionObjective(g, greedy, opts);
      const double ratio = exact.objective > 0 ? go / exact.objective : 1.0;
      ratio_sum += ratio;
      worst = std::min(worst, ratio);
      if (ratio > 1.0 - 1e-9) ++optimal;
    }
    gvx.AddRow({std::to_string(n), std::to_string(trials),
                bench::F(ratio_sum / trials), bench::F(worst),
                std::to_string(optimal) + "/" + std::to_string(trials)});
  }
  gvx.Print(std::cout);

  // --- 2 & 3 run on the real pipeline output.
  GeneratedWorld world = bench::StandardWebWorld();
  bench::PrintWorldSummary(world);
  SynthesisOptions opts;
  opts.min_domains = 1;  // keep fragments so consolidation has work to do
  opts.min_pairs = 2;
  SynthesisResult result = bench::Synthesize(opts, world.corpus);

  auto avg_f = [&](const std::vector<SynthesizedMapping>& ms) {
    auto per_case = bench::ScoreCases(bench::Relations(ms), world);
    double f = 0;
    for (const auto& s : per_case) f += s.fscore;
    return f / static_cast<double>(per_case.size());
  };

  PrintBanner(std::cout, "redundant-cluster consolidation (Appendix K)");
  const double f_before = avg_f(result.mappings);
  const size_t n_before = result.mappings.size();
  auto stats = ConsolidateRedundantMappings(&result.mappings,
                                            world.corpus.pool());
  const double f_after = avg_f(result.mappings);
  TextTable red({"", "clusters", "avg F"});
  red.AddRow({"before", std::to_string(n_before), bench::F(f_before)});
  red.AddRow({"after", std::to_string(stats.clusters_out),
              bench::F(f_after)});
  red.Print(std::cout);
  std::cout << stats.merges << " consolidations; curation queue shrank "
            << bench::F(100.0 * (1.0 - static_cast<double>(stats.clusters_out) /
                                           static_cast<double>(n_before)),
                        1)
            << "%\n";

  PrintBanner(std::cout, "temporal detection (Appendix J)");
  // Detection runs on the *curated* queue (popular clusters only): raw
  // synthesis fragments trivially chain into spurious snapshot groups.
  std::vector<SynthesizedMapping> curated;
  for (const auto& m : result.mappings) {
    if (m.num_domains >= 2 && m.size() >= 8) curated.push_back(m);
  }
  result.mappings = std::move(curated);
  auto temporal = DetectTemporalMappings(result.mappings,
                                         world.corpus.pool());
  std::cout << "snapshot groups found: " << temporal.groups.size()
            << ", clusters flagged temporal: " << temporal.flagged << "/"
            << result.mappings.size() << "\n";
  // Resolve each flagged cluster to its best benchmark case to see what
  // the detector actually catches. The known confounder — and the reason
  // the paper leaves this as future work — is that static sibling
  // code-system families (ISO/ISO2/IOC/FIFA over the same countries) are
  // structurally identical to temporal snapshot groups: same lefts,
  // conflicting rights, several clusters.
  size_t flagged_temporal_kind = 0, flagged_static_kind = 0,
         flagged_unmatched = 0;
  auto rels = bench::Relations(result.mappings);
  for (size_t i = 0; i < result.mappings.size(); ++i) {
    if (!temporal.is_temporal[i]) continue;
    int best_case = -1;
    double best_f = 0.2;  // ignore noise fragments
    for (size_t ci = 0; ci < world.cases.size(); ++ci) {
      PrfScore s = ScoreRelation(rels[i], world.cases[ci].ground_truth);
      if (s.fscore > best_f) {
        best_f = s.fscore;
        best_case = static_cast<int>(ci);
      }
    }
    if (best_case < 0) {
      ++flagged_unmatched;
    } else if (world.cases[best_case].kind == RelationKind::kTemporal) {
      ++flagged_temporal_kind;
    } else {
      ++flagged_static_kind;
    }
  }
  std::cout << "flagged clusters resolving to: temporal relations "
            << flagged_temporal_kind << ", static sibling code systems "
            << flagged_static_kind << " (the known confounder), fragments "
            << flagged_unmatched << "\n"
            << "(the corpus holds one single-season temporal relation, so "
               "true positives are structurally impossible here; the "
               "detector's value is surfacing *candidate* families for "
               "curator review — Appendix J future work)\n";
  return 0;
}
