// Section 5.4 reproduction: sensitivity of Synthesis to its parameters —
// θ (approximate-FD threshold), τ (negative hard constraint), θ_overlap
// (blocking), θ_edge (positive-edge floor) — plus the approximate-string-
// matching ablation (Example 8's motivation).
#include <iostream>

#include "bench_util.h"

int main() {
  using namespace ms;
  GeneratedWorld world = bench::StandardWebWorld();
  bench::PrintWorldSummary(world);

  auto score = [&](const SynthesisOptions& o) {
    SynthesisResult r = bench::Synthesize(o, world.corpus);
    auto per_case = bench::ScoreCases(bench::Relations(r.mappings), world);
    double f = 0;
    for (const auto& s : per_case) f += s.fscore;
    struct Row {
      double avg_f;
      size_t mappings;
      size_t edges;
      double seconds;
    };
    return Row{f / static_cast<double>(per_case.size()), r.stats.mappings,
               r.stats.graph_edges, r.stats.total_seconds};
  };

  {
    PrintBanner(std::cout, "θ (approximate-FD threshold; paper: 95%)");
    TextTable t({"theta", "AvgFscore", "mappings"});
    for (double theta : {0.90, 0.93, 0.95, 0.97, 1.0}) {
      SynthesisOptions o;
      o.extraction.fd_theta = theta;
      auto r = score(o);
      t.AddRow({bench::F(theta, 2), bench::F(r.avg_f),
                std::to_string(r.mappings)});
    }
    t.Print(std::cout);
  }

  {
    PrintBanner(std::cout, "τ (negative hard-constraint threshold)");
    TextTable t({"tau", "AvgFscore", "mappings"});
    for (double tau : {-0.02, -0.05, -0.1, -0.2, -0.4}) {
      SynthesisOptions o;
      o.partitioner.tau = tau;
      auto r = score(o);
      t.AddRow({bench::F(tau, 2), bench::F(r.avg_f),
                std::to_string(r.mappings)});
    }
    t.Print(std::cout);
  }

  {
    PrintBanner(std::cout, "θ_overlap (blocking threshold; efficiency knob)");
    TextTable t({"theta_overlap", "AvgFscore", "edges", "seconds"});
    for (size_t ov : {1, 2, 3, 5}) {
      SynthesisOptions o;
      o.blocking.theta_overlap = ov;
      auto r = score(o);
      t.AddRow({std::to_string(ov), bench::F(r.avg_f),
                std::to_string(r.edges), bench::F(r.seconds, 2)});
    }
    t.Print(std::cout);
  }

  {
    PrintBanner(std::cout, "θ_edge (positive-edge floor)");
    TextTable t({"theta_edge", "AvgFscore", "mappings"});
    for (double te : {0.2, 0.35, 0.5, 0.7, 0.85}) {
      SynthesisOptions o;
      o.partitioner.theta_edge = te;
      auto r = score(o);
      t.AddRow({bench::F(te, 2), bench::F(r.avg_f),
                std::to_string(r.mappings)});
    }
    t.Print(std::cout);
  }

  {
    PrintBanner(std::cout, "approximate string matching ablation");
    TextTable t({"matching", "AvgFscore", "mappings"});
    for (bool approx : {true, false}) {
      SynthesisOptions o;
      o.compat.approximate_matching = approx;
      auto r = score(o);
      t.AddRow({approx ? "banded edit distance" : "exact only",
                bench::F(r.avg_f), std::to_string(r.mappings)});
    }
    t.Print(std::cout);
  }
  return 0;
}
