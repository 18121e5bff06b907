// Figure 8 reproduction: wall-clock runtime of every method on the same web
// corpus. Expected shape: KB lookups fastest; single-table / union scans
// cheap; Synthesis mid-pack (dominated by pair scoring + partitioning);
// Correlation slowest among the graph methods (iterative pivot rounds).
#include <iostream>

#include "bench_util.h"
#include "eval/suite.h"

int main() {
  using namespace ms;
  GeneratedWorld world = bench::StandardWebWorld();
  bench::PrintWorldSummary(world);

  SuiteResult suite = RunMethodSuite(world, {});

  PrintBanner(std::cout, "Figure 8: runtime per method (seconds)");
  TextTable table({"method", "runtime (s)", "relations produced"});
  for (const auto& e : suite.entries) {
    table.AddRow({e.output.method_name,
                  bench::F(e.output.runtime_seconds, 2),
                  std::to_string(e.output.relations.size())});
  }
  table.Print(std::cout);

  // Step-level breakdown for Synthesis (Section 5.3 discussion: table
  // synthesis dominates).
  SynthesisResult r = bench::Synthesize(SynthesisOptions{}, world.corpus);
  PrintBanner(std::cout, "Synthesis step breakdown (seconds)");
  TextTable steps({"step", "seconds"});
  steps.AddRow({"index build", bench::F(r.stats.index_seconds, 3)});
  steps.AddRow({"candidate extraction", bench::F(r.stats.extract_seconds, 3)});
  steps.AddRow({"blocking", bench::F(r.stats.blocking_seconds, 3)});
  steps.AddRow({"  blocking: key index build",
                bench::F(r.stats.blocking_map_shuffle_seconds, 3)});
  steps.AddRow({"  blocking: row count",
                bench::F(r.stats.blocking_count_seconds, 3)});
  steps.AddRow({"  blocking: splice",
                bench::F(r.stats.blocking_reduce_seconds, 3)});
  steps.AddRow({"pair scoring", bench::F(r.stats.scoring_seconds, 3)});
  const auto& sm = r.stats.scoring.matcher;
  steps.AddRow({"  scoring: myers64 kernel calls",
                std::to_string(sm.myers64_calls)});
  steps.AddRow({"  scoring: myers blocked calls",
                std::to_string(sm.myers_blocked_calls)});
  steps.AddRow({"  scoring: scalar fallback calls",
                std::to_string(sm.banded_calls)});
  steps.AddRow({"greedy partitioning", bench::F(r.stats.partition_seconds, 3)});
  steps.AddRow({"conflict resolution", bench::F(r.stats.resolve_seconds, 3)});
  steps.AddRow({"total", bench::F(r.stats.total_seconds, 3)});
  steps.Print(std::cout);
  std::cout << "blocking: " << r.stats.blocking_keys << " keys, "
            << r.stats.blocking_dropped_postings
            << " postings dropped by max_posting; normalize cache: "
            << r.stats.extraction.normalize_cache_hits << " hits / "
            << r.stats.extraction.normalize_cache_misses << " misses\n";
  std::cout << "scoring: " << sm.match_calls << " value-match calls, mask "
            << "cache " << sm.pattern_cache_hits << " hits / "
            << sm.pattern_cache_misses << " builds; blocking-count reuse "
            << "skipped " << r.stats.scoring.overlap_merges_skipped
            << " merges\n";
  return 0;
}
