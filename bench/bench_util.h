// Shared plumbing for the figure-reproduction benchmark binaries: standard
// world construction, evaluation shortcuts, and report formatting.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "corpusgen/generator.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "synth/session.h"

namespace ms::bench {

/// The standard web world used by Figures 7/8/14/15 (seed fixed so every
/// binary reports on the same corpus).
inline GeneratedWorld StandardWebWorld(double popularity_scale = 1.0,
                                       uint64_t seed = 42) {
  GeneratorOptions opts;
  opts.seed = seed;
  opts.popularity_scale = popularity_scale;
  return GenerateWebWorld(opts);
}

/// Runs the full synthesis chain through a fresh session. A failed run
/// makes every number the figure would print meaningless, so it exits
/// non-zero with the status.
inline SynthesisResult Synthesize(const SynthesisOptions& options,
                                  const TableCorpus& corpus) {
  SynthesisSession session(options);
  Result<SynthesisResult> r = session.Run(corpus);
  if (!r.ok()) {
    std::cerr << "synthesis failed: " << r.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(r).value();
}

/// Relations view over synthesized mappings.
inline std::vector<BinaryTable> Relations(
    const std::vector<SynthesizedMapping>& mappings) {
  std::vector<BinaryTable> out;
  out.reserve(mappings.size());
  for (const auto& m : mappings) out.push_back(m.merged);
  return out;
}

/// Per-case scores of a relation set against the world's benchmark.
inline std::vector<PrfScore> ScoreCases(
    const std::vector<BinaryTable>& relations, const GeneratedWorld& world) {
  std::vector<PrfScore> out;
  out.reserve(world.cases.size());
  for (const auto& c : world.cases) {
    out.push_back(FindBestRelation(relations, c.ground_truth).score);
  }
  return out;
}

inline std::string F(double v, int p = 3) { return FormatDouble(v, p); }

/// Prints the corpus header every figure binary leads with.
inline void PrintWorldSummary(const GeneratedWorld& world) {
  std::cout << "corpus: " << world.corpus.size() << " tables, "
            << world.corpus.TotalColumns() << " columns, "
            << world.cases.size() << " benchmark cases\n";
}

}  // namespace ms::bench
