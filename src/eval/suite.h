// The full method suite of Figure 7: runs Synthesis, its ablations, and all
// baselines on one generated world with per-method wall-clock timing. All
// graph-based methods (SchemaCC, SchemaPosCC, Correlation) consume the very
// same compatibility graph as Synthesis, matching the paper's setup.
#pragma once

#include <string>
#include <vector>

#include "corpusgen/generator.h"
#include "eval/runner.h"
#include "synth/session.h"

namespace ms {

struct SuiteOptions {
  SynthesisOptions synthesis;
  /// Thresholds swept for SchemaCC / SchemaPosCC (best result reported, as
  /// in the paper).
  std::vector<double> schema_cc_thresholds = {0.2, 0.4, 0.6, 0.8};
  /// Join thresholds swept for WiseIntegrator (best reported).
  std::vector<double> wise_thresholds = {0.55, 0.7, 0.85};
  bool run_correlation = true;
  bool run_wise_integrator = true;
  bool run_knowledge_bases = true;
  bool run_single_table = true;
  bool run_union = true;
  bool enterprise = false;  ///< EntTable instead of WikiTable/WebTable
};

/// Everything a quality/runtime figure needs for one method.
struct SuiteEntry {
  MethodOutput output;
  MethodEvaluation evaluation;
};

struct SuiteResult {
  std::vector<SuiteEntry> entries;   ///< ordered as in Figure 7
  ExtractionStats extraction_stats;
  size_t num_candidates = 0;
  size_t graph_edges = 0;
};

/// Runs every enabled method on `world` and evaluates it.
SuiteResult RunMethodSuite(const GeneratedWorld& world,
                           const SuiteOptions& options = {});

}  // namespace ms
