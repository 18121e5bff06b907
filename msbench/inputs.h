// Input generation for the workloads. Everything a run feeds the engine —
// corpora, mutation deltas, request lists and the ground-truth world — is
// built here, before any timing, from the workload name and the seed alone.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpusgen/generator.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace msbench {

/// The generator parameters of one workload; also written into the run's
/// trace header so a number can be traced back to its input shape.
struct Shape {
  std::string workload;
  size_t tables = 0;          ///< base corpus size
  std::string vocabulary;     ///< "flat skewed", "site-local"
  double coherence_threshold = 0.0;
  size_t synth_threads = 0;   ///< SynthesisOptions::num_threads
  std::string schedule;       ///< mutation kinds in schedule order
  size_t mutation_tables = 0; ///< tables per mutation
  bool reads_during_writes = false;
};

struct Mutation {
  enum class Kind { kAppend, kRemove, kReplace };
  Kind kind = Kind::kAppend;
  std::vector<uint32_t> removed;  ///< remove / replace
  ms::TableCorpus delta;          ///< append / replace
};

const char* KindName(Mutation::Kind kind);

struct FillRequest {
  std::vector<std::string> keys;
  std::vector<std::pair<size_t, std::string>> examples;
};

struct JoinRequest {
  std::vector<std::string> left;
  std::vector<std::string> right;
};

struct Inputs {
  Shape shape;
  ms::SynthesisOptions options;
  /// The base corpus, synthesized from a TSV file.
  ms::TableCorpus corpus;
  std::vector<Mutation> schedule;
  /// LookupBatch requests: 32 raw values drawn from one source column.
  std::vector<std::vector<std::string>> lookups;
  std::vector<std::vector<std::string>> corrections;
  std::vector<FillRequest> fills;
  std::vector<JoinRequest> joins;
};

/// Values per LookupBatch request.
inline constexpr size_t kLookupBatch = 32;

/// Builds the named workload's inputs from `seed`. Unknown names return
/// nullptr.
std::unique_ptr<Inputs> MakeInputs(const std::string& workload,
                                   uint64_t seed);

/// The paper's standard web world (GenerateWebWorld, generator seed 42) at
/// popularity scale 0.5, whose benchmark cases carry exact ground truth:
/// every workload scores quality_f1 on it. It does not depend on the run's
/// seed, so quality_f1 is checked against one recorded value; generated
/// worlds differ by seed in size and in quality.
std::unique_ptr<ms::GeneratedWorld> MakeQualityWorld();

}  // namespace msbench
