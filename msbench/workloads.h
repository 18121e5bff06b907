// One benchmark run: set up, build, serve, mutate, save and restore one
// workload, check its outputs, and collect its metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Values recorded in msbench/expected.json: quality_f1 for every seed,
/// digests for some seeds. Every run also checks its post-schedule digest
/// against its own cold rebuild.
struct Expected {
  std::string build_digest;
  std::string final_digest;
  double quality_f1 = -1.0;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 5.0;  ///< measured serving window
  bool trace = false;
  std::string work_dir;  ///< corpus file, snapshot and trace land here
  Expected expected;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::string build_digest;
  std::string final_digest;
  double quality_f1 = 0.0;
};

RunReport RunWorkload(const RunConfig& config);

}  // namespace msbench
