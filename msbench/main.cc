// msbench: the repository's end-to-end benchmark. One invocation runs one
// workload once and prints, as its last line, a JSON object with the
// correctness verdict, the attempted and failed operation counts, and the
// metrics — end-to-end with --trace 0, per layer with --trace 1.
//
//   msbench --workload flat|churn --seed N --seconds S --trace 0|1
//           --work-dir DIR [--expect-build D --expect-final D --expect-f1 F]
//
// msbench/run.py builds this binary and supplies the work directory and the
// values recorded in msbench/expected.json.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "msbench: %s\nusage: msbench --workload flat|churn --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--expect-build D "
               "--expect-final D --expect-f1 F]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  msbench::RunConfig cfg;
  bool have_workload = false, have_seed = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(cfg.seconds > 0.0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
      have_dir = true;
    } else if (flag == "--expect-build") {
      cfg.expected.build_digest = value;
    } else if (flag == "--expect-final") {
      cfg.expected.final_digest = value;
    } else if (flag == "--expect-f1") {
      cfg.expected.quality_f1 = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_dir) {
    return Usage("--workload, --seed and --work-dir are required");
  }
  if (cfg.workload != "flat" && cfg.workload != "churn") {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }

  const msbench::RunReport r = msbench::RunWorkload(cfg);
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "msbench: CHECK FAILED: %s\n", p.c_str());
  }
  std::fprintf(stderr,
               "msbench: %s seed %llu build_digest %s final_digest %s "
               "quality_f1 %.6f\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               r.build_digest.c_str(), r.final_digest.c_str(), r.quality_f1);
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", r.metrics[i].value);
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
