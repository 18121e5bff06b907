// Human-readable mapping persistence: the curation handoff format, now
// owned by the persistence layer alongside the binary snapshot/store
// formats. A mapping file is what a human curator reviews and what the
// application layer ships with — the paper's "materialized as tables ...
// easy to index" story. Line-oriented TSV:
//
//   #mapping <left_label> <right_label> <num_domains> <kept> <members>
//   left<TAB>right
//   ...
//   (blank line)
//
// For machine-to-machine round trips (lineage ids, stats, checksums) use
// the binary snapshot (persist/artifact_codec.h) instead — TSV is lossy by
// design (table contents live in the corpus, not the mapping file).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "synth/mapping.h"
#include "table/string_pool.h"

namespace ms::persist {

Status WriteMappingsTsv(const std::vector<SynthesizedMapping>& mappings,
                        const StringPool& pool, std::ostream& out);

/// Reads mappings written by WriteMappingsTsv, interning values into
/// `pool`. Pair provenance ids are restored as counts only; table contents
/// are not (they live in the corpus, not the mapping file). Fails with
/// InvalidArgument on malformed lines, IOError when the stream cannot be
/// read; `mappings` keeps whatever parsed before the failure, so fail-closed
/// callers (MappingService::OpenFromMappingsFile) load into a scratch vector.
Status ReadMappingsTsv(std::istream& in, StringPool* pool,
                       std::vector<SynthesizedMapping>* mappings);

/// File-path conveniences: IO goes through `env` (nullptr = Env::Default())
/// so failures are injectable; IOError messages carry the path and errno.
Status SaveMappingsTsv(const std::vector<SynthesizedMapping>& mappings,
                       const StringPool& pool, const std::string& path,
                       Env* env = nullptr);
Status LoadMappingsTsv(const std::string& path, StringPool* pool,
                       std::vector<SynthesizedMapping>* mappings,
                       Env* env = nullptr);

}  // namespace ms::persist
