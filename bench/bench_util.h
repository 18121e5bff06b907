// Shared plumbing for the benchmark binaries: the figure binaries' standard
// world and evaluation shortcuts, and the web-shaped world the acceptance
// gates and serving benches run on (vocabulary, skewed table generator,
// request stream), the artifact family a mutation gate carries, a
// pool-independent canonical form of a mapping set, a min-of-repeats timer
// and one JSON writer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/serving.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "corpusgen/generator.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace ms::bench {

/// The value of `r`, or exits non-zero naming `what`: a failed engine call
/// leaves nothing for a bench to measure.
template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::cerr << "FAIL: " << what << ": " << r.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(r).value();
}

inline void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::cerr << "FAIL: " << what << ": " << st.ToString() << "\n";
    std::exit(1);
  }
}

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
  return Must(session.Run(corpus), "synthesis");
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

// ------------------------------------------------ web-shaped gate world

/// Web-shaped string vocabulary: multi-word entity names with typo'd
/// variants (what approximate matching exists for), short codes that must
/// stay exact and, with `long_forms`, a sprinkle of > 64-byte names for the
/// blocked Myers kernel. Leaving the long forms out consumes the same
/// random draws, so both shapes come from one seed stream.
struct Vocab {
  std::vector<std::string> lefts;
  std::vector<std::string> rights;

  Vocab(size_t n_lefts, size_t n_rights, Rng& rng, bool long_forms = true) {
    const char* first[] = {"united", "republic", "southern", "new", "grand",
                           "upper", "saint", "north", "royal", "east"};
    const char* second[] = {"province", "island", "territory", "state",
                            "district", "region", "county", "kingdom",
                            "federation", "commonwealth"};
    for (size_t i = 0; i < n_lefts; ++i) {
      std::string s = std::string(first[rng.Uniform(10)]) + " " +
                      second[rng.Uniform(10)] + " " + std::to_string(i / 7);
      switch (rng.Uniform(8)) {
        case 0:  // typo variant: substitution
          s[rng.Uniform(s.size())] = static_cast<char>('a' + rng.Uniform(26));
          break;
        case 1:  // typo variant: trailing insertion
          s += static_cast<char>('a' + rng.Uniform(26));
          break;
        case 2:  // long form (> 64 bytes, blocked kernel)
          if (long_forms) {
            s += " of the greater unified historical administrative division";
          }
          break;
        default:
          break;
      }
      lefts.push_back(std::move(s));
    }
    for (size_t i = 0; i < n_rights; ++i) {
      rights.push_back("c" + std::to_string(i));
    }
  }
};

/// Options for the web-shaped world: single-domain, single-pair mappings
/// are kept, so every candidate the world yields reaches the output.
inline SynthesisOptions WorldOptions(
    double coherence_threshold = ExtractionOptions{}.coherence_threshold) {
  SynthesisOptions o;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.extraction.coherence_threshold = coherence_threshold;
  return o;
}

/// A popularity-skewed index in [0, space): 10% of draws hit 8 hot values,
/// 30% a warm band of `warm` values after them and the rest a uniform
/// tail. That is web-table value popularity: a few truncation-triggering
/// hot posting lists over a long thin tail. (Rng::Zipf is O(n) per draw,
/// far too slow for millions of cells.)
inline uint32_t SkewedIndex(Rng& rng, uint32_t space, uint32_t warm) {
  const double r = rng.UniformDouble();
  if (r < 0.10) return static_cast<uint32_t>(rng.Uniform(8));
  if (r < 0.40) return 8 + static_cast<uint32_t>(rng.Uniform(warm));
  return 8 + warm + static_cast<uint32_t>(rng.Uniform(space - 8 - warm));
}

/// SkewedIndex with a warm band of 1% of the space.
inline uint32_t SkewedIndex(Rng& rng, uint32_t space) {
  return SkewedIndex(rng, space, space / 100 + 1);
}

/// Vocabulary slices of a sharded corpus (see GrowCorpus).
constexpr size_t kShards = 64;

/// Appends `count` two-column (name, code) tables to `corpus`, continuing
/// `rng`'s stream: two corpora grown from equal seeds and equal cumulative
/// counts hold identical tables without sharing a pool. Names are distinct
/// within a table, so name -> code passes the θ-approximate FD check; the
/// first two rows share a code, so code -> name fails it and each table
/// yields exactly one candidate.
///
/// With `shard_block` > 0 the vocabulary splits into kShards disjoint
/// slices and table id picks one ((id / shard_block) % kShards), giving
/// consecutive tables the value locality of one crawled site.
inline void GrowCorpus(TableCorpus* corpus, size_t count, const Vocab& vocab,
                       Rng& rng, size_t shard_block = 0) {
  const size_t shards = shard_block > 0 ? kShards : 1;
  const uint32_t shard_l = static_cast<uint32_t>(vocab.lefts.size() / shards);
  const uint32_t shard_r = static_cast<uint32_t>(vocab.rights.size() / shards);
  std::vector<std::string> left_col, right_col;
  std::set<uint32_t> seen;
  for (size_t t = 0; t < count; ++t) {
    const size_t id = corpus->size();
    const uint32_t shard =
        shard_block > 0 ? static_cast<uint32_t>((id / shard_block) % kShards)
                        : 0;
    left_col.clear();
    right_col.clear();
    seen.clear();
    const size_t rows = 6 + rng.Uniform(8);
    while (left_col.size() < rows) {
      const uint32_t li = SkewedIndex(rng, shard_l);
      if (!seen.insert(li).second) continue;
      left_col.push_back(vocab.lefts[shard * shard_l + li]);
      right_col.push_back(
          vocab.rights[shard * shard_r + SkewedIndex(rng, shard_r)]);
    }
    right_col[1] = right_col[0];
    corpus->AddFromStrings("domain" + std::to_string(id % 64) + ".example",
                           TableSource::kWeb, {"name", "code"},
                           {left_col, right_col});
  }
}

/// Order- and pool-independent canonical form of a mapping set: one
/// "kept-table count|sorted pair strings" key per mapping. Results interned
/// into different pools (a cold rebuild, a restored snapshot, a maintained
/// family) compare by strings, not ids.
inline std::multiset<std::string> Canonical(const SynthesisResult& r,
                                            const StringPool& pool) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) {
    std::multiset<std::string> pairs;
    for (const auto& p : m.merged.pairs()) {
      pairs.insert(std::string(pool.Get(p.left)) + ":" +
                   std::string(pool.Get(p.right)));
    }
    std::string key = std::to_string(m.kept_tables.size()) + "|";
    for (const auto& p : pairs) key += p + ",";
    out.insert(std::move(key));
  }
  return out;
}

/// One session's staged artifacts, carried from mutation to mutation.
struct Family {
  CandidateSet candidates;
  BlockedPairs blocked;
  ScoredGraph scored;
  Partitions partitions;
  SynthesisResult result;
};

/// Runs the staged chain extract -> block -> score -> partition -> resolve.
inline Family ColdChain(SynthesisSession* session, const TableCorpus& corpus) {
  Family f;
  f.candidates = Must(session->ExtractCandidates(corpus), "ExtractCandidates");
  f.blocked = Must(session->BlockPairs(f.candidates), "BlockPairs");
  f.scored = Must(session->ScorePairs(f.candidates, f.blocked), "ScorePairs");
  f.partitions = Must(session->Partition(f.scored), "Partition");
  f.result = Must(session->Resolve(f.candidates, f.scored, f.partitions),
                  "Resolve");
  return f;
}

/// Makes a mutation's output the family the next mutation starts from.
inline void Adopt(Family* f, AppendedArtifacts&& a) {
  f->candidates = std::move(a.candidates);
  f->blocked = std::move(a.blocked);
  f->scored = std::move(a.scored);
  f->partitions = std::move(a.partitions);
  f->result = std::move(a.result);
}

/// The fastest of `repeats` timed runs of `fn`: scheduler noise only ever
/// adds time.
template <typename Fn>
double MinSeconds(int repeats, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.ElapsedSeconds());
  }
  return best;
}

// ----------------------------------------------- serving request stream

/// Values per LookupBatch request.
constexpr size_t kRequestBatch = 32;

/// Pre-generated request stream: batches of raw probe values (hits,
/// misses, typos, duplicates) plus one small column per batch for the app
/// entry points. Built once so timed loops measure the serving path, not
/// string construction.
struct RequestPool {
  std::vector<std::vector<std::string>> batches;
  std::vector<std::vector<std::string>> columns;
};

inline RequestPool BuildRequests(const ServingSnapshot& snap, Rng& rng,
                                 size_t n_batches) {
  std::vector<std::string> lefts;
  for (const auto& m : snap.result->mappings) {
    for (const auto& p : m.merged.pairs()) {
      lefts.emplace_back(snap.pool->Get(p.left));
    }
    if (lefts.size() > 50000) break;
  }
  RequestPool pool;
  pool.batches.reserve(n_batches);
  pool.columns.reserve(n_batches);
  for (size_t b = 0; b < n_batches; ++b) {
    std::vector<std::string> batch;
    batch.reserve(kRequestBatch);
    for (size_t k = 0; k < kRequestBatch; ++k) {
      const double roll = rng.UniformDouble();
      if (lefts.empty() || roll < 0.15) {
        batch.push_back("miss value " + std::to_string(rng.Uniform(10000)));
      } else {
        std::string v = lefts[rng.Uniform(lefts.size())];
        if (roll < 0.3 && !v.empty()) v[rng.Uniform(v.size())] = 'z';
        batch.push_back(std::move(v));
      }
    }
    // Duplicate a slice: serving columns repeat values, and the batch
    // dedup path should see its real shape.
    for (size_t k = kRequestBatch / 2; k + 1 < kRequestBatch; k += 3) {
      batch[k] = batch[k / 2];
    }
    std::vector<std::string> column(batch.begin(), batch.begin() + 12);
    pool.batches.push_back(std::move(batch));
    pool.columns.push_back(std::move(column));
  }
  return pool;
}

// ----------------------------------------------------------------- JSON

/// One JSON object with its fields in insertion order. Numbers print as
/// std::ostream prints them (integers exactly, doubles to six significant
/// digits); strings are labels written verbatim between quotes, so they
/// must hold no quote or backslash.
class JsonObject {
 public:
  template <typename T>
  JsonObject& Add(const std::string& key, const T& value) {
    std::ostringstream s;
    if constexpr (std::is_same_v<T, bool>) {
      s << (value ? "true" : "false");
    } else if constexpr (std::is_arithmetic_v<T>) {
      s << value;
    } else {
      s << '"' << value << '"';
    }
    fields_.emplace_back(key, s.str());
    return *this;
  }

  JsonObject& Add(const std::string& key, const JsonObject& child) {
    fields_.emplace_back(key, child.Text());
    return *this;
  }

  /// The object as text, nested objects indented two spaces per level.
  std::string Text() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += i == 0 ? "\n  \"" : ",\n  \"";
      out += fields_[i].first + "\": ";
      for (const char c : fields_[i].second) {
        out += c;
        if (c == '\n') out += "  ";
      }
    }
    return out + (fields_.empty() ? "}" : "\n}");
  }

  /// Writes Text() to `path`; false, with a message, when it cannot.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << Text() << "\n";
    if (!out) {
      std::cerr << "error: cannot write " << path << "\n";
      return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace ms::bench
