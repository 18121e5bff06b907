#include "inputs.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/random.h"

namespace msbench {
namespace {

using ms::Rng;
using ms::TableCorpus;

// ------------------------------------------------------------ sizes
// `flat` must be large enough that coherence (not pair scoring) dominates a
// cold build: at 10k tables the two tie, from 15k up extraction leads.
constexpr size_t kFlatTables = 15000;
constexpr size_t kFlatRounds = 1;
// Flat mutations are 4% of the corpus: any coherence flip under
// posting-list truncation forces the full internal rebuild, and smaller
// deltas leave that to chance, which makes a one-op-per-kind median
// bimodal across seeds (a fast-path append takes half the time). At 1% one
// seed in six kept the fast path on its append, at 2% one in twenty; at 4%
// all 48 mutations of 16 probed seeds fell back.
constexpr size_t kFlatMutationTables = kFlatTables / 25;
// `churn` keeps the bench_pr10 64-shard shape at ~10k tables, where the
// margin cache holds and a 1% mutation runs the delta engine. A churn
// mutation costs 0.1-0.5 s and single ones vary by ~20%, so the schedule
// is long enough for its per-kind medians to hold steady across seeds.
constexpr size_t kChurnTables = 10000;
constexpr size_t kChurnRounds = 16;
constexpr size_t kShards = 64;

// Distinct requests per list. Every request reads the first kRequestRows
// rows of one source table, so requests cost alike and a run's medians do
// not hinge on which tables the seed picked.
constexpr size_t kLookupRequests = 1024;
constexpr size_t kAppRequests = 256;
constexpr size_t kRequestRows = 6;
// The quality world is the paper's standard one (bench/bench_util.h's
// StandardWebWorld seed) at half its popularity scale: 1179 tables build in
// ~2 s on one thread, against ~7.4 s for the full 2338-table world, which
// every run of every workload would pay.
constexpr uint64_t kQualityWorldSeed = 42;
constexpr double kQualityWorldScale = 0.5;

/// Web-shaped vocabulary shared by `flat` and `churn` (the bench_pr2..pr10
/// generator): multi-word entity names with typo'd variants, short codes,
/// and a sprinkle of > 64-byte names for the blocked Myers kernel.
struct Vocab {
  std::vector<std::string> lefts;
  std::vector<std::string> rights;

  Vocab(size_t n_lefts, size_t n_rights, Rng& rng) {
    const char* first[] = {"united", "republic", "southern", "new", "grand",
                           "upper", "saint", "north", "royal", "east"};
    const char* second[] = {"province", "island", "territory", "state",
                            "district", "region", "county", "kingdom",
                            "federation", "commonwealth"};
    for (size_t i = 0; i < n_lefts; ++i) {
      std::string s = std::string(first[rng.Uniform(10)]) + " " +
                      second[rng.Uniform(10)] + " " + std::to_string(i / 7);
      switch (rng.Uniform(8)) {
        case 0:
          s[rng.Uniform(s.size())] = static_cast<char>('a' + rng.Uniform(26));
          break;
        case 1:
          s += static_cast<char>('a' + rng.Uniform(26));
          break;
        case 2:
          s += " of the greater unified historical administrative division";
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

/// Popularity skew over an index space: a few hot values, a warm 1%, and a
/// long thin tail.
uint32_t Skewed(uint32_t space, Rng& rng) {
  const double r = rng.UniformDouble();
  if (r < 0.10) return static_cast<uint32_t>(rng.Uniform(8));
  const uint32_t warm = space / 100 + 1;
  if (r < 0.40) return 8 + static_cast<uint32_t>(rng.Uniform(warm));
  return 8 + warm + static_cast<uint32_t>(rng.Uniform(space - 8 - warm));
}

/// One two-column name -> code table. `shard_l`/`shard_r` select a slice
/// of the vocabulary (offset, size); the flat shape passes the whole of it.
void AddTable(TableCorpus* corpus, const Vocab& vocab, size_t id,
              uint32_t l_off, uint32_t l_size, uint32_t r_off,
              uint32_t r_size, Rng& rng) {
  std::vector<std::string> left_col, right_col;
  std::set<uint32_t> seen;
  const size_t rows = 6 + rng.Uniform(8);
  while (left_col.size() < rows) {
    // Distinct lefts per table so the approximate-FD check passes.
    const uint32_t li = Skewed(l_size, rng);
    if (!seen.insert(li).second) continue;
    left_col.push_back(vocab.lefts[l_off + li]);
    right_col.push_back(vocab.rights[r_off + Skewed(r_size, rng)]);
  }
  // Two lefts sharing one right make code -> name fail the FD check, so
  // each table yields exactly one candidate.
  right_col[1] = right_col[0];
  corpus->AddFromStrings("domain" + std::to_string(id % 64) + ".example",
                         ms::TableSource::kWeb, {"name", "code"},
                         {left_col, right_col});
}

/// Table generators keyed by the corpus id the table will occupy once
/// merged (the site-local shape picks its vocabulary shard from it).
struct FlatGen {
  const Vocab& vocab;
  void operator()(TableCorpus* c, size_t id, Rng& rng) const {
    AddTable(c, vocab, id, 0, static_cast<uint32_t>(vocab.lefts.size()), 0,
             static_cast<uint32_t>(vocab.rights.size()), rng);
  }
};

struct ShardGen {
  const Vocab& vocab;
  size_t block;  ///< consecutive ids per shard: the id space walks shards once
  void operator()(TableCorpus* c, size_t id, Rng& rng) const {
    const uint32_t sl = static_cast<uint32_t>(vocab.lefts.size() / kShards);
    const uint32_t sr = static_cast<uint32_t>(vocab.rights.size() / kShards);
    const uint32_t shard = static_cast<uint32_t>((id / block) % kShards);
    AddTable(c, vocab, id, shard * sl, sl, shard * sr, sr, rng);
  }
};

std::string Raw(const TableCorpus& corpus, ms::ValueId id) {
  return std::string(corpus.pool().Get(id));
}

/// kRequestRows row-aligned (left, right) values: what one request reads.
struct Rows {
  std::vector<std::string> lefts;
  std::vector<std::string> rights;
};

/// The first kRequestRows rows of a random two-column-or-wider table: a
/// user's spreadsheet column is a column some web table also holds.
std::function<Rows(Rng&)> TableRows(const TableCorpus& corpus) {
  std::vector<size_t> sources;
  for (size_t t = 0; t < corpus.size(); ++t) {
    const ms::Table& table = corpus.table(t);
    if (table.num_columns() >= 2 && table.num_rows() >= kRequestRows) {
      sources.push_back(t);
    }
  }
  return [&corpus, sources](Rng& rng) {
    const ms::Table& t = corpus.table(sources[rng.Uniform(sources.size())]);
    Rows rows;
    for (size_t r = 0; r < kRequestRows; ++r) {
      rows.lefts.push_back(Raw(corpus, t.columns[0].cells[r]));
      rows.rights.push_back(Raw(corpus, t.columns[1].cells[r]));
    }
    return rows;
  };
}

void MakeRequests(const std::function<Rows(Rng&)>& draw, Rng& rng,
                  Inputs* in) {
  for (size_t i = 0; i < kLookupRequests; ++i) {
    const Rows rows = draw(rng);
    std::vector<std::string> batch;
    for (size_t k = 0; k < kLookupBatch; ++k) {
      batch.push_back(rows.lefts[k % rows.lefts.size()]);
    }
    in->lookups.push_back(std::move(batch));
  }
  for (size_t i = 0; i < kAppRequests; ++i) {
    const Rows rows = draw(rng);
    // Auto-correct: a name column where two rows slipped into the code
    // representation.
    std::vector<std::string> mixed = rows.lefts;
    mixed[rng.Uniform(mixed.size())] = rows.rights[0];
    mixed[rng.Uniform(mixed.size())] = rows.rights[kRequestRows - 1];
    in->corrections.push_back(std::move(mixed));
    // Auto-fill: two worked examples, the rest to fill.
    FillRequest fill;
    fill.keys = rows.lefts;
    fill.examples = {{0, rows.rights[0]}, {1, rows.rights[1]}};
    in->fills.push_back(std::move(fill));
    // Auto-join: names against the same relation's codes, reordered.
    JoinRequest join;
    join.left = rows.lefts;
    join.right = rows.rights;
    rng.Shuffle(join.right);
    in->joins.push_back(std::move(join));
  }
}

using Kind = Mutation::Kind;

/// `rounds` repetitions of append, remove, replace.
std::vector<Kind> Rounds(size_t rounds) {
  std::vector<Kind> order;
  for (size_t r = 0; r < rounds; ++r) {
    order.insert(order.end(), {Kind::kAppend, Kind::kRemove, Kind::kReplace});
  }
  return order;
}

size_t Removals(const std::vector<Kind>& order) {
  return static_cast<size_t>(std::count_if(
      order.begin(), order.end(), [](Kind k) { return k != Kind::kAppend; }));
}

std::string Describe(const std::vector<Kind>& order) {
  std::string out;
  for (Kind k : order) out += std::string(out.empty() ? "" : ",") + KindName(k);
  return out;
}

/// Builds the mutation schedule in `order`: appends and replaces add
/// `per_mutation` generated tables at the corpus tail, removes and replaces
/// take the next of `removal_sets`.
template <typename Gen>
void MakeSchedule(const std::vector<Kind>& order, size_t per_mutation,
                  const std::vector<std::vector<uint32_t>>& removal_sets,
                  const Gen& gen, size_t base_tables, Rng& rng, Inputs* in) {
  size_t next_id = base_tables;
  size_t next_removal = 0;
  for (Kind kind : order) {
    Mutation m;
    m.kind = kind;
    if (kind != Kind::kAppend) m.removed = removal_sets[next_removal++];
    if (kind != Kind::kRemove) {
      for (size_t k = 0; k < per_mutation; ++k) gen(&m.delta, next_id++, rng);
    }
    in->schedule.push_back(std::move(m));
  }
  in->shape.schedule = Describe(order);
}

ms::SynthesisOptions CorpusOptions(double coherence) {
  ms::SynthesisOptions o;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.num_threads = 2;
  o.extraction.coherence_threshold = coherence;
  return o;
}

std::unique_ptr<Inputs> MakeFlat(uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->shape = {"flat", kFlatTables, "flat skewed (corpus-wide vocabulary)",
               0.10, 2, "", kFlatMutationTables, false};
  in->options = CorpusOptions(0.10);
  Rng rng(seed);
  const Vocab vocab(30000, 4000, rng);
  const FlatGen gen{vocab};
  for (size_t id = 0; id < kFlatTables; ++id) gen(&in->corpus, id, rng);
  // Removals hit random tables anywhere in the corpus, never twice.
  std::vector<uint32_t> ids(kFlatTables);
  for (uint32_t i = 0; i < kFlatTables; ++i) ids[i] = i;
  rng.Shuffle(ids);
  std::vector<std::vector<uint32_t>> removal_sets;
  const size_t per = in->shape.mutation_tables;
  const std::vector<Kind> order = Rounds(kFlatRounds);
  for (size_t s = 0; s < Removals(order); ++s) {
    std::vector<uint32_t> set(ids.begin() + s * per,
                              ids.begin() + (s + 1) * per);
    std::sort(set.begin(), set.end());
    removal_sets.push_back(std::move(set));
  }
  MakeSchedule(order, per, removal_sets, gen, kFlatTables, rng, in.get());
  MakeRequests(TableRows(in->corpus), rng, in.get());
  return in;
}

std::unique_ptr<Inputs> MakeChurn(uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->shape = {"churn", kChurnTables, "site-local (64 vocabulary shards)",
               0.05, 2, "", kChurnTables / 100, true};
  in->options = CorpusOptions(0.05);
  Rng rng(seed);
  const Vocab vocab(30000, 4000, rng);
  const ShardGen gen{vocab, kChurnTables / kShards};
  for (size_t id = 0; id < kChurnTables; ++id) gen(&in->corpus, id, rng);
  // Takedowns arrive site-clustered: each removal is a contiguous span of
  // base ids, spans pairwise disjoint.
  const size_t per = in->shape.mutation_tables;
  std::vector<size_t> slots(kChurnTables / per);
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  rng.Shuffle(slots);
  std::vector<std::vector<uint32_t>> removal_sets;
  const std::vector<Kind> order = Rounds(kChurnRounds);
  for (size_t s = 0; s < Removals(order); ++s) {
    std::vector<uint32_t> set;
    for (size_t k = 0; k < per; ++k) {
      set.push_back(static_cast<uint32_t>(slots[s] * per + k));
    }
    removal_sets.push_back(std::move(set));
  }
  MakeSchedule(order, per, removal_sets, gen, kChurnTables, rng, in.get());
  MakeRequests(TableRows(in->corpus), rng, in.get());
  return in;
}

}  // namespace

const char* KindName(Mutation::Kind kind) {
  switch (kind) {
    case Mutation::Kind::kAppend:
      return "append";
    case Mutation::Kind::kRemove:
      return "remove";
    case Mutation::Kind::kReplace:
      return "replace";
  }
  return "?";
}

std::unique_ptr<Inputs> MakeInputs(const std::string& workload,
                                   uint64_t seed) {
  if (workload == "flat") return MakeFlat(seed);
  if (workload == "churn") return MakeChurn(seed);
  return nullptr;
}

std::unique_ptr<ms::GeneratedWorld> MakeQualityWorld() {
  ms::GeneratorOptions g;
  g.seed = kQualityWorldSeed;
  g.popularity_scale = kQualityWorldScale;
  return std::make_unique<ms::GeneratedWorld>(ms::GenerateWebWorld(g));
}

}  // namespace msbench
