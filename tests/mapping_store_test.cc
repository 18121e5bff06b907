// Differential test of MappingStore against a brute-force reference that
// rescans each mapping's pairs for every question: containment at several
// min_hits, probes, and lookups in both directions, scalar and batched,
// with and without one reused BatchScratch.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/mapping_store.h"
#include "common/random.h"

namespace ms {
namespace {

/// One mapping's pairs as strings, in the mapping's pair order.
using Pairs = std::vector<std::pair<std::string, std::string>>;

ValueSide RefProbe(const Pairs& pairs, const std::string& raw) {
  const std::string v = NormalizeCell(raw);
  bool left = false, right = false;
  for (const auto& [l, r] : pairs) {
    left |= l == v;
    right |= r == v;
  }
  return left && right ? ValueSide::kBoth
         : left        ? ValueSide::kLeft
         : right       ? ValueSide::kRight
                       : ValueSide::kNone;
}

/// The smallest partner string of the pairs whose key side equals the
/// normalized value.
std::optional<std::string> RefLookup(const Pairs& pairs,
                                     const std::string& raw,
                                     bool left_to_right) {
  const std::string v = NormalizeCell(raw);
  std::optional<std::string> best;
  for (const auto& [l, r] : pairs) {
    if ((left_to_right ? l : r) != v) continue;
    const std::string& partner = left_to_right ? r : l;
    if (!best || partner < *best) best = partner;
  }
  return best;
}

std::vector<MappingStore::ContainmentMatch> RefContainment(
    const std::vector<Pairs>& mappings, const std::vector<std::string>& values,
    size_t min_hits) {
  std::vector<MappingStore::ContainmentMatch> out;
  for (size_t i = 0; i < mappings.size(); ++i) {
    MappingStore::ContainmentMatch m;
    m.index = i;
    for (const std::string& v : values) {
      const ValueSide side = RefProbe(mappings[i], v);
      if (side == ValueSide::kLeft || side == ValueSide::kBoth) ++m.left_hits;
      if (side == ValueSide::kRight || side == ValueSide::kBoth) {
        ++m.right_hits;
      }
    }
    if (m.total() >= min_hits) out.push_back(m);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.total() > b.total();
  });
  return out;
}

/// Random mappings over a small shared vocabulary, so values recur across
/// mappings, sit on both sides of one mapping, and keys have several
/// partners in both directions. The vocabulary is interned in a shuffled
/// order, so pair (id) order differs from string order.
struct World {
  std::shared_ptr<StringPool> pool = std::make_shared<StringPool>();
  MappingStore store{pool};
  std::vector<Pairs> reference;
  std::vector<std::string> vocab;
};

std::unique_ptr<World> MakeWorld(Rng& rng, size_t n_mappings) {
  auto w = std::make_unique<World>();
  for (int k = 0; k < 30; ++k) w->vocab.push_back("item " + std::to_string(k));
  std::vector<std::string> order = w->vocab;
  rng.Shuffle(order);
  for (const std::string& v : order) w->pool->Intern(v);
  for (size_t i = 0; i < n_mappings; ++i) {
    std::vector<ValuePair> pairs;
    const size_t n = rng.Uniform(14);  // empty mappings included
    for (size_t p = 0; p < n; ++p) {
      pairs.push_back({w->pool->Intern(rng.Pick(w->vocab)),
                       w->pool->Intern(rng.Pick(w->vocab))});
    }
    SynthesizedMapping m;
    m.merged = BinaryTable::FromPairs(std::move(pairs));
    Pairs ref;
    for (const ValuePair& p : m.merged.pairs()) {
      ref.emplace_back(w->pool->Get(p.left), w->pool->Get(p.right));
    }
    w->reference.push_back(std::move(ref));
    w->store.Add(std::move(m), "m" + std::to_string(i));
  }
  return w;
}

/// Probe values: stored values raw and unnormalized, values absent from the
/// store, empty strings, and repeats.
std::vector<std::string> Probes(Rng& rng, const World& w, size_t n) {
  std::vector<std::string> out;
  for (size_t k = 0; k < n; ++k) {
    const double roll = rng.UniformDouble();
    if (roll < 0.15) {
      out.push_back("absent " + std::to_string(rng.Uniform(5)));
    } else if (roll < 0.2) {
      out.push_back("");
    } else if (roll < 0.3 && !out.empty()) {
      out.push_back(rng.Pick(out));
    } else {
      std::string v = rng.Pick(w.vocab);
      if (rng.Bernoulli(0.3)) v = "  " + v + "[2] ";
      if (rng.Bernoulli(0.2)) v[0] = 'I';
      out.push_back(std::move(v));
    }
  }
  return out;
}

void ExpectSameMatches(const std::vector<MappingStore::ContainmentMatch>& got,
                       const std::vector<MappingStore::ContainmentMatch>& want,
                       size_t min_hits) {
  ASSERT_EQ(got.size(), want.size()) << "min_hits " << min_hits;
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].index, want[k].index) << "match " << k;
    EXPECT_EQ(got[k].left_hits, want[k].left_hits) << "match " << k;
    EXPECT_EQ(got[k].right_hits, want[k].right_hits) << "match " << k;
  }
}

TEST(MappingStoreOracleTest, ContainmentMatchesBruteForce) {
  Rng rng(701);
  for (size_t world = 0; world < 4; ++world) {
    const auto w = MakeWorld(rng, 1 + rng.Uniform(12));
    for (size_t round = 0; round < 25; ++round) {
      const auto probes = Probes(rng, *w, rng.Uniform(30));
      for (size_t min_hits = 0; min_hits <= 3; ++min_hits) {
        ExpectSameMatches(w->store.FindByContainment(probes, min_hits),
                          RefContainment(w->reference, probes, min_hits),
                          min_hits);
      }
    }
  }
}

TEST(MappingStoreOracleTest, EmptyStoresAnswerNothing) {
  auto pool = std::make_shared<StringPool>();
  const std::vector<std::string> probes = {"item 1", "item 1", ""};
  MappingStore empty(pool);
  for (size_t min_hits = 0; min_hits <= 3; ++min_hits) {
    EXPECT_TRUE(empty.FindByContainment(probes, min_hits).empty());
  }
  // One mapping without pairs: present at min_hits 0 only, holding nothing.
  MappingStore hollow(pool);
  hollow.Add(SynthesizedMapping{}, "hollow");
  const auto all = hollow.FindByContainment(probes, 0);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].total(), 0u);
  EXPECT_TRUE(hollow.FindByContainment(probes, 1).empty());
  EXPECT_EQ(hollow.Probe(0, "item 1"), ValueSide::kNone);
  EXPECT_FALSE(hollow.LookupRight(0, "item 1").has_value());
  EXPECT_EQ(hollow.LookupLeftBatch(0, probes),
            std::vector<std::optional<std::string>>(probes.size()));
}

TEST(MappingStoreOracleTest, ProbesMatchBruteForce) {
  Rng rng(702);
  size_t both = 0;
  for (size_t world = 0; world < 4; ++world) {
    const auto w = MakeWorld(rng, 1 + rng.Uniform(12));
    for (size_t i = 0; i < w->store.size(); ++i) {
      const auto probes = Probes(rng, *w, 40);
      const auto batch = w->store.ProbeBatch(i, probes);
      ASSERT_EQ(batch.size(), probes.size());
      for (size_t k = 0; k < probes.size(); ++k) {
        const ValueSide want = RefProbe(w->reference[i], probes[k]);
        EXPECT_EQ(w->store.Probe(i, probes[k]), want) << probes[k];
        EXPECT_EQ(batch[k], want) << probes[k];
        both += want == ValueSide::kBoth;
      }
    }
  }
  EXPECT_GT(both, 0u) << "no probe hit a value on both sides";
}

TEST(MappingStoreOracleTest, LookupsMatchBruteForce) {
  Rng rng(703);
  MappingStore::BatchScratch scratch;  // one scratch across every call
  size_t multi = 0;
  for (size_t world = 0; world < 4; ++world) {
    const auto w = MakeWorld(rng, 1 + rng.Uniform(12));
    for (size_t i = 0; i < w->store.size(); ++i) {
      const Pairs& pairs = w->reference[i];
      for (size_t a = 0; a < pairs.size(); ++a) {
        for (size_t b = a + 1; b < pairs.size(); ++b) {
          multi += pairs[a].first == pairs[b].first ||
                   pairs[a].second == pairs[b].second;
        }
      }
      for (int round = 0; round < 3; ++round) {
        const auto probes = Probes(rng, *w, rng.Uniform(40));
        const auto rights = w->store.LookupRightBatch(i, probes);
        const auto lefts = w->store.LookupLeftBatch(i, probes);
        EXPECT_EQ(w->store.LookupRightBatch(i, probes, &scratch), rights);
        EXPECT_EQ(w->store.LookupLeftBatch(i, probes, &scratch), lefts);
        ASSERT_EQ(rights.size(), probes.size());
        ASSERT_EQ(lefts.size(), probes.size());
        for (size_t k = 0; k < probes.size(); ++k) {
          const auto want_right = RefLookup(pairs, probes[k], true);
          const auto want_left = RefLookup(pairs, probes[k], false);
          EXPECT_EQ(w->store.LookupRight(i, probes[k]), want_right);
          EXPECT_EQ(w->store.LookupLeft(i, probes[k]), want_left);
          EXPECT_EQ(rights[k], want_right) << probes[k];
          EXPECT_EQ(lefts[k], want_left) << probes[k];
        }
      }
    }
  }
  EXPECT_GT(multi, 0u) << "no key had several partners";
}

TEST(MappingStoreOracleTest, AnswersDoNotDependOnInterningOrder) {
  // The same string pairs in two pools that interned the vocabulary in
  // opposite orders: pair (id) order reverses, the answers must not.
  Rng rng(704);
  std::vector<std::string> vocab;
  for (int k = 0; k < 12; ++k) vocab.push_back("item " + std::to_string(k));
  std::vector<std::vector<std::pair<std::string, std::string>>> mappings(6);
  for (auto& m : mappings) {
    for (int p = 0; p < 10; ++p) {
      m.emplace_back(rng.Pick(vocab), rng.Pick(vocab));
    }
  }
  auto build = [&](bool reversed) {
    auto pool = std::make_shared<StringPool>();
    for (size_t k = 0; k < vocab.size(); ++k) {
      pool->Intern(vocab[reversed ? vocab.size() - 1 - k : k]);
    }
    auto store = std::make_unique<MappingStore>(pool);
    for (const auto& m : mappings) {
      std::vector<ValuePair> pairs;
      for (const auto& [l, r] : m) {
        pairs.push_back({pool->Intern(l), pool->Intern(r)});
      }
      SynthesizedMapping sm;
      sm.merged = BinaryTable::FromPairs(std::move(pairs));
      store->Add(std::move(sm), "m");
    }
    return std::make_pair(pool, std::move(store));
  };
  const auto [pool_a, a] = build(false);
  const auto [pool_b, b] = build(true);
  std::vector<std::string> probes = vocab;
  probes.push_back("absent");
  for (size_t i = 0; i < mappings.size(); ++i) {
    EXPECT_EQ(a->LookupRightBatch(i, probes), b->LookupRightBatch(i, probes));
    EXPECT_EQ(a->LookupLeftBatch(i, probes), b->LookupLeftBatch(i, probes));
    for (const std::string& v : probes) {
      EXPECT_EQ(a->LookupRight(i, v), b->LookupRight(i, v)) << v;
      EXPECT_EQ(a->LookupLeft(i, v), b->LookupLeft(i, v)) << v;
    }
  }
}

}  // namespace
}  // namespace ms
