// Concurrency lockdown for the MappingService serving tier: N reader
// threads hammer the RCU snapshot path while a writer thread runs real
// transitions (appends, removals, replacements, resynthesis). Every reader
// asserts the published invariants on every operation — store/result
// sizes agree, versions never move backwards, batched lookups agree with
// scalar lookups within one snapshot — so ANY torn publication (a store
// from one generation served with a result from another) fails
// deterministically, and TSan has dense cross-thread traffic to verify the
// acquire/release protocol on.
//
// These tests run under the `concurrency` ctest label (which CI also runs
// under -fsanitize=thread); test names must match *ServingConcurrency* —
// the label's gtest filter.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/serving.h"
#include "common/random.h"
#include "synth/session.h"
#include "table/corpus.h"
#include "table/tsv.h"

namespace ms {
namespace {

struct TableSpec {
  std::string domain;
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> cols;
};

/// Same generator family as tests/serving_test.cc (ground mapping
/// name_i -> code_(i mod 8) with typo/conflict noise).
std::vector<TableSpec> SmallCorpusSpec(Rng& rng, size_t n_tables) {
  std::vector<std::string> lefts, rights;
  for (size_t i = 0; i < 24; ++i) {
    lefts.push_back("entity name " + std::to_string(i));
    rights.push_back("code" + std::to_string(i % 8));
  }
  std::vector<TableSpec> specs;
  specs.reserve(n_tables);
  for (size_t t = 0; t < n_tables; ++t) {
    TableSpec spec;
    spec.domain = "domain" + std::to_string(rng.Uniform(4)) + ".example";
    const size_t rows = 4 + rng.Uniform(5);
    std::vector<std::string> lcol, rcol;
    std::set<uint64_t> seen;
    while (lcol.size() < rows) {
      const uint64_t li = rng.Uniform(lefts.size());
      if (!seen.insert(li).second) continue;
      std::string l = lefts[li];
      if (rng.Bernoulli(0.1)) {
        l[rng.Uniform(l.size())] = static_cast<char>('a' + rng.Uniform(26));
      }
      std::string r = rights[li];
      if (rng.Bernoulli(0.05)) r = "code" + std::to_string(rng.Uniform(8));
      lcol.push_back(std::move(l));
      rcol.push_back(std::move(r));
    }
    spec.names = {"name", "code"};
    spec.cols = {std::move(lcol), std::move(rcol)};
    specs.push_back(std::move(spec));
  }
  return specs;
}

void AddSpecs(TableCorpus* corpus, const std::vector<TableSpec>& specs,
              size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    corpus->AddFromStrings(specs[i].domain, TableSource::kWeb, specs[i].names,
                           specs[i].cols);
  }
}

SynthesisOptions ServingOptions() {
  SynthesisOptions o;
  o.num_threads = 2;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.extraction.coherence_threshold = -1.0;
  return o;
}

std::multiset<std::string> Canonical(const SynthesisResult& r,
                                     const StringPool& pool) {
  std::multiset<std::string> out;
  for (const auto& m : r.mappings) {
    std::multiset<std::string> pairs;
    for (const auto& p : m.merged.pairs()) {
      pairs.insert(std::string(pool.Get(p.left)) + "\x1e" +
                   std::string(pool.Get(p.right)));
    }
    std::string key = m.left_label + "\x1f" + m.right_label + "\x1f";
    for (const auto& p : pairs) key += p + "\x1f";
    out.insert(std::move(key));
  }
  return out;
}

/// One reader's inner loop body: acquires a snapshot and checks every
/// cross-artifact invariant a torn publication would break. Returns the
/// snapshot version observed (0 when nothing is served yet) and counts
/// violations instead of ASSERTing — gtest assertions are not
/// thread-safe, so the threads tally and the main thread asserts.
uint64_t CheckOnce(const MappingService& svc, Rng& rng,
                   std::atomic<uint64_t>* torn) {
  const auto snap = svc.AcquireSnapshot();
  if (snap == nullptr) return 0;
  // The atomic unit: store built from exactly result's mappings.
  if (snap->store == nullptr || snap->result == nullptr ||
      snap->pool == nullptr ||
      snap->store->size() != snap->result->mappings.size() ||
      snap->result->stats.mappings != snap->result->mappings.size()) {
    torn->fetch_add(1, std::memory_order_relaxed);
    return snap->version;
  }
  if (snap->store->size() == 0) return snap->version;

  // Batched lookups against the snapshot's store must agree with scalar
  // lookups against the SAME store — and resolve real pairs of this
  // generation. Probe values come from the snapshot's own result/pool, so
  // the check is self-contained per generation.
  const size_t mi = rng.Uniform(snap->store->size());
  const auto& mapping = snap->result->mappings[mi];
  std::vector<std::string> probes;
  for (const auto& p : mapping.merged.pairs()) {
    probes.emplace_back(snap->pool->Get(p.left));
    if (probes.size() >= 8) break;
  }
  probes.push_back("definitely unseen value " +
                   std::to_string(rng.Uniform(1000)));
  const auto batch = snap->store->LookupRightBatch(mi, probes);
  if (batch.size() != probes.size()) {
    torn->fetch_add(1, std::memory_order_relaxed);
    return snap->version;
  }
  for (size_t k = 0; k < probes.size(); ++k) {
    if (batch[k] != snap->store->LookupRight(mi, probes[k])) {
      torn->fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Every left value of the generation's own mapping must resolve.
  for (size_t k = 0; k + 1 < probes.size(); ++k) {
    if (!batch[k].has_value()) torn->fetch_add(1, std::memory_order_relaxed);
  }
  // App entry points ride the same snapshot path; exercise one per check
  // so TSan sees the full reader surface.
  (void)svc.SuggestCorrections(probes);
  return snap->version;
}

// Continuous corpus changes under read load, zero torn reads: appends,
// then removals and a replacement whose first attempt fails after the
// session tombstoned and merged (kAppendCommit), so readers also race the
// service undoing that change.
TEST(ServingConcurrencyTest, CorpusChangesUnderReadLoadServeNoTornState) {
  Rng rng(701);
  const size_t kTotalTables = 14;
  const size_t kInitialTables = 6;
  // Two more tables replace removed ones after the appends.
  auto specs = SmallCorpusSpec(rng, kTotalTables + 2);

  // Delta appends require a service-owned corpus: bootstrap through a TSV.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string tsv =
      std::string(tmpdir != nullptr && *tmpdir ? tmpdir : "/tmp") +
      "/serving_torture_base.tsv";
  {
    TableCorpus base;
    AddSpecs(&base, specs, 0, kInitialTables);
    ASSERT_TRUE(SaveCorpus(base, tsv).ok());
  }
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.SynthesizeFromFile(tsv).ok());

  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> monotonicity_violations{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  const size_t kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng trng(900 + t);
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t v = CheckOnce(svc, trng, &torn);
        if (v != 0) {
          if (v < last_version) {
            monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
          }
          last_version = v;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: append the remaining tables one at a time under full read
  // load, remove and replace some, then keep resynthesizing until every
  // reader has seen plenty of transitions. A failed assertion leaves the
  // lambda, not the test, so the readers are always joined.
  const auto write = [&] {
    for (size_t i = kInitialTables; i < kTotalTables; ++i) {
      TableCorpus delta;
      AddSpecs(&delta, specs, i, i + 1);
      ASSERT_TRUE(svc.AppendAndResynthesize(delta).ok());
    }
    ASSERT_TRUE(svc.RemoveAndResynthesize({1, 8}).ok());
    TableCorpus fresh;
    AddSpecs(&fresh, specs, kTotalTables, kTotalTables + 2);
    svc.InjectFaultForTests(MappingService::ServingFault::kAppendCommit);
    ASSERT_FALSE(svc.ReplaceAndResynthesize({3, 10}, fresh).ok());
    ASSERT_TRUE(svc.ReplaceAndResynthesize({3, 10}, fresh).ok());
    ASSERT_TRUE(svc.RemoveAndResynthesize({5}).ok());
    while (reads.load(std::memory_order_relaxed) < 2000) {
      ASSERT_TRUE(svc.Resynthesize(ServingOptions()).ok());
    }
  };
  write();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  if (HasFatalFailure()) return;

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(monotonicity_violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);

  // The end state equals a cold rebuild over the surviving tables, in
  // corpus order — the concurrency machinery must not change results.
  TableCorpus cold_corpus;
  for (size_t i = 0; i < kTotalTables + 2; ++i) {
    if (i == 1 || i == 3 || i == 5 || i == 8 || i == 10) continue;
    AddSpecs(&cold_corpus, specs, i, i + 1);
  }
  MappingService cold(ServingOptions());
  ASSERT_TRUE(cold.Synthesize(cold_corpus).ok());
  EXPECT_EQ(Canonical(svc.last_result(), *svc.shared_pool()),
            Canonical(cold.last_result(), *cold.shared_pool()));
  std::remove(tsv.c_str());
}

// The ISSUE's named race: readers during Resynthesize. Warm resyntheses
// with alternating options churn generations as fast as the chain can run
// while readers hold snapshots across the swaps.
TEST(ServingConcurrencyTest, ReadersSurviveContinuousResynthesis) {
  Rng rng(702);
  auto specs = SmallCorpusSpec(rng, 10);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(corpus).ok());

  SynthesisOptions a = ServingOptions();
  SynthesisOptions b = ServingOptions();
  b.min_pairs = 2;  // downstream-only diff: re-partitions + re-resolves

  std::atomic<uint64_t> torn{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> held_handle_violations{0};

  const size_t kReaders = 3;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng trng(800 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        // Hold a handle across whatever transitions happen, then verify
        // it is still internally consistent — the RCU grace-period
        // guarantee (the old generation must outlive the swap).
        const auto held = svc.AcquireSnapshot();
        (void)CheckOnce(svc, trng, &torn);
        if (held != nullptr &&
            held->store->size() != held->result->mappings.size()) {
          held_handle_violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // A failed assertion leaves the lambda, not the test, so the readers are
  // always joined.
  const auto write = [&] {
    for (int round = 0; round < 30; ++round) {
      ASSERT_TRUE(svc.Resynthesize(round % 2 == 0 ? b : a).ok());
    }
  };
  write();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  if (HasFatalFailure()) return;

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(held_handle_violations.load(), 0u);
  // 30 resyntheses after the initial publish.
  EXPECT_EQ(svc.AcquireSnapshot()->version, 31u);
}

// Wait-free reader accessors and health() polling alongside rotating
// saves — the operator dashboard path.
TEST(ServingConcurrencyTest, HealthAndSizePollingRaceWriters) {
  Rng rng(703);
  auto specs = SmallCorpusSpec(rng, 8);
  TableCorpus corpus;
  AddSpecs(&corpus, specs, 0, specs.size());
  MappingService svc(ServingOptions());
  ASSERT_TRUE(svc.Synthesize(corpus).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistencies{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const ServiceHealth h = svc.health();
      if (h.generations_skipped > 0 || !h.quarantined_files.empty()) {
        inconsistencies.fetch_add(1, std::memory_order_relaxed);
      }
      if (svc.has_store() && svc.num_mappings() == 0) {
        // The corpus always yields mappings; a zero here means a torn
        // publish was observed.
        inconsistencies.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  const auto write = [&] {
    for (int round = 0; round < 20; ++round) {
      ASSERT_TRUE(svc.Resynthesize(ServingOptions()).ok());
    }
  };
  write();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  if (HasFatalFailure()) return;
  EXPECT_EQ(inconsistencies.load(), 0u);
}

}  // namespace
}  // namespace ms
