// Serving-tier acceptance benchmark: RCU snapshot readers under mixed
// application traffic. Two claims are measured and gated:
//
//   1. Reader scalability — wait-free snapshot acquisition means aggregate
//      lookup throughput must scale with reader threads (>= 4x at 8 threads
//      vs 1). The bar is enforced only on hardware with >= 8 cores at
//      acceptance scale; the JSON records `gate_enforced` either way.
//   2. Zero torn reads — while an appender runs real
//      AppendAndResynthesize transitions, concurrent readers continuously
//      verify every published snapshot's cross-artifact invariants (store
//      built from exactly the snapshot's result, batch lookups equal to
//      scalar lookups). One torn observation fails the binary at every
//      scale, as does any divergence between the torture end state and a
//      cold rebuild over the grown corpus.
//
// Results go to BENCH_SERVING.json (or argv[2]):
//
//   ./bench/bench_serving [num_tables] [output.json]
//
// The corpus is the acceptance gates' web-shaped world (bench_util.h)
// without its long-form names.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/serving.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "synth/session.h"
#include "table/corpus.h"
#include "table/tsv.h"

namespace ms::bench {
namespace {

constexpr double kPhaseSeconds = 1.2;
constexpr size_t kScaleThreads = 8;
constexpr size_t kTortureReaders = 4;
constexpr size_t kTortureBatches = 6;
constexpr size_t kAcceptanceScale = 20000;

struct PhaseResult {
  double seconds = 0;
  uint64_t lookups = 0;
  double p50_us = 0;
  double p99_us = 0;
  double lookups_per_sec() const {
    return seconds > 0 ? static_cast<double>(lookups) / seconds : 0;
  }
};

/// Mixed-traffic read phase: `threads` workers replay the request pool
/// against the service for ~kPhaseSeconds. 80% of requests are LookupBatch
/// calls (the throughput metric counts individual lookups), the rest
/// exercise the app entry points so the snapshot path sees its full
/// surface. Per-LookupBatch latencies are sampled for p50/p99.
PhaseResult RunReadPhase(const MappingService& svc, const RequestPool& pool,
                         size_t threads) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_lookups{0};
  std::vector<std::vector<double>> latencies(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  Timer phase_timer;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0xbeef + t);
      auto& lat = latencies[t];
      lat.reserve(1 << 16);
      uint64_t lookups = 0;
      const size_t n = pool.batches.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = rng.Uniform(n);
        const double roll = rng.UniformDouble();
        if (roll < 0.8) {
          const auto snap = svc.AcquireSnapshot();
          if (snap == nullptr) continue;
          const size_t mi = rng.Uniform(snap->store->size());
          Timer t0;
          const auto out = svc.LookupBatch(mi, pool.batches[i]);
          lat.push_back(t0.ElapsedSeconds() * 1e6);
          lookups += out.size();
        } else if (roll < 0.9) {
          const auto res = svc.AutoFill(
              pool.columns[i], {{0, std::string(pool.columns[i][0])}});
          lookups += res.values.size() + pool.columns[i].size();
        } else {
          (void)svc.SuggestCorrections(pool.columns[i]);
          lookups += pool.columns[i].size();
        }
      }
      total_lookups.fetch_add(lookups, std::memory_order_relaxed);
    });
  }
  while (phase_timer.ElapsedSeconds() < kPhaseSeconds) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  PhaseResult r;
  r.seconds = phase_timer.ElapsedSeconds();
  r.lookups = total_lookups.load();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    r.p50_us = all[all.size() / 2];
    r.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return r;
}

}  // namespace
}  // namespace ms::bench

int main(int argc, char** argv) {
  using namespace ms;
  using namespace ms::bench;
  const size_t n_tables =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : kAcceptanceScale;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_SERVING.json";
  const size_t n_delta = std::max<size_t>(n_tables / 10, kTortureBatches);
  const size_t n_base = n_tables - n_delta;

  Rng vocab_rng(4321);
  std::cout << "building corpus of " << n_tables << " tables (" << n_base
            << " base + " << n_delta << " appended under read load)...\n"
            << std::flush;
  const Vocab vocab(std::max<size_t>(n_tables / 4, 500),
                    std::max<size_t>(n_tables / 30, 100), vocab_rng,
                    /*long_forms=*/false);

  Rng grow_rng = vocab_rng;
  TableCorpus base;
  GrowCorpus(&base, n_base, vocab, grow_rng);

  // The service must own its corpus for delta appends: bootstrap via TSV.
  const std::string tsv =
      std::string(MS_PERSIST_SCRATCH_DIR) + "/bench_serving_base.tsv";
  if (!SaveCorpus(base, tsv).ok()) {
    std::cerr << "FAIL: cannot write " << tsv << "\n";
    return 1;
  }
  MappingService svc(WorldOptions(-1.0));
  {
    Timer t;
    const Status st = svc.SynthesizeFromFile(tsv);
    if (!st.ok()) {
      std::cerr << "FAIL: synthesize: " << st.ToString() << "\n";
      return 1;
    }
    std::cout << "synthesized " << svc.num_mappings() << " mappings in "
              << t.ElapsedSeconds() << "s\n"
              << std::flush;
  }
  const auto snap0 = svc.AcquireSnapshot();
  if (snap0 == nullptr || snap0->store->size() == 0) {
    std::cerr << "FAIL: nothing published to serve\n";
    return 1;
  }
  Rng req_rng(777);
  const RequestPool requests = BuildRequests(*snap0, req_rng, 512);

  // ------------------------------------------------- reader scaling phases
  std::cout << "read phase: 1 thread...\n" << std::flush;
  const PhaseResult one = RunReadPhase(svc, requests, 1);
  std::cout << "read phase: " << kScaleThreads << " threads...\n"
            << std::flush;
  const PhaseResult many = RunReadPhase(svc, requests, kScaleThreads);
  const double scaling =
      one.lookups_per_sec() > 0 ? many.lookups_per_sec() / one.lookups_per_sec()
                                : 0;
  std::cout << "  1 thread:  " << static_cast<uint64_t>(one.lookups_per_sec())
            << " lookups/s (p50 " << one.p50_us << "us, p99 " << one.p99_us
            << "us)\n  " << kScaleThreads << " threads: "
            << static_cast<uint64_t>(many.lookups_per_sec())
            << " lookups/s (p50 " << many.p50_us << "us, p99 " << many.p99_us
            << "us)  => " << scaling << "x\n";

  // --------------------------------------------------------- torture phase
  // Continuous appends under full read load; readers verify every acquired
  // snapshot's cross-artifact invariants and tally torn observations.
  std::cout << "torture: " << kTortureBatches << " appends under "
            << kTortureReaders << " reader threads...\n"
            << std::flush;
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> torture_reads{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kTortureReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xfeed + t);
      uint64_t last_version = 0;
      const size_t n = requests.batches.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = svc.AcquireSnapshot();
        if (snap == nullptr) continue;
        torture_reads.fetch_add(1, std::memory_order_relaxed);
        if (snap->version < last_version ||
            snap->store->size() != snap->result->mappings.size()) {
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        last_version = snap->version;
        if (snap->store->size() == 0) continue;
        const size_t mi = rng.Uniform(snap->store->size());
        const auto& batch = requests.batches[rng.Uniform(n)];
        const auto got = snap->store->LookupRightBatch(mi, batch);
        if (got.size() != batch.size()) {
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Batch == scalar within one snapshot, regardless of transitions.
        for (size_t k = 0; k < batch.size(); k += 7) {
          if (got[k] != snap->store->LookupRight(mi, batch[k])) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  Timer torture_timer;
  const size_t per_batch = n_delta / kTortureBatches;
  size_t appended = 0;
  for (size_t b = 0; b < kTortureBatches; ++b) {
    const size_t count =
        b + 1 == kTortureBatches ? n_delta - appended : per_batch;
    TableCorpus delta;
    GrowCorpus(&delta, count, vocab, grow_rng);
    const Status st = svc.AppendAndResynthesize(delta);
    if (!st.ok()) {
      stop.store(true);
      for (auto& r : readers) r.join();
      std::cerr << "FAIL: append " << b << ": " << st.ToString() << "\n";
      return 1;
    }
    appended += count;
  }
  const double torture_s = torture_timer.ElapsedSeconds();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  std::cout << "  " << appended << " tables appended in " << torture_s
            << "s, " << torture_reads.load() << " concurrent reads, torn "
            << torn.load() << "\n";

  // ------------------------------------------------- cold-rebuild oracle
  std::cout << "cold rebuild over the grown corpus (divergence check)...\n"
            << std::flush;
  Rng cold_rng = vocab_rng;
  TableCorpus cold_corpus;
  GrowCorpus(&cold_corpus, n_tables, vocab, cold_rng);
  MappingService cold(WorldOptions(-1.0));
  if (!cold.Synthesize(cold_corpus).ok()) {
    std::cerr << "FAIL: cold rebuild error\n";
    return 1;
  }
  const size_t divergence =
      Canonical(svc.last_result(), *svc.shared_pool()) ==
              Canonical(cold.last_result(), *cold.shared_pool())
          ? 0
          : 1;

  const unsigned hw = std::thread::hardware_concurrency();
  const bool gate_enforced = hw >= kScaleThreads && n_tables >= kAcceptanceScale;

  // ----------------------------------------------------------------- JSON
  const bool written =
      JsonObject()
          .Add("bench",
               "bench_serving (RCU snapshot readers: mixed-traffic scaling + "
               "torture appends)")
          .Add("corpus_tables", n_tables)
          .Add("mappings", svc.num_mappings())
          .Add("batch_size", kRequestBatch)
          .Add("phase_seconds", kPhaseSeconds)
          .Add("threads_scaled", kScaleThreads)
          .Add("lookups_per_sec_1t", one.lookups_per_sec())
          .Add("p50_us_1t", one.p50_us)
          .Add("p99_us_1t", one.p99_us)
          .Add("lookups_per_sec_nt", many.lookups_per_sec())
          .Add("p50_us_nt", many.p50_us)
          .Add("p99_us_nt", many.p99_us)
          .Add("scaling", scaling)
          .Add("torture_appended_tables", appended)
          .Add("torture_seconds", torture_s)
          .Add("torture_reads", torture_reads.load())
          .Add("torn_reads", torn.load())
          .Add("mapping_divergence", divergence)
          .Add("hardware_concurrency", hw)
          .Add("gate_enforced", gate_enforced)
          .Write(out_path);
  if (!written) return 1;
  std::remove(tsv.c_str());

  // Correctness gates hold at every scale.
  if (torn.load() != 0) {
    std::cerr << "FAIL: " << torn.load() << " torn snapshot observations\n";
    return 1;
  }
  if (divergence != 0) {
    std::cerr << "FAIL: torture end state diverges from a cold rebuild\n";
    return 1;
  }
  if (torture_reads.load() == 0) {
    std::cerr << "FAIL: torture phase recorded no concurrent reads\n";
    return 1;
  }
  // The scaling bar needs the cores to exist; smoke runs and small boxes
  // record the measurement without enforcing it.
  if (gate_enforced && scaling < 4.0) {
    std::cerr << "FAIL: " << kScaleThreads << "-thread lookup scaling "
              << scaling << "x below the 4x acceptance bar\n";
    return 1;
  }
  return 0;
}
