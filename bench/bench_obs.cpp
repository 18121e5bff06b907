// Observability acceptance benchmark: the obs/ metrics + tracing layer must
// be cheap enough to leave on in production. Two claims are measured/gated:
//
//   1. Instrumentation overhead — the same fixed-work mixed-traffic loop as
//      bench_serving's read phase (80% LookupBatch-32, 10% AutoFill, 10%
//      SuggestCorrections) runs with tracing/metrics enabled and with the
//      layer compiled in but idle (SetTracingEnabled(false)). Reps are
//      interleaved and compared min-vs-min; enabled must cost < 2% over
//      idle. The gate self-arms only once the idle phase is long enough for
//      the comparison to be meaningful (tiny smoke runs record but do not
//      enforce).
//   2. Scrape liveness — a MappingServer is stood up on an ephemeral port,
//      remote traffic is driven through it, and a MetricsText scrape must
//      return a non-empty, well-formed exposition containing the synthesis
//      stage, serving, and net series. A missing series fails the binary at
//      every scale.
//
// Results go to BENCH_OBS.json (or argv[2]):
//
//   ./bench/bench_obs [num_tables] [output.json]
//
// The corpus and request stream are bench_serving's (bench_util.h).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "apps/serving.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace ms::bench {
namespace {

constexpr size_t kReps = 7;
/// Sized so an idle rep at CI's 2000 tables lasts about a second: the
/// store answers the AutoFill/SuggestCorrections containment searches from
/// its posting list, so each op is short and a rep needs many of them for
/// the 2% comparison to rise above timer and scheduling noise.
constexpr size_t kItersPerRep = 6300;
constexpr double kOverheadGate = 0.02;
/// Below this idle-phase duration the quantization noise of a single rep is
/// comparable to the overhead being measured; record, don't enforce.
constexpr double kEnforceMinSeconds = 0.05;

/// One fixed-work rep of the mixed phase. The rng seed pins the request
/// sequence, so the enabled and idle modes execute byte-identical work and
/// only the instrumentation differs. Returns elapsed seconds; the lookup
/// tally is accumulated into *sink so the loop cannot be optimized away.
double MixedRep(const MappingService& svc, const RequestPool& pool,
                uint64_t seed, uint64_t* sink) {
  Rng rng(seed);
  const size_t n = pool.batches.size();
  uint64_t lookups = 0;
  Timer t;
  for (size_t it = 0; it < kItersPerRep; ++it) {
    const size_t i = rng.Uniform(n);
    const double roll = rng.UniformDouble();
    if (roll < 0.8) {
      const auto snap = svc.AcquireSnapshot();
      if (snap == nullptr) continue;
      const size_t mi = rng.Uniform(snap->store->size());
      lookups += svc.LookupBatch(mi, pool.batches[i]).size();
    } else if (roll < 0.9) {
      const auto res = svc.AutoFill(pool.columns[i],
                                    {{0, std::string(pool.columns[i][0])}});
      lookups += res.values.size();
    } else {
      (void)svc.SuggestCorrections(pool.columns[i]);
      lookups += pool.columns[i].size();
    }
  }
  const double s = t.ElapsedSeconds();
  *sink += lookups;
  return s;
}

}  // namespace
}  // namespace ms::bench

int main(int argc, char** argv) {
  using namespace ms;
  using namespace ms::bench;
  const size_t n_tables =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8000;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_OBS.json";

  Rng vocab_rng(4321);
  std::cout << "building corpus of " << n_tables << " tables...\n"
            << std::flush;
  const Vocab vocab(std::max<size_t>(n_tables / 4, 500),
                    std::max<size_t>(n_tables / 30, 100), vocab_rng,
                    /*long_forms=*/false);
  Rng grow_rng = vocab_rng;
  TableCorpus corpus;
  GrowCorpus(&corpus, n_tables, vocab, grow_rng);

  MappingService svc(WorldOptions(-1.0));
  {
    Timer t;
    const Status st = svc.Synthesize(corpus);
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

  // --------------------------------------------- overhead: enabled vs idle
  // Interleaved reps (idle, enabled, idle, enabled, ...) so thermal drift
  // and cache warmth hit both modes equally; min-vs-min discards scheduler
  // noise. One warmup rep per mode is discarded.
  uint64_t sink = 0;
  obs::SetTracingEnabled(false);
  (void)MixedRep(svc, requests, 1, &sink);
  obs::SetTracingEnabled(true);
  (void)MixedRep(svc, requests, 1, &sink);

  double min_idle = 1e300, min_enabled = 1e300;
  std::cout << "overhead phase: " << kReps << " interleaved reps of "
            << kItersPerRep << " mixed ops...\n"
            << std::flush;
  for (size_t rep = 0; rep < kReps; ++rep) {
    // Alternate which mode runs first within the pair so neither gets a
    // systematic cache-warmth or frequency-scaling advantage.
    const bool idle_first = rep % 2 == 0;
    for (int half = 0; half < 2; ++half) {
      const bool idle = (half == 0) == idle_first;
      obs::SetTracingEnabled(!idle);
      const double s = MixedRep(svc, requests, 100 + rep, &sink);
      (idle ? min_idle : min_enabled) = std::min(idle ? min_idle : min_enabled, s);
    }
  }
  obs::SetTracingEnabled(true);
  const double overhead =
      min_idle > 0 ? (min_enabled - min_idle) / min_idle : 0.0;
  const bool gate_enforced = min_idle >= kEnforceMinSeconds;
  std::cout << "  idle    " << min_idle << "s\n  enabled " << min_enabled
            << "s\n  overhead " << overhead * 100 << "% (gate "
            << kOverheadGate * 100 << "%, "
            << (gate_enforced ? "enforced" : "recorded only") << ")\n";

  // ----------------------------------------------------- live scrape smoke
  std::cout << "scrape smoke: server + remote traffic + MetricsText...\n"
            << std::flush;
  std::string scrape;
  bool scrape_ok = false;
  {
    net::MappingServer server(svc, net::ServerOptions{});
    const Status st = server.Start();
    if (!st.ok()) {
      std::cerr << "FAIL: server start: " << st.ToString() << "\n";
      return 1;
    }
    auto client = net::MappingClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::cerr << "FAIL: connect: " << client.status().message() << "\n";
      return 1;
    }
    for (size_t i = 0; i < 16; ++i) {
      const auto r =
          client.value().LookupBatch(i % snap0->store->size(),
                                     requests.batches[i]);
      if (!r.ok()) {
        std::cerr << "FAIL: remote lookup: " << r.status().message() << "\n";
        return 1;
      }
    }
    auto text = client.value().MetricsText();
    if (!text.ok()) {
      std::cerr << "FAIL: MetricsText: " << text.status().message() << "\n";
      return 1;
    }
    scrape = std::move(text.value());
    const char* required[] = {
        "ms_synth_stage_us_bucket{stage=\"extract\"",
        "ms_serving_request_us_count{op=\"lookup_batch\"}",
        "ms_serving_snapshot_version ",
        "ms_env_retries_total ",
        "ms_net_requests_total{type=\"lookup_batch\"}",
        "ms_net_bytes_out_total ",
    };
    scrape_ok = !scrape.empty() && scrape.back() == '\n';
    for (const char* series : required) {
      if (scrape.find(series) == std::string::npos) {
        std::cerr << "FAIL: scrape is missing series " << series << "\n";
        scrape_ok = false;
      }
    }
    server.Stop();
  }
  std::cout << "  scraped " << scrape.size() << " bytes, "
            << (scrape_ok ? "all required series present" : "MISSING series")
            << "\n";

  // ----------------------------------------------------------------- JSON
  const bool written =
      JsonObject()
          .Add("bench",
               "bench_obs (instrumentation overhead on the mixed serving "
               "phase + live scrape smoke)")
          .Add("corpus_tables", n_tables)
          .Add("mappings", svc.num_mappings())
          .Add("reps", kReps)
          .Add("iters_per_rep", kItersPerRep)
          .Add("batch_size", kRequestBatch)
          .Add("min_idle_seconds", min_idle)
          .Add("min_enabled_seconds", min_enabled)
          .Add("overhead_fraction", overhead)
          .Add("overhead_gate", kOverheadGate)
          .Add("gate_enforced", gate_enforced)
          .Add("scrape_bytes", scrape.size())
          .Add("scrape_ok", scrape_ok)
          .Add("work_sink", sink)
          .Write(out_path);
  if (!written) return 1;

  if (!scrape_ok) {
    std::cerr << "FAIL: live scrape missing required series or malformed\n";
    return 1;
  }
  if (gate_enforced && overhead >= kOverheadGate) {
    std::cerr << "FAIL: instrumentation overhead " << overhead * 100
              << "% exceeds the " << kOverheadGate * 100 << "% bar\n";
    return 1;
  }
  return 0;
}
