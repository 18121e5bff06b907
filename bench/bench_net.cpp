// Remote serving acceptance benchmark: the net/ wire protocol + epoll
// server in front of a MappingService. Three claims are measured/gated:
//
//   1. Remote request latency and throughput — blocking clients replay a
//      mixed request stream over loopback TCP at 1 and 8 connections;
//      client-side p50/p99 latency and aggregate requests/s are recorded,
//      alongside the server's own histogram-derived quantiles from a Stats
//      request.
//   2. Zero divergence — a sweep of LookupBatch / SuggestCorrections /
//      AutoFill / AutoJoin requests must return responses BYTE-IDENTICAL
//      to a local encode of the in-process MappingService result. One
//      mismatch fails the binary at every scale.
//   3. Malformed-input survival — a burst of mutated/garbage frames is
//      thrown at the server, after which it must still serve and must have
//      counted malformed frames. A crash or wedge fails the binary.
//
// Results go to BENCH_NET.json (or argv[2]):
//
//   ./bench/bench_net [num_tables] [output.json]
//
// The corpus is bench_serving's web-shaped world (bench_util.h).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/serving.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace ms::bench {
namespace {

constexpr double kPhaseSeconds = 1.0;
constexpr size_t kManyConnections = 8;
constexpr size_t kAcceptanceScale = 8000;
constexpr int kFuzzFrames = 80;

struct PhaseResult {
  double seconds = 0;
  uint64_t requests = 0;
  double p50_us = 0;
  double p99_us = 0;
  double requests_per_sec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0;
  }
};

/// `conns` blocking clients replay the request stream for ~kPhaseSeconds:
/// 80% LookupBatch, 10% SuggestCorrections, 10% Health. Per-request
/// round-trip latencies are sampled for p50/p99.
PhaseResult RunClientPhase(uint16_t port, const RequestPool& pool,
                           size_t num_mappings, size_t conns, bool* failed) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_requests{0};
  std::atomic<int> errors{0};
  std::vector<std::vector<double>> latencies(conns);
  std::vector<std::thread> workers;
  workers.reserve(conns);
  Timer phase_timer;
  for (size_t t = 0; t < conns; ++t) {
    workers.emplace_back([&, t] {
      auto cr = net::MappingClient::Connect("127.0.0.1", port);
      if (!cr.ok()) {
        errors.fetch_add(1);
        return;
      }
      net::MappingClient client = std::move(cr.value());
      Rng rng(0xbeef + t);
      auto& lat = latencies[t];
      lat.reserve(1 << 14);
      uint64_t requests = 0;
      const size_t n = pool.batches.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t i = rng.Uniform(n);
        const double roll = rng.UniformDouble();
        Timer t0;
        bool ok = true;
        if (roll < 0.8) {
          const size_t mi = num_mappings ? rng.Uniform(num_mappings) : 0;
          ok = client.LookupBatch(mi, pool.batches[i]).ok();
        } else if (roll < 0.9) {
          ok = client.SuggestCorrections(pool.columns[i]).ok();
        } else {
          ok = client.Health().ok();
        }
        lat.push_back(t0.ElapsedSeconds() * 1e6);
        if (!ok) {
          errors.fetch_add(1);
          return;
        }
        ++requests;
      }
      total_requests.fetch_add(requests, std::memory_order_relaxed);
    });
  }
  while (phase_timer.ElapsedSeconds() < kPhaseSeconds) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  if (errors.load() != 0) *failed = true;

  PhaseResult r;
  r.seconds = phase_timer.ElapsedSeconds();
  r.requests = total_requests.load();
  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    r.p50_us = all[all.size() / 2];
    r.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return r;
}

/// Fire-and-forget raw bytes at the server (fuzz smoke).
void SendRawBytes(uint16_t port, std::string_view bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return;
  timeval tv{};
  tv.tv_usec = 50'000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    (void)!::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    char sink[4096];
    (void)!::recv(fd, sink, sizeof(sink), 0);
  }
  ::close(fd);
}

}  // namespace
}  // namespace ms::bench

int main(int argc, char** argv) {
  using namespace ms;
  using namespace ms::bench;
  const size_t n_tables =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : kAcceptanceScale;
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_NET.json";

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

  net::ServerOptions sopts;
  sopts.num_workers = 2;
  net::MappingServer server(svc, sopts);
  {
    const Status st = server.Start();
    if (!st.ok()) {
      std::cerr << "FAIL: server start: " << st.ToString() << "\n";
      return 1;
    }
  }
  std::cout << "serving on 127.0.0.1:" << server.port() << "\n" << std::flush;

  // -------------------------------------------------- client load phases
  bool phase_failed = false;
  std::cout << "client phase: 1 connection...\n" << std::flush;
  const PhaseResult one = RunClientPhase(server.port(), requests,
                                         svc.num_mappings(), 1, &phase_failed);
  std::cout << "client phase: " << kManyConnections << " connections...\n"
            << std::flush;
  const PhaseResult many =
      RunClientPhase(server.port(), requests, svc.num_mappings(),
                     kManyConnections, &phase_failed);
  std::cout << "  1 conn:  " << static_cast<uint64_t>(one.requests_per_sec())
            << " req/s (p50 " << one.p50_us << "us, p99 " << one.p99_us
            << "us)\n  " << kManyConnections << " conns: "
            << static_cast<uint64_t>(many.requests_per_sec()) << " req/s (p50 "
            << many.p50_us << "us, p99 " << many.p99_us << "us)\n";

  // --------------------------------------------------- divergence sweep
  // Remote responses must be byte-identical to a local encode of the
  // in-process result under the response's own header.
  std::cout << "divergence sweep...\n" << std::flush;
  uint64_t divergence = 0;
  {
    auto cr = net::MappingClient::Connect("127.0.0.1", server.port());
    if (!cr.ok()) {
      std::cerr << "FAIL: sweep connect: " << cr.status().ToString() << "\n";
      return 1;
    }
    net::MappingClient client = std::move(cr.value());
    Rng rng(31337);
    for (int k = 0; k < 200; ++k) {
      const auto& batch = requests.batches[rng.Uniform(requests.batches.size())];
      const size_t mi = rng.Uniform(svc.num_mappings());
      const uint8_t dir = static_cast<uint8_t>(rng.Uniform(2));
      auto remote = client.LookupBatch(mi, batch, dir);
      if (!remote.ok()) {
        ++divergence;
        continue;
      }
      net::LookupBatchResponse local;
      local.values = svc.LookupBatch(
          mi, batch,
          dir == 0 ? MappingService::LookupDirection::kLeftToRight
                   : MappingService::LookupDirection::kRightToLeft);
      if (client.last_response_body() !=
          EncodeLookupBatchResponse(client.last_header(), local)) {
        ++divergence;
      }
    }
    for (int k = 0; k < 40; ++k) {
      const auto& column =
          requests.columns[rng.Uniform(requests.columns.size())];
      switch (k % 3) {
        case 0: {
          auto remote = client.SuggestCorrections(column);
          if (!remote.ok() ||
              client.last_response_body() !=
                  EncodeSuggestCorrectionsResponse(
                      client.last_header(), svc.SuggestCorrections(column))) {
            ++divergence;
          }
          break;
        }
        case 1: {
          const std::vector<std::pair<size_t, std::string>> examples = {
              {0, column[0]}};
          auto remote = client.AutoFill(column, examples);
          if (!remote.ok() ||
              client.last_response_body() !=
                  EncodeAutoFillResponse(client.last_header(),
                                         svc.AutoFill(column, examples))) {
            ++divergence;
          }
          break;
        }
        default: {
          auto remote = client.AutoJoin(column, column);
          if (!remote.ok() ||
              client.last_response_body() !=
                  EncodeAutoJoinResponse(client.last_header(),
                                         svc.AutoJoin(column, column))) {
            ++divergence;
          }
          break;
        }
      }
    }
  }
  std::cout << "  divergence: " << divergence << "\n";

  // --------------------------------------------------------- fuzz smoke
  std::cout << "fuzz smoke: " << kFuzzFrames << " hostile frames...\n"
            << std::flush;
  {
    Rng rng(0xF0220F0Fu);
    std::string seed;
    net::LookupBatchRequest req;
    req.values = requests.batches[0];
    AppendFrame(net::MsgType::kLookupBatchReq, 1,
                EncodeLookupBatchRequest(req), &seed);
    for (int i = 0; i < kFuzzFrames; ++i) {
      std::string bytes = seed;
      switch (rng.Uniform(4)) {
        case 0:
          for (uint64_t f = 1 + rng.Uniform(4); f > 0; --f) {
            bytes[rng.Uniform(bytes.size())] ^=
                static_cast<char>(1 << rng.Uniform(8));
          }
          break;
        case 1:
          bytes.resize(rng.Uniform(bytes.size()));
          break;
        case 2:
          bytes.assign(1 + rng.Uniform(96), '\0');
          for (auto& b : bytes) b = static_cast<char>(rng.Uniform(256));
          break;
        default:
          break;
      }
      SendRawBytes(server.port(), bytes);
    }
  }

  // The server must still be fully serviceable.
  uint64_t malformed_frames = 0;
  double server_p50_us = 0;
  double server_p99_us = 0;
  bool post_fuzz_ok = false;
  {
    auto cr = net::MappingClient::Connect("127.0.0.1", server.port());
    if (cr.ok()) {
      net::MappingClient client = std::move(cr.value());
      auto stats = client.Stats();
      if (stats.ok() && client.Health().ok()) {
        post_fuzz_ok = true;
        malformed_frames = stats.value().malformed_frames;
        const auto& lookup = stats.value().per_type[static_cast<size_t>(
                                                        net::MsgType::
                                                            kLookupBatchReq) -
                                                    1];
        server_p50_us = lookup.second.p50_us;
        server_p99_us = lookup.second.p99_us;
      }
    }
  }
  std::cout << "  post-fuzz serviceable: " << (post_fuzz_ok ? "yes" : "NO")
            << ", malformed frames counted: " << malformed_frames << "\n";

  server.Stop();

  // ----------------------------------------------------------------- JSON
  const bool written =
      JsonObject()
          .Add("bench",
               "bench_net (remote serving: wire protocol + epoll server over "
               "loopback TCP)")
          .Add("corpus_tables", n_tables)
          .Add("mappings", svc.num_mappings())
          .Add("batch_size", kRequestBatch)
          .Add("phase_seconds", kPhaseSeconds)
          .Add("requests_per_sec_1c", one.requests_per_sec())
          .Add("p50_us_1c", one.p50_us)
          .Add("p99_us_1c", one.p99_us)
          .Add("connections_scaled", kManyConnections)
          .Add("requests_per_sec_8c", many.requests_per_sec())
          .Add("p50_us_8c", many.p50_us)
          .Add("p99_us_8c", many.p99_us)
          .Add("server_lookup_p50_us", server_p50_us)
          .Add("server_lookup_p99_us", server_p99_us)
          .Add("fuzz_frames", kFuzzFrames)
          .Add("malformed_frames_counted", malformed_frames)
          .Add("post_fuzz_serviceable", post_fuzz_ok)
          .Add("divergence", divergence)
          .Write(out_path);
  if (!written) return 1;

  // Correctness gates hold at every scale.
  if (phase_failed) {
    std::cerr << "FAIL: a client phase recorded request errors\n";
    return 1;
  }
  if (one.requests == 0 || many.requests == 0) {
    std::cerr << "FAIL: a client phase served no requests\n";
    return 1;
  }
  if (divergence != 0) {
    std::cerr << "FAIL: " << divergence
              << " remote responses diverged from the in-process oracle\n";
    return 1;
  }
  if (!post_fuzz_ok) {
    std::cerr << "FAIL: server not serviceable after the fuzz burst\n";
    return 1;
  }
  if (malformed_frames == 0) {
    std::cerr << "FAIL: fuzz burst produced no counted malformed frames\n";
    return 1;
  }
  return 0;
}
