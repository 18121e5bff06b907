#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "apps/mapping_store.h"
#include "apps/serving.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "extract/candidate_extraction.h"
#include "inputs.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "stats/inverted_index.h"
#include "synth/session.h"
#include "table/tsv.h"
#include "text/normalize.h"
#include "trace.h"

namespace msbench {
namespace {

using ms::Status;

// Set-up repetitions per run, each on the next CPU (see AllowedCpus);
// setup_s is their median.
constexpr int kSetupReps = 8;
// On a shared 4-vCPU VM, speed wandered by 10-40% over spells of seconds to
// minutes, so the short requests behind restore_s and the app metrics are
// measured in blocks spread over the run (after the build, after the
// schedule, after the save, after the cold rebuild, after the quality
// build) rather than in one stretch, and on each CPU in turn; each metric
// is the median over all its blocks.
//
// Fresh-service restores per block (three blocks after the save);
// restore_s is the median of all of them.
constexpr int kRestoreReps = 8;
// Per block (four per run), each app request type runs at least
// kAppMinRequests requests and until kAppSeconds have passed (capped at
// kAppMaxRequests), the types taking turns; *_ms is the median. In one
// 1 s stretch, auto-join on flat's store (~35 ms a request) gave ~30
// samples and a ten-seed spread of 0.21.
constexpr size_t kAppMinRequests = 12;
constexpr size_t kAppMaxRequests = 1000;
constexpr double kAppSeconds = 0.625;
// A failed or refused request counts as this latency (the client's own
// timeout), so it enters the percentiles as a miss.
constexpr double kMissUs = 30e6;
// Interleaved blocks for the traced in-process vs remote comparison.
constexpr int kCompareBlocks = 6;
constexpr size_t kCompareBlockRequests = 200;
// A replayed step and the program's own series for the same step are two
// executions of the same work, so they differ by the machine's noise (2-17%
// in traced runs at seed 42 on a 4-vCPU VM); a replay that took another
// path (delta engine vs full rebuild) would differ several-fold.
constexpr double kReplayTolerance = 0.25;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long voluntary_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
          static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6,
          ru.ru_nvcsw};
}

/// One series' value in a metrics exposition (0 when absent).
double SeriesValue(const std::string& text, const std::string& key) {
  const std::string needle = key + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    pos += needle.size();
  }
  return 0.0;
}

/// Seconds the program's own histogram `key` (a `_sum` series in µs) grew
/// between two expositions.
double SeriesDeltaS(const std::string& before, const std::string& after,
                    const std::string& key) {
  return (SeriesValue(after, key) - SeriesValue(before, key)) * 1e-6;
}

std::string Exposition() {
  return ms::obs::MetricsRegistry::Global().ExpositionText();
}

std::string StageKey(const char* stage) {
  return std::string("ms_synth_stage_us_sum{stage=\"") + stage + "\"}";
}

/// The CPUs this process may use, or none when it may use only one.
///
/// Short single-threaded operations (set-up, restores) and the serving
/// pair (client thread and server worker) run pinned, on each of these CPUs
/// in turn. On a shared 4-vCPU VM one vCPU ran the same restore loop up to
/// 30% slower than another, and which vCPU was slow changed over minutes;
/// unpinned, the scheduler keeps a busy thread on one vCPU, so a run's
/// median inherited that vCPU's speed (restore medians of identical
/// processes fell into two groups 25% apart). Taking turns over every vCPU
/// measures the machine's typical speed instead.
///
/// The client thread and the server worker share one CPU: a closed-loop
/// request then costs two context switches there, where across CPUs it
/// costs two wake-ups whose price on a VM depends on where the scheduler
/// placed the threads (whole runs differed by 2x in p90 for that reason).
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0 || CPU_COUNT(&set) < 2) {
    return cpus;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Ids of this process's threads.
std::set<pid_t> ThreadIds() {
  std::set<pid_t> ids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.insert(static_cast<pid_t>(std::atoi(e.path().filename().c_str())));
  }
  return ids;
}

/// Pins the calling thread to `cpu` (-1: no-op) until destroyed. Threads
/// the pinned thread creates inherit the pin.
class CpuPin {
 public:
  explicit CpuPin(int cpu) {
    if (cpu < 0 ||
        pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// ------------------------------------------------------------ digests

uint64_t Fnv(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// One mapping's identity: its kept-table count and its pairs as strings,
/// sorted — independent of pool ids and of candidate numbering.
uint64_t MappingHash(const ms::SynthesizedMapping& m,
                     const ms::StringPool& pool) {
  std::vector<std::string> pairs;
  pairs.reserve(m.merged.size());
  for (const ms::ValuePair& p : m.merged.pairs()) {
    std::string s(pool.Get(p.left));
    s.push_back('\x1f');
    s.append(pool.Get(p.right));
    pairs.push_back(std::move(s));
  }
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = Fnv(1469598103934665603ULL, std::to_string(m.kept_tables.size()));
  for (const std::string& s : pairs) h = Fnv(Fnv(h, s), "\x1e");
  return h;
}

std::vector<uint64_t> MappingHashes(const ms::SynthesisResult& r,
                                    const ms::StringPool& pool) {
  std::vector<uint64_t> out;
  out.reserve(r.mappings.size());
  for (const auto& m : r.mappings) out.push_back(MappingHash(m, pool));
  std::sort(out.begin(), out.end());
  return out;
}

/// Order-independent digest of a mapping set.
std::string Digest(const std::vector<uint64_t>& sorted_hashes) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t x : sorted_hashes) {
    h = Fnv(h, std::string_view(reinterpret_cast<const char*>(&x), sizeof x));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::to_string(sorted_hashes.size()) + ":" + buf;
}

// ------------------------------------------------------------ the run

/// The staged artifacts of one session, advanced by each replayed mutation.
struct Family {
  ms::CandidateSet candidates;
  ms::BlockedPairs blocked;
  ms::ScoredGraph scored;
  ms::Partitions partitions;
  ms::SynthesisResult result;
};

class Run {
 public:
  explicit Run(const RunConfig& config)
      : cfg_(config), tr_(config.trace, 0) {
    std::filesystem::create_directories(cfg_.work_dir);
    const std::string stem = cfg_.work_dir + "/" + cfg_.workload;
    corpus_path_ = stem + ".tsv";
    cold_path_ = stem + "-cold.tsv";
    snapshot_path_ = stem + ".mssnap";
    trace_path_ = stem + "-seed" + std::to_string(cfg_.seed) + ".trace.tsv";
  }

  ~Run() { TearDownServing(); }

  RunReport Execute() {
    origin_ns_ = phase_ns_ = NowNs();
    if (!Setup() || !Build()) return Finish();
    Phase("setup+build");
    if (cfg_.trace) ReplayBuild();
    ResolveLookupTargets();
    AppBlock();
    Phase("replay+apps");
    if (!inputs_->shape.reads_during_writes) {
      Schedule();
    } else {
      std::thread reader([this] { ReaderDuringWrites(); });
      Schedule();
      stop_reader_.store(true);
      reader.join();
    }
    RecordLookups();
    Phase("schedule");
    AppBlock();
    if (cfg_.trace) CompareReadPaths();
    report_.final_digest = Digest(ServedHashes(*svc_));
    Save();
    RestoreBlock();
    e2e_["peak_rss_mb"] = PeakRssMb();
    AppBlock();
    Phase("apps+save+restore");
    CheckAgainstReference();
    e2e_["synth_s"] = Median(build_s_);
    RestoreBlock();
    AppBlock();
    Phase("reference");
    Quality();
    RestoreBlock();
    RecordAppsAndRestores();
    Phase("quality");
    return Finish();
  }

 private:
  // --------------------------------------------------------- bookkeeping

  /// Progress on stderr: wall time of the phase that just ended.
  void Phase(const char* name) {
    const int64_t now = NowNs();
    std::fprintf(stderr, "msbench: %-16s %7.2f s\n", name, Seconds(now - phase_ns_));
    phase_ns_ = now;
  }

  void Problem(std::string what) {
    report_.correct = false;
    report_.problems.push_back(std::move(what));
  }

  /// Counts one attempted operation; a failure is also a problem.
  bool Count(const Status& s, const std::string& what) {
    ++report_.attempted;
    if (s.ok()) return true;
    ++report_.failed;
    Problem(what + ": " + s.ToString());
    return false;
  }

  /// The CPU for the `turn`-th pinned measurement (-1: no pinning).
  int CpuAt(size_t turn) const {
    return cpus_.empty() ? -1 : cpus_[turn % cpus_.size()];
  }

  /// Moves the server's threads to `cpu` (-1: no-op); the client thread
  /// pins itself to the same CPU with a CpuPin.
  void PinServer(int cpu) const {
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    for (pid_t tid : server_threads_) sched_setaffinity(tid, sizeof one, &one);
  }

  std::vector<uint64_t> ServedHashes(const ms::MappingService& svc) const {
    const auto snap = svc.AcquireSnapshot();
    if (!snap) return {};
    return MappingHashes(*snap->result, *snap->pool);
  }

  void TearDownServing() {
    client_.reset();
    if (server_) server_->Stop();
    server_.reset();
    svc_.reset();
  }

  // --------------------------------------------------------------- setup

  /// Input generation (the workload's corpus and requests, and corpusgen's
  /// ground-truth world), corpus file, service and server start, one client
  /// round trip. Repeated; the last repetition's objects are kept.
  bool Setup() {
    std::vector<double> setup_s, generate_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      TearDownServing();
      inputs_.reset();
      world_.reset();
      const int64_t t0 = NowNs();
      {
        // Generation on this repetition's CPU; the service below is made
        // unpinned, because its synthesis threads would inherit a pin.
        CpuPin pin(CpuAt(rep));
        inputs_ = MakeInputs(cfg_.workload, cfg_.seed);
        Scope span(tr_, "corpusgen.generate");
        const int64_t g0 = NowNs();
        world_ = MakeQualityWorld();
        generate_s.push_back(Seconds(NowNs() - g0));
      }
      if (!Count(ms::SaveCorpus(inputs_->corpus, corpus_path_), "SaveCorpus")) {
        return false;
      }
      svc_ = std::make_unique<ms::MappingService>(inputs_->options);
      if (!Count(svc_->status(), "MappingService options")) return false;
      ms::net::ServerOptions so;
      so.num_workers = 1;
      server_ = std::make_unique<ms::net::MappingServer>(*svc_, so);
      const std::set<pid_t> before = ThreadIds();
      if (!Count(server_->Start(), "MappingServer::Start")) return false;
      // The threads Start made are the server's; serving blocks pin them.
      server_threads_.clear();
      for (pid_t tid : ThreadIds()) {
        if (!before.count(tid)) server_threads_.push_back(tid);
      }
      auto client = ms::net::MappingClient::Connect("127.0.0.1", server_->port());
      if (!Count(client.status(), "MappingClient::Connect")) return false;
      client_ = std::make_unique<ms::net::MappingClient>(std::move(client).value());
      if (!Count(client_->Health().status(), "Health")) return false;
      setup_s.push_back(Seconds(NowNs() - t0));
    }
    e2e_["setup_s"] = Median(setup_s);
    layers_["corpusgen.generate_s"] = Median(generate_s);
    return true;
  }

  // --------------------------------------------------------------- build

  bool Build() {
    const std::string before = Exposition();
    int64_t t0 = 0;
    Status s;
    {
      Scope span(tr_, "service.synthesize");
      t0 = NowNs();
      s = svc_->SynthesizeFromFile(corpus_path_);
    }
    build_s_.push_back(Seconds(NowNs() - t0));
    if (!Count(s, "SynthesizeFromFile")) return false;
    const std::string after = Exposition();
    double stages = 0.0;
    for (const char* st : {"extract", "block", "score", "partition", "resolve"}) {
      stages += SeriesDeltaS(before, after, StageKey(st));
    }
    reconcile_ << "service.synthesize\t" << build_s_.back()
               << "\tsum(ms_synth_stage_us)\t" << stages << "\n";
    report_.build_digest = Digest(ServedHashes(*svc_));
    return true;
  }

  /// Replays the build through the layers' own public calls: the staged
  /// session chain (one span per stage), then the inverted index, the
  /// extraction, and every coherence test extraction makes.
  void ReplayBuild() {
    const ms::SynthesisOptions& opts = inputs_->options;
    {
      Scope span(tr_, "table.load");
      const int64_t t0 = NowNs();
      Count(ms::LoadCorpus(corpus_path_, &replay_corpus_), "LoadCorpus");
      layers_["table.load_s"] = Seconds(NowNs() - t0);
    }
    session_ = std::make_unique<ms::SynthesisSession>(opts);
    const std::string before = Exposition();
    std::map<std::string, double> span_s;
    auto stage = [&](const char* name, auto&& call) {
      const int id = tr_.Begin(name);
      const int64_t t0 = NowNs();
      const Status s = call();
      span_s[name] = Seconds(NowNs() - t0);
      tr_.End(id);
      return Count(s, name);
    };
    Usage u0, u1;
    const int parent = tr_.Begin("synth.build");
    const int64_t chain0 = NowNs();
    bool ok = stage("synth.extract", [&] {
      auto r = session_->ExtractCandidates(replay_corpus_);
      if (r.ok()) fam_.candidates = std::move(r).value();
      return r.status();
    });
    ok = ok && stage("synth.block", [&] {
      auto r = session_->BlockPairs(fam_.candidates);
      if (r.ok()) fam_.blocked = std::move(r).value();
      return r.status();
    });
    ok = ok && stage("synth.score", [&] {
      u0 = ProcessUsage();
      auto r = session_->ScorePairs(fam_.candidates, fam_.blocked);
      u1 = ProcessUsage();
      if (r.ok()) fam_.scored = std::move(r).value();
      return r.status();
    });
    ok = ok && stage("synth.partition", [&] {
      auto r = session_->Partition(fam_.scored);
      if (r.ok()) fam_.partitions = std::move(r).value();
      return r.status();
    });
    ok = ok && stage("synth.resolve", [&] {
      auto r = session_->Resolve(fam_.candidates, fam_.scored, fam_.partitions);
      if (r.ok()) fam_.result = std::move(r).value();
      return r.status();
    });
    const double chain_s = Seconds(NowNs() - chain0);
    tr_.End(parent);
    if (!ok) return;
    have_family_ = true;
    const std::string after = Exposition();

    // The chain is a cold build of the same corpus: it must serve exactly
    // what the service built.
    if (Digest(MappingHashes(fam_.result, replay_corpus_.pool())) !=
        report_.build_digest) {
      Problem("staged cold chain disagrees with the service build");
    }
    // Stage spans must sum to their parent, and each must agree with the
    // program's own ms_synth_stage_us series for the same calls.
    double children = 0.0;
    const std::pair<const char*, const char*> stages[] = {
        {"synth.extract", "extract"}, {"synth.block", "block"},
        {"synth.score", "score"},     {"synth.partition", "partition"},
        {"synth.resolve", "resolve"}};
    for (const auto& [span, series] : stages) {
      children += span_s[span];
      const double program = SeriesDeltaS(before, after, StageKey(series));
      reconcile_ << span << "\t" << span_s[span] << "\tms_synth_stage_us{"
                 << series << "}\t" << program << "\n";
      if (std::fabs(span_s[span] - program) > 0.05 * span_s[span] + 0.005) {
        Problem(std::string("span ") + span +
                " disagrees with ms_synth_stage_us{stage=" + series + "}");
      }
    }
    reconcile_ << "synth.build\t" << chain_s << "\tsum(stages)\t" << children
               << "\n";
    if (std::fabs(chain_s - children) > 0.03 * chain_s + 0.002) {
      Problem("stage spans do not sum to synth.build");
    }
    build_chain_s_ = chain_s;

    const ms::PipelineStats& ps = fam_.result.stats;
    layers_["synth.block_s"] = span_s["synth.block"];
    layers_["synth.block_map_shuffle_s"] = ps.blocking_map_shuffle_seconds;
    layers_["synth.block_count_s"] = ps.blocking_count_seconds;
    layers_["synth.block_reduce_s"] = ps.blocking_reduce_seconds;
    layers_["synth.blocked_pairs"] = static_cast<double>(ps.candidate_pairs);
    layers_["synth.dropped_postings"] =
        static_cast<double>(ps.blocking_dropped_postings);
    layers_["synth.score_s"] = span_s["synth.score"];
    layers_["synth.score_user_s"] = u1.user_s - u0.user_s;
    layers_["synth.score_sys_s"] = u1.sys_s - u0.sys_s;
    layers_["synth.score_ctx_switches"] =
        static_cast<double>(u1.voluntary_switches - u0.voluntary_switches);
    layers_["synth.graph_edges"] = static_cast<double>(ps.graph_edges);
    const ms::MatcherStats& ks = ps.scoring.matcher;
    layers_["text.myers64_calls"] = static_cast<double>(ks.myers64_calls);
    layers_["text.myers_blocked_calls"] =
        static_cast<double>(ks.myers_blocked_calls);
    layers_["text.banded_calls"] = static_cast<double>(ks.banded_calls);
    layers_["text.mask_hit_ratio"] =
        Ratio(ks.pattern_cache_hits, ks.pattern_cache_hits + ks.pattern_cache_misses);
    layers_["synth.overlap_skip_ratio"] =
        Ratio(ps.scoring.overlap_merges_skipped, ps.candidate_pairs);
    layers_["synth.partition_s"] = span_s["synth.partition"];
    layers_["synth.resolve_s"] = span_s["synth.resolve"];
    layers_["synth.components"] = static_cast<double>(ps.components);
    layers_["synth.mappings"] = static_cast<double>(ps.mappings);

    ReplayExtraction(span_s["synth.extract"]);
  }

  /// Splits the extract stage: index build, extraction, and a replay of
  /// every coherence test extraction makes (same thread count, same order
  /// of work), so extract.self_s = extraction - coherence.
  void ReplayExtraction(double extract_stage_s) {
    const ms::ExtractionOptions& eo = inputs_->options.extraction;
    ms::TableCorpus corpus;
    if (!Count(ms::LoadCorpus(corpus_path_, &corpus), "LoadCorpus")) return;
    ms::ThreadPool pool(inputs_->options.num_threads);
    ms::ColumnInvertedIndex index;
    double index_s = 0.0, extract_s = 0.0, coherence_s = 0.0;
    ms::ExtractionResult ex;
    {
      Scope span(tr_, "stats.index_build");
      const int64_t t0 = NowNs();
      index.Build(corpus, &pool);
      index_s = Seconds(NowNs() - t0);
    }
    {
      const int id = tr_.Begin("extract");
      const int64_t t0 = NowNs();
      ex = ms::ExtractCandidates(corpus, index, eo, &pool);
      extract_s = Seconds(NowNs() - t0);
      tr_.End(id);
    }
    std::atomic<size_t> columns{0};
    {
      Scope span(tr_, "stats.coherence");
      const int64_t t0 = NowNs();
      pool.ParallelFor(corpus.size(), [&](size_t ti) {
        const ms::Table& t = corpus.table(ti);
        if (t.num_columns() < 2 || t.num_columns() > eo.max_columns) return;
        for (const ms::Column& c : t.columns) {
          ms::CoherenceProfile profile;
          ms::ColumnPassesCoherence(index, c, eo, &profile);
        }
        columns.fetch_add(t.num_columns(), std::memory_order_relaxed);
      });
      coherence_s = Seconds(NowNs() - t0);
    }
    reconcile_ << "stats.index_build+extract\t" << index_s + extract_s
               << "\tsynth.extract\t" << extract_stage_s << "\n";
    layers_["stats.index_build_s"] = index_s;
    layers_["stats.coherence_s"] = coherence_s;
    layers_["stats.coherence_columns"] = static_cast<double>(columns.load());
    layers_["extract.self_s"] = std::max(0.0, extract_s - coherence_s);
    layers_["extract.candidates"] = static_cast<double>(ex.candidates.size());
    layers_["extract.fd_keep_ratio"] =
        Ratio(ex.stats.pairs_kept, ex.stats.pairs_considered);
    layers_["extract.normalize_hit_ratio"] =
        Ratio(ex.stats.normalize_cache_hits,
              ex.stats.normalize_cache_hits + ex.stats.normalize_cache_misses);
    // Shares of the staged build, for the design record.
    shares_ << "build: score " << Ratio(layers_["synth.score_s"], build_chain_s_)
            << ", coherence " << Ratio(coherence_s, build_chain_s_)
            << ", index " << Ratio(index_s, build_chain_s_)
            << ", extract.self "
            << Ratio(layers_["extract.self_s"], build_chain_s_) << ", block "
            << Ratio(layers_["synth.block_s"], build_chain_s_) << "\n";
  }

  // --------------------------------------------------------------- reads

  /// Picks, for each lookup request, the served mapping holding most of its
  /// values on the left — what a client learns from an earlier auto-join.
  /// Untimed; uses the post-build snapshot.
  void ResolveLookupTargets() {
    auto targets = std::make_shared<std::vector<uint64_t>>();
    const auto snap = svc_->AcquireSnapshot();
    std::unordered_map<std::string_view, uint32_t> owner;
    const auto& mappings = snap->result->mappings;
    for (uint32_t i = 0; i < mappings.size(); ++i) {
      for (const ms::ValuePair& p : mappings[i].merged.pairs()) {
        owner.emplace(snap->pool->Get(p.left), i);
      }
    }
    if (normalized_lookups_.empty()) {
      const ms::NormalizeOptions& no = inputs_->options.extraction.normalize;
      for (const auto& request : inputs_->lookups) {
        normalized_lookups_.emplace_back();
        for (const std::string& v : request) {
          normalized_lookups_.back().push_back(ms::NormalizeCell(v, no));
        }
      }
    }
    for (size_t r = 0; r < normalized_lookups_.size(); ++r) {
      std::map<uint32_t, int> votes;
      for (const std::string& n : normalized_lookups_[r]) {
        auto it = owner.find(n);
        if (it != owner.end()) ++votes[it->second];
      }
      uint64_t best = mappings.empty() ? 0 : r % mappings.size();
      int best_votes = 0;
      for (const auto& [m, n] : votes) {
        if (n > best_votes) best = m, best_votes = n;
      }
      targets->push_back(best);
    }
    const std::lock_guard<std::mutex> lock(targets_mu_);
    targets_ = std::move(targets);
  }

  /// The mapping index each lookup request asks for, as of the last
  /// resolution; the reader thread re-reads it per request.
  std::shared_ptr<const std::vector<uint64_t>> Targets() const {
    const std::lock_guard<std::mutex> lock(targets_mu_);
    return targets_;
  }

  /// One remote LookupBatch; returns its latency in µs (kMissUs on failure).
  double RemoteLookup(ms::net::MappingClient& client, Tracer& tr, size_t i,
                      uint64_t request_id,
                      std::vector<std::optional<std::string>>* out) {
    const size_t r = i % inputs_->lookups.size();
    const uint64_t target = (*Targets())[r];
    const int id = tr.Begin("net.lookup", request_id);
    const int64_t t0 = NowNs();
    auto res = client.LookupBatch(target, inputs_->lookups[r]);
    const double us = static_cast<double>(NowNs() - t0) * 1e-3;
    tr.End(id);
    if (!res.ok()) return kMissUs;
    if (out) *out = std::move(res).value();
    return us;
  }

  /// Lookup latencies are kept per window (churn: one per schedule step;
  /// flat: one per CPU in each quiet stretch), and the end-to-end
  /// percentiles are medians over windows: a stall of the machine spoils
  /// one window, not the run.
  void RecordLookups() {
    std::vector<double> p50, p90, all;
    size_t failures = 0;
    std::string log = "lookup windows (n p50 p90):";
    for (const std::vector<double>& w : windows_) {
      if (w.empty()) continue;
      p50.push_back(Quantile(w, 0.50));
      p90.push_back(Quantile(w, 0.90));
      log += " " + std::to_string(w.size()) + " " +
             std::to_string(static_cast<int>(p50.back())) + " " +
             std::to_string(static_cast<int>(p90.back())) + ";";
      all.insert(all.end(), w.begin(), w.end());
      failures += std::count(w.begin(), w.end(), kMissUs);
    }
    std::fprintf(stderr, "%s\n", log.c_str());
    report_.attempted += all.size();
    report_.failed += failures;
    if (failures > 0) {
      Problem(std::to_string(failures) + " remote lookups failed");
    }
    e2e_["lookup_p50_us"] = Median(p50);
    e2e_["lookup_p90_us"] = Median(p90);
    layers_["net.lookup_p99_us"] = Quantile(all, 0.99);
    layers_["net.lookup_max_us"] =
        all.empty() ? 0.0 : *std::max_element(all.begin(), all.end());
  }

  /// Quiet closed loop on one connection for `seconds`, split into one
  /// window per CPU, each run on its CPU. The first window's first pass
  /// over the request list is checked against the in-process answer from
  /// the same snapshot.
  void QuietReads(double seconds) {
    const size_t n = std::max<size_t>(1, cpus_.size());
    const auto window_ns = static_cast<int64_t>(seconds * 1e9 / n);
    const auto targets = Targets();
    for (size_t c = 0; c < n; ++c) {
      const int cpu = CpuAt(windows_.size());
      PinServer(cpu);
      CpuPin pin(cpu);
      windows_.emplace_back();
      std::vector<double>& us = windows_.back();
      const bool first = windows_.size() == 1;
      const int64_t end = NowNs() + window_ns;
      for (size_t i = 0; NowNs() < end; ++i) {
        std::vector<std::optional<std::string>> got;
        const bool check = first && i < inputs_->lookups.size();
        const double t = RemoteLookup(*client_, tr_, i, ++request_ids_,
                                      check ? &got : nullptr);
        us.push_back(t);
        if (check && t != kMissUs &&
            got != svc_->LookupBatch((*targets)[i], inputs_->lookups[i])) {
          Problem("remote LookupBatch disagrees with the in-process answer");
        }
      }
    }
  }

  /// Closed loop on one connection from its own thread while the main
  /// thread runs the mutation schedule; each sample lands in the window of
  /// the mutation it overlapped, and each window's reads run on the next
  /// CPU.
  void ReaderDuringWrites() {
    Tracer tr(cfg_.trace, 1);
    std::vector<std::vector<double>> windows(inputs_->schedule.size() + 1);
    std::optional<CpuPin> pin;
    size_t pinned_window = windows.size();
    for (size_t i = 0; !stop_reader_.load(std::memory_order_relaxed); ++i) {
      const size_t w = window_.load(std::memory_order_relaxed);
      if (w != pinned_window) {
        pinned_window = w;
        pin.reset();
        PinServer(CpuAt(w));
        pin.emplace(CpuAt(w));
      }
      const double t = RemoteLookup(*client_, tr, i, (1ULL << 40) + i, nullptr);
      windows[std::min(w, windows.size() - 1)].push_back(t);
    }
    windows_ = std::move(windows);
    reader_tr_ = std::make_unique<Tracer>(std::move(tr));
  }

  /// One app request type: its span, its call per request index, and the
  /// latencies measured so far (ms).
  struct AppLoop {
    const char* span;
    size_t requests;
    std::function<Status(size_t)> call;
    std::vector<double> ms = {};
  };

  /// One block of app requests: remote auto-correct, auto-fill and
  /// auto-join in turn, each for kAppSeconds; traced runs then time the
  /// same calls in process.
  void AppBlock() {
    Inputs& in = *inputs_;
    if (remote_apps_.empty()) {
      remote_apps_ = {
          {"net.correct", in.corrections.size(),
           [this](size_t i) {
             return client_->SuggestCorrections(inputs_->corrections[i]).status();
           }},
          {"net.fill", in.fills.size(),
           [this](size_t i) {
             const FillRequest& f = inputs_->fills[i];
             return client_->AutoFill(f.keys, f.examples).status();
           }},
          {"net.join", in.joins.size(), [this](size_t i) {
             const JoinRequest& j = inputs_->joins[i];
             return client_->AutoJoin(j.left, j.right).status();
           }}};
      local_apps_ = {
          {"apps.correct", in.corrections.size(),
           [this](size_t i) {
             svc_->SuggestCorrections(inputs_->corrections[i]);
             return Status::OK();
           }},
          {"apps.fill", in.fills.size(),
           [this](size_t i) {
             const FillRequest& f = inputs_->fills[i];
             svc_->AutoFill(f.keys, f.examples);
             return Status::OK();
           }},
          {"apps.join", in.joins.size(), [this](size_t i) {
             const JoinRequest& j = inputs_->joins[i];
             svc_->AutoJoin(j.left, j.right);
             return Status::OK();
           }}};
    }
    RunAppLoops(remote_apps_);
    if (cfg_.trace) RunAppLoops(local_apps_);
    ++app_blocks_;
  }

  /// Each request type runs on the next CPU in each block, so over the
  /// run every type takes its turn on every CPU.
  void RunAppLoops(std::vector<AppLoop>& loops) {
    const auto block_ns = static_cast<int64_t>(kAppSeconds * 1e9);
    for (size_t t = 0; t < loops.size(); ++t) {
      AppLoop& l = loops[t];
      const int cpu = CpuAt(app_blocks_ + t);
      PinServer(cpu);
      CpuPin pin(cpu);
      const int64_t end = NowNs() + block_ns;
      for (size_t k = 0;
           k < kAppMaxRequests && (k < kAppMinRequests || NowNs() < end); ++k) {
        const int id = tr_.Begin(l.span, ++request_ids_);
        const int64_t t0 = NowNs();
        const Status s = l.call(l.ms.size() % l.requests);
        const double ms_time = static_cast<double>(NowNs() - t0) * 1e-6;
        tr_.End(id);
        ++report_.attempted;
        if (!s.ok()) {
          ++report_.failed;
          Problem(std::string(l.span) + ": " + s.ToString());
        }
        l.ms.push_back(s.ok() ? ms_time : kMissUs * 1e-3);
      }
    }
  }

  /// The medians over every block of app requests and restores.
  void RecordAppsAndRestores() {
    static const char* kAppMetric[] = {"correct_ms", "fill_ms", "join_ms"};
    for (size_t t = 0; t < remote_apps_.size(); ++t) {
      e2e_[kAppMetric[t]] = Median(remote_apps_[t].ms);
      if (cfg_.trace) {
        layers_[std::string("apps.") + kAppMetric[t]] = Median(local_apps_[t].ms);
      }
    }
    e2e_["restore_s"] = Median(restore_s_);
    layers_["persist.restore_s"] = Median(session_restore_s_);
    layers_["persist.open_store_s"] =
        Median(restore_s_) - Median(session_restore_s_);
  }

  /// Traced only: interleaved blocks of remote lookups, in-process lookups,
  /// and in-process lookups under the benchmark's spans, over the same
  /// requests — the wire's share of a request and the tracing overhead.
  void CompareReadPaths() {
    PinServer(CpuAt(0));
    CpuPin pin(CpuAt(0));
    const auto targets = Targets();
    std::vector<double> remote_us, local_us, local_plain_ns, local_traced_ns;
    size_t local_hits = 0, local_values = 0;
    Tracer scratch(true, 2);
    for (int b = 0; b < kCompareBlocks; ++b) {
      for (size_t k = 0; k < kCompareBlockRequests; ++k) {
        remote_us.push_back(RemoteLookup(*client_, tr_, k, ++request_ids_, nullptr));
      }
      for (int pass = 0; pass < 2; ++pass) {
        // Alternate which variant goes first, so warm-up favours neither.
        const int traced = (pass + b) % 2;
        const int64_t block0 = NowNs();
        for (size_t k = 0; k < kCompareBlockRequests; ++k) {
          const size_t r = k % inputs_->lookups.size();
          const int id = traced ? scratch.Begin("apps.lookup", k + 1) : -1;
          const int64_t t0 = NowNs();
          const auto res = svc_->LookupBatch((*targets)[r], inputs_->lookups[r]);
          local_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
          scratch.End(id);
          for (const auto& v : res) local_hits += v.has_value();
          local_values += res.size();
        }
        (traced ? local_traced_ns : local_plain_ns)
            .push_back(static_cast<double>(NowNs() - block0));
      }
    }
    report_.attempted += remote_us.size();
    const size_t misses = std::count(remote_us.begin(), remote_us.end(), kMissUs);
    report_.failed += misses;
    if (misses > 0) Problem(std::to_string(misses) + " remote lookups failed");
    const double remote_p50 = Quantile(remote_us, 0.5);
    const double local_p50 = Quantile(local_us, 0.5);
    layers_["apps.lookup_us"] = local_p50;
    layers_["apps.lookup_hit_ratio"] = Ratio(local_hits, local_values);
    layers_["net.overhead_us"] = remote_p50 - local_p50;
    layers_["obs.trace_overhead_ratio"] =
        Ratio(Mean(local_traced_ns), Mean(local_plain_ns));
    const ms::net::StatsResponse st = server_->GetStats();
    for (const auto& [type, ts] : st.per_type) {
      if (type == static_cast<uint8_t>(ms::net::MsgType::kLookupBatchReq)) {
        layers_["net.server_lookup_p50_us"] = ts.p50_us;
      }
    }
    layers_["net.bytes_per_request"] =
        Ratio(static_cast<double>(st.bytes_in + st.bytes_out), st.total_requests);
    layers_["net.requests"] = static_cast<double>(st.total_requests);
    layers_["net.errors"] = static_cast<double>(st.total_errors);
    reconcile_ << "net.lookup p50 (client)\t" << remote_p50
               << "\tms_net_request_us{lookup_batch} p50 (server)\t"
               << layers_["net.server_lookup_p50_us"] << "\n";
  }

  // ------------------------------------------------------------ schedule

  Status ServiceMutate(const Mutation& m) {
    switch (m.kind) {
      case Mutation::Kind::kAppend:
        return svc_->AppendAndResynthesize(m.delta);
      case Mutation::Kind::kRemove:
        return svc_->RemoveAndResynthesize(m.removed);
      case Mutation::Kind::kReplace:
        return svc_->ReplaceAndResynthesize(m.removed, m.delta);
    }
    return Status::Internal("unknown mutation");
  }

  ms::Result<ms::AppendedArtifacts> SessionMutate(const Mutation& m) {
    Family& f = fam_;
    switch (m.kind) {
      case Mutation::Kind::kAppend:
        return session_->AppendCorpus(&replay_corpus_, m.delta, f.candidates,
                                      f.blocked, f.scored, f.partitions,
                                      f.result);
      case Mutation::Kind::kRemove:
        return session_->RemoveTables(&replay_corpus_, m.removed, f.candidates,
                                      f.blocked, f.scored, f.partitions,
                                      f.result);
      case Mutation::Kind::kReplace:
        return session_->ReplaceTables(&replay_corpus_, m.removed, m.delta,
                                       f.candidates, f.blocked, f.scored,
                                       f.partitions, f.result);
    }
    return Status::Internal("unknown mutation");
  }

  /// One traced mutation: the service call, the program's own series for
  /// that call, and the benchmark's replay of its two parts.
  struct Split {
    double service = 0.0;          ///< benchmark span around the service call
    double program_session = 0.0;  ///< ms_synth_stage_us{append} in the call
    double program_publish = 0.0;  ///< ms_serving_publish_us in the call
    double program_store = 0.0;    ///< ms_serving_store_rebuild_us in the call
    double session = 0.0;          ///< replayed session call
    double store = 0.0;            ///< replayed MappingStore build
  };

  void Schedule() {
    std::map<Mutation::Kind, std::vector<double>> service_s, session_s;
    std::vector<Split> splits;
    size_t delta_pairs = 0, dirty = 0, unstable = 0, rebuilds = 0;
    size_t skips = 0, rechecks = 0;
    std::vector<double> carried;
    static const char* kServiceSpan[] = {"service.append", "service.remove",
                                         "service.replace"};
    static const char* kSessionSpan[] = {"synth.append", "synth.remove",
                                         "synth.replace"};
    const bool quiet_reads = !inputs_->shape.reads_during_writes;
    const double reads_s =
        cfg_.seconds / static_cast<double>(inputs_->schedule.size() + 1);
    if (quiet_reads) QuietReads(reads_s);
    for (size_t step = 0; step < inputs_->schedule.size(); ++step) {
      const Mutation& m = inputs_->schedule[step];
      const int k = static_cast<int>(m.kind);
      window_.store(step, std::memory_order_relaxed);
      const std::string before = cfg_.trace ? Exposition() : std::string();
      const int id = tr_.Begin(kServiceSpan[k], ++request_ids_);
      const int64_t t0 = NowNs();
      const Status s = ServiceMutate(m);
      const double service = Seconds(NowNs() - t0);
      tr_.End(id);
      service_s[m.kind].push_back(s.ok() ? service : kMissUs * 1e-6);
      Count(s, std::string("service ") + KindName(m.kind));
      // Clients re-learn mapping indices after a publish.
      ResolveLookupTargets();
      if (quiet_reads) QuietReads(reads_s);
      if (!cfg_.trace || !have_family_) continue;

      // The program's own split of the service call (every session delta
      // records the "append" stage), then a replay of both parts — the
      // session call, and the store build a publish performs — under the
      // benchmark's spans.
      Split sp;
      sp.service = service;
      const std::string after = Exposition();
      sp.program_session = SeriesDeltaS(before, after, StageKey("append"));
      sp.program_publish =
          SeriesDeltaS(before, after, "ms_serving_publish_us_sum");
      sp.program_store =
          SeriesDeltaS(before, after, "ms_serving_store_rebuild_us_sum");
      const int sid = tr_.Begin(kSessionSpan[k]);
      const int64_t s0 = NowNs();
      auto r = SessionMutate(m);
      sp.session = Seconds(NowNs() - s0);
      tr_.End(sid);
      if (!Count(r.status(), std::string("session ") + KindName(m.kind))) {
        have_family_ = false;
        continue;
      }
      ms::AppendedArtifacts a = std::move(r).value();
      const ms::AppendStats& st = a.append;
      delta_pairs += st.delta_pairs;
      dirty += st.dirty_components;
      unstable += st.unstable_tables;
      rebuilds += st.full_rebuild;
      skips += st.margin_skips;
      rechecks += st.margin_rechecks;
      carried.push_back(Ratio(st.carried_mappings, a.result.mappings.size()));
      fam_ = Family{std::move(a.candidates), std::move(a.blocked),
                    std::move(a.scored), std::move(a.partitions),
                    std::move(a.result)};
      {
        Scope span(tr_, "apps.store_build");
        const int64_t b0 = NowNs();
        ms::MappingStore store(replay_corpus_.shared_pool(),
                               inputs_->options.extraction.normalize);
        for (const auto& mp : fam_.result.mappings) {
          store.Add(mp, mp.left_label + "->" + mp.right_label);
        }
        sp.store = Seconds(NowNs() - b0);
      }
      session_s[m.kind].push_back(sp.session);
      reconcile_ << "service." << KindName(m.kind) << "\t" << service
                 << "\tms_synth_stage_us{append} + ms_serving_publish_us\t"
                 << sp.program_session + sp.program_publish
                 << "\tsession replay\t" << sp.session
                 << "\tms_serving_store_rebuild_us\t" << sp.program_store
                 << "\tstore replay\t" << sp.store << "\n";
      // The program's two parts run one after the other inside the call.
      if (sp.program_session + sp.program_publish > service + 0.001) {
        Problem(std::string("ms_synth_stage_us{append} + ms_serving_publish_us "
                            "exceed the service.") + KindName(m.kind) + " span");
      }
      splits.push_back(sp);
    }
    for (const auto& [kind, v] : service_s) {
      e2e_[std::string(KindName(kind)) + "_ms"] = Median(v) * 1e3;
    }
    if (!cfg_.trace || splits.empty()) return;
    for (const auto& [kind, v] : session_s) {
      layers_[std::string("synth.") + KindName(kind) + "_s"] = Median(v);
    }
    layers_["synth.delta_pairs"] = static_cast<double>(delta_pairs);
    layers_["synth.dirty_components"] = static_cast<double>(dirty);
    layers_["synth.carried_ratio"] = Mean(carried);
    layers_["synth.unstable_tables"] = static_cast<double>(unstable);
    layers_["synth.full_rebuilds"] = static_cast<double>(rebuilds);
    layers_["stats.margin_skip_ratio"] = Ratio(skips, skips + rechecks);
    layers_["stats.margin_rechecks"] = static_cast<double>(rechecks);
    Split total;
    std::vector<double> store_s, publish_s;
    for (const Split& sp : splits) {
      total.service += sp.service;
      total.program_session += sp.program_session;
      total.program_publish += sp.program_publish;
      total.program_store += sp.program_store;
      total.session += sp.session;
      total.store += sp.store;
      store_s.push_back(sp.store);
      publish_s.push_back(sp.program_publish);
    }
    layers_["apps.store_build_s"] = Median(store_s);
    layers_["apps.publish_s"] = Median(publish_s);
    // The replays stand for the program's own parts only if they cost the
    // same over the schedule.
    const std::pair<const char*, std::pair<double, double>> replays[] = {
        {"session replay vs ms_synth_stage_us{append}",
         {total.session, total.program_session}},
        {"store replay vs ms_serving_store_rebuild_us",
         {total.store, total.program_store}}};
    for (const auto& [what, v] : replays) {
      reconcile_ << "schedule total: " << what << "\t" << v.first << "\t"
                 << v.second << "\n";
      if (std::fabs(v.first - v.second) > kReplayTolerance * v.second + 0.01) {
        Problem(std::string("schedule total: ") + what + " differ by more than " +
                std::to_string(kReplayTolerance));
      }
    }
    shares_ << "mutations (program series): session delta "
            << Ratio(total.program_session, total.service) << ", publish "
            << Ratio(total.program_publish, total.service)
            << " (store rebuild "
            << Ratio(total.program_store, total.service) << ")\n";
  }

  // --------------------------------------------------------- persistence

  void Save() {
    {
      Scope span(tr_, "persist.save");
      const int64_t t0 = NowNs();
      const Status s = svc_->SaveSnapshot(snapshot_path_);
      layers_["persist.save_s"] = Seconds(NowNs() - t0);
      saved_ = Count(s, "SaveSnapshot");
      if (!saved_) return;
    }
    std::error_code ec;
    e2e_["snapshot_mb"] =
        static_cast<double>(std::filesystem::file_size(snapshot_path_, ec)) / 1e6;
    const auto snap = svc_->AcquireSnapshot();
    const ms::StringPool& pool = *snap->pool;
    size_t pool_bytes = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      pool_bytes += pool.Get(static_cast<ms::ValueId>(i)).size();
    }
    layers_["table.pool_strings"] = static_cast<double>(pool.size());
    layers_["table.pool_mb"] = static_cast<double>(pool_bytes) / 1e6;
    const ms::ServiceHealth health = svc_->health();
    layers_["persist.env_retries"] = static_cast<double>(health.retries_performed);
    layers_["persist.io_failures"] = static_cast<double>(health.io_failures);
  }

  /// kRestoreReps restores of the saved snapshot, each on a fresh service,
  /// on the next CPU, and timed to its first served read; traced runs also
  /// restore the session alone and check it against ms_persist_restore_us.
  void RestoreBlock() {
    if (!saved_) return;
    for (int rep = 0; rep < kRestoreReps; ++rep) {
      ms::MappingService fresh(inputs_->options);
      std::optional<ms::SynthesisSession> session;
      if (cfg_.trace) session.emplace(inputs_->options);
      // Both are made before the pin: their synthesis threads would
      // inherit it.
      CpuPin pin(CpuAt(restore_s_.size()));
      const int id = tr_.Begin("service.restore", ++request_ids_);
      const int64_t t0 = NowNs();
      const Status s = fresh.OpenFromSnapshot(snapshot_path_);
      const auto first = fresh.LookupBatch((*Targets())[0], inputs_->lookups[0]);
      const double restore = Seconds(NowNs() - t0);
      tr_.End(id);
      restore_s_.push_back(s.ok() ? restore : kMissUs * 1e-6);
      if (!Count(s, "OpenFromSnapshot")) continue;
      if (Digest(ServedHashes(fresh)) != report_.final_digest) {
        Problem("restored service does not serve the saved mappings");
      }
      if (!session) continue;
      const std::string before = Exposition();
      const int sid = tr_.Begin("persist.restore");
      const int64_t s0 = NowNs();
      const auto r = session->RestoreSnapshot(snapshot_path_);
      const double session_s = Seconds(NowNs() - s0);
      tr_.End(sid);
      const double program =
          SeriesDeltaS(before, Exposition(), "ms_persist_restore_us_sum");
      session_restore_s_.push_back(session_s);
      if (!Count(r.status(), "RestoreSnapshot")) continue;
      reconcile_ << "persist.restore\t" << session_s
                 << "\tms_persist_restore_us\t" << program << "\n";
      if (std::fabs(session_s - program) > 0.05 * session_s + 0.005) {
        Problem("span persist.restore disagrees with ms_persist_restore_us");
      }
    }
  }

  // ----------------------------------------------------------- reference

  /// Every run rebuilds the mutated corpus cold, through a fresh service,
  /// and the incrementally maintained service must serve exactly what that
  /// rebuild serves. Values recorded for the seed are checked as well.
  void CheckAgainstReference() {
    const Expected& want = cfg_.expected;
    if (!want.build_digest.empty() && report_.build_digest != want.build_digest) {
      Problem("build digest " + report_.build_digest + " != recorded " +
              want.build_digest);
    }
    if (!want.final_digest.empty() && report_.final_digest != want.final_digest) {
      Problem("post-schedule digest " + report_.final_digest + " != recorded " +
              want.final_digest);
    }
    if (!have_family_) {
      // Untraced: apply the schedule to a copy of the corpus file, exactly
      // as the service saw it.
      replay_corpus_ = ms::TableCorpus();
      if (!Count(ms::LoadCorpus(corpus_path_, &replay_corpus_), "LoadCorpus")) return;
      for (const Mutation& m : inputs_->schedule) {
        for (uint32_t id : m.removed) replay_corpus_.Tombstone(id);
        if (m.kind != Mutation::Kind::kRemove &&
            !Count(replay_corpus_.AppendFrom(m.delta).status(), "AppendFrom")) {
          return;
        }
      }
    } else if (Digest(MappingHashes(fam_.result, replay_corpus_.pool())) !=
               report_.final_digest) {
      Problem("session replay of the schedule disagrees with the service");
    }
    // The surviving tables, as a fresh corpus file.
    ms::TableCorpus live;
    for (const ms::Table& t : replay_corpus_.tables()) {
      if (t.columns.empty()) continue;
      std::vector<std::string> names;
      std::vector<std::vector<std::string>> cols;
      for (const ms::Column& c : t.columns) {
        names.push_back(c.name);
        cols.emplace_back();
        for (ms::ValueId v : c.cells) {
          cols.back().emplace_back(replay_corpus_.pool().Get(v));
        }
      }
      live.AddFromStrings(t.domain, t.source, names, cols);
    }
    if (!Count(ms::SaveCorpus(live, cold_path_), "SaveCorpus")) return;
    ms::MappingService cold(inputs_->options);
    const int id = tr_.Begin("service.synthesize");
    const int64_t t0 = NowNs();
    const Status s = cold.SynthesizeFromFile(cold_path_);
    build_s_.push_back(Seconds(NowNs() - t0));
    tr_.End(id);
    if (!Count(s, "cold SynthesizeFromFile")) return;
    const std::string cold_digest = Digest(ServedHashes(cold));
    if (cold_digest != report_.final_digest) {
      Problem("post-schedule digest " + report_.final_digest +
              " != cold rebuild " + cold_digest);
    }
  }

  // ------------------------------------------------------------- quality

  /// Builds corpusgen's ground-truth world through a fresh service with
  /// default options and scores the served mappings: quality_f1 is the
  /// mean best-relation F-score over the world's benchmark cases
  /// (eval/metrics). The workload corpora have no ground truth. One
  /// synthesis thread: two contend on the string-pool mutex in pair scoring
  /// (synth.score_sys_s), and this build's time is not a metric.
  void Quality() {
    ms::SynthesisOptions opts;
    opts.num_threads = 1;
    ms::MappingService svc(opts);
    Status s;
    {
      Scope span(tr_, "quality.synthesize");
      s = svc.Synthesize(world_->corpus);
    }
    if (!Count(s, "quality Synthesize")) return;
    const auto snap = svc.AcquireSnapshot();
    ms::StringPool& wp = world_->corpus.pool();
    std::vector<ms::BinaryTable> relations;
    for (const auto& m : snap->result->mappings) {
      std::vector<ms::ValuePair> pairs;
      for (const ms::ValuePair& p : m.merged.pairs()) {
        pairs.push_back({wp.Intern(snap->pool->Get(p.left)),
                         wp.Intern(snap->pool->Get(p.right))});
      }
      relations.push_back(ms::BinaryTable::FromPairs(std::move(pairs)));
    }
    std::vector<ms::PrfScore> per_case;
    for (const auto& c : world_->cases) {
      per_case.push_back(ms::FindBestRelation(relations, c.ground_truth).score);
    }
    report_.quality_f1 = ms::Aggregate(per_case).avg_fscore;
    e2e_["quality_f1"] = report_.quality_f1;
    // Recorded to four decimals.
    const double want = cfg_.expected.quality_f1;
    if (want >= 0.0 &&
        std::round(report_.quality_f1 * 1e4) != std::round(want * 1e4)) {
      Problem("quality_f1 " + std::to_string(report_.quality_f1) +
              " != recorded " + std::to_string(want));
    }
  }

  // -------------------------------------------------------------- output

  RunReport Finish() {
    TearDownServing();
    static const std::pair<const char*, const char*> kE2E[] = {
        {"setup_s", "s"},         {"synth_s", "s"},
        {"quality_f1", "ratio"},  {"peak_rss_mb", "MB"},
        {"append_ms", "ms"},      {"remove_ms", "ms"},
        {"replace_ms", "ms"},     {"snapshot_mb", "MB"},
        {"restore_s", "s"},       {"lookup_p50_us", "us"},
        {"lookup_p90_us", "us"},  {"correct_ms", "ms"},
        {"fill_ms", "ms"},        {"join_ms", "ms"}};
    if (!cfg_.trace) {
      for (const auto& [name, unit] : kE2E) {
        report_.metrics.push_back({name, e2e_[name], unit});
      }
    } else if (inputs_) {
      WriteTrace();
      if (have_family_) {
        layers_["table.tombstoned_tables"] =
            static_cast<double>(fam_.candidates.tombstoned_tables.size());
        layers_["synth.dead_candidates"] =
            static_cast<double>(fam_.candidates.num_dead());
      }
      for (const auto& [name, unit] : LayerUnits()) {
        report_.metrics.push_back({name, layers_[name], unit});
      }
    }
    return report_;
  }

  static const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
    static const std::vector<std::pair<std::string, std::string>> kUnits = {
        {"stats.index_build_s", "s"}, {"stats.coherence_s", "s"},
        {"stats.coherence_columns", "count"}, {"stats.margin_skip_ratio", "ratio"},
        {"stats.margin_rechecks", "count"}, {"extract.self_s", "s"},
        {"extract.candidates", "count"}, {"extract.fd_keep_ratio", "ratio"},
        {"extract.normalize_hit_ratio", "ratio"}, {"synth.block_s", "s"},
        {"synth.block_map_shuffle_s", "s"}, {"synth.block_count_s", "s"},
        {"synth.block_reduce_s", "s"}, {"synth.blocked_pairs", "count"},
        {"synth.dropped_postings", "count"}, {"synth.partition_s", "s"},
        {"synth.resolve_s", "s"}, {"synth.components", "count"},
        {"synth.mappings", "count"}, {"synth.score_s", "s"},
        {"synth.score_user_s", "s"}, {"synth.score_sys_s", "s"},
        {"synth.score_ctx_switches", "count"}, {"synth.graph_edges", "count"},
        {"text.myers64_calls", "count"}, {"text.myers_blocked_calls", "count"},
        {"text.banded_calls", "count"}, {"text.mask_hit_ratio", "ratio"},
        {"synth.overlap_skip_ratio", "ratio"}, {"synth.append_s", "s"},
        {"synth.remove_s", "s"}, {"synth.replace_s", "s"},
        {"synth.delta_pairs", "count"}, {"synth.dirty_components", "count"},
        {"synth.carried_ratio", "ratio"}, {"synth.unstable_tables", "count"},
        {"synth.full_rebuilds", "count"}, {"apps.store_build_s", "s"},
        {"apps.publish_s", "s"}, {"apps.lookup_us", "us"},
        {"apps.correct_ms", "ms"}, {"apps.fill_ms", "ms"},
        {"apps.join_ms", "ms"}, {"apps.lookup_hit_ratio", "ratio"},
        {"net.overhead_us", "us"}, {"net.server_lookup_p50_us", "us"},
        {"net.bytes_per_request", "bytes"}, {"net.lookup_p99_us", "us"},
        {"net.lookup_max_us", "us"}, {"net.requests", "count"},
        {"net.errors", "count"}, {"persist.save_s", "s"},
        {"persist.restore_s", "s"}, {"persist.open_store_s", "s"},
        {"persist.env_retries", "count"}, {"persist.io_failures", "count"},
        {"table.load_s", "s"}, {"table.pool_strings", "count"},
        {"table.pool_mb", "MB"}, {"table.tombstoned_tables", "count"},
        {"synth.dead_candidates", "count"}, {"corpusgen.generate_s", "s"},
        {"obs.trace_overhead_ratio", "ratio"}};
    return kUnits;
  }

  /// Spans of every thread, per-name self time, the reconciliation against
  /// the program's own series, and the measured layer shares.
  void WriteTrace() {
    std::ofstream out(trace_path_);
    const Shape& sh = inputs_->shape;
    out << "# workload " << sh.workload << " seed " << cfg_.seed << " tables "
        << sh.tables << " vocabulary '" << sh.vocabulary << "' coherence "
        << sh.coherence_threshold << " synth_threads " << sh.synth_threads
        << " schedule " << sh.schedule << " mutation_tables " << sh.mutation_tables
        << "\n# thread\tid\tparent\trequest\tname\tstart_ns\tend_ns\n";
    tr_.Write(out, origin_ns_);
    if (reader_tr_) reader_tr_->Write(out, origin_ns_);
    out << "# self time (s) by span name, main thread\n";
    for (const auto& [name, s] : tr_.SelfSeconds()) {
      out << "# self\t" << name << "\t" << s << "\n";
    }
    out << "# reconciliation: benchmark span vs program series\n";
    std::istringstream rec(reconcile_.str());
    for (std::string line; std::getline(rec, line);) out << "# " << line << "\n";
    out << "# shares\n";
    std::istringstream sha(shares_.str());
    for (std::string line; std::getline(sha, line);) out << "# " << line << "\n";
    std::fprintf(stderr, "trace: %s\n%s%s", trace_path_.c_str(),
                 reconcile_.str().c_str(), shares_.str().c_str());
  }

  const RunConfig& cfg_;
  Tracer tr_;
  RunReport report_;
  std::string corpus_path_, cold_path_, snapshot_path_, trace_path_;
  int64_t origin_ns_ = 0;
  int64_t phase_ns_ = 0;
  uint64_t request_ids_ = 0;
  const std::vector<int> cpus_ = AllowedCpus();
  std::vector<pid_t> server_threads_;
  size_t app_blocks_ = 0;

  std::unique_ptr<Inputs> inputs_;
  std::unique_ptr<ms::GeneratedWorld> world_;
  std::unique_ptr<ms::MappingService> svc_;
  std::unique_ptr<ms::net::MappingServer> server_;
  std::unique_ptr<ms::net::MappingClient> client_;
  std::vector<std::vector<std::string>> normalized_lookups_;
  mutable std::mutex targets_mu_;
  std::shared_ptr<const std::vector<uint64_t>> targets_;  ///< by targets_mu_
  std::atomic<bool> stop_reader_{false};
  std::atomic<size_t> window_{0};  ///< schedule step the reader overlaps
  // Lookup latency windows (µs); the reader thread writes them only before
  // it is joined.
  std::vector<std::vector<double>> windows_;
  std::unique_ptr<Tracer> reader_tr_;
  std::vector<double> build_s_;  ///< every service build of the run
  std::vector<AppLoop> remote_apps_, local_apps_;
  bool saved_ = false;
  std::vector<double> restore_s_, session_restore_s_;

  double build_chain_s_ = 0.0;

  // Traced replays: a session over a benchmark-owned copy of the corpus.
  ms::TableCorpus replay_corpus_;
  std::unique_ptr<ms::SynthesisSession> session_;
  Family fam_;
  bool have_family_ = false;

  std::map<std::string, double> e2e_;
  std::map<std::string, double> layers_;  ///< filled by traced runs
  std::ostringstream reconcile_, shares_;
};

}  // namespace

RunReport RunWorkload(const RunConfig& config) {
  Run run(config);
  return run.Execute();
}

}  // namespace msbench
