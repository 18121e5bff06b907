// Lockdown suite for the observability layer (obs/metrics.{h,cc},
// obs/trace.{h,cc}) and its env fold (common/env.h NoteIoFailure /
// NotedFailure): histogram bucket and quantile math at exact power-of-two
// boundaries, registry pointer stability and byte-stable exposition, span
// nesting / TraceScope pinning / the slow-span log under a fake clock, and
// — under the `concurrency` ctest label (ObsConcurrency*) — registry
// mutation racing scrapes with TSan watching.
//
// The registry is process-global, so every assertion on counter values here
// is a delta, never an absolute: other suites in the same binary bump the
// same series.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/fault_env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/session.h"
#include "table/corpus.h"

namespace ms::obs {
namespace {

// ------------------------------------------------------------- histogram

TEST(ObsHistogramTest, BucketZeroHoldsExactlyZero) {
  Histogram h;
  h.Record(0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.TotalCount(), 1u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
}

TEST(ObsHistogramTest, PowerOfTwoBoundaries) {
  // Bucket b = bit_width(v): v=1 -> 1, v=2,3 -> 2, v=4..7 -> 3; each bucket
  // covers [2^(b-1), 2^b) with inclusive upper bound 2^b - 1.
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  h.Record(7);
  h.Record(8);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[3], 2u);
  EXPECT_EQ(s.buckets[4], 1u);
  EXPECT_EQ(s.TotalCount(), 6u);
  EXPECT_EQ(s.sum, 1u + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(3), 7u);
}

TEST(ObsHistogramTest, QuantileMatchesServerBucketMath) {
  // Mirror net/server.cc's BucketQuantile exactly: rank = q * total,
  // answer = upper bound of the first bucket where cumulative > rank.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);    // bucket 1, ub 1
  for (int i = 0; i < 9; ++i) h.Record(100);   // bucket 7, ub 127
  h.Record(5000);                              // bucket 13, ub 8191
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.90), 127.0);   // rank 90: 90 !> 90, next
  EXPECT_DOUBLE_EQ(s.Quantile(0.98), 127.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.995), 8191.0);
}

TEST(ObsHistogramTest, EmptyQuantileIsZero) {
  const HistogramSnapshot s;
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 0.0);
  EXPECT_EQ(s.TotalCount(), 0u);
}

TEST(ObsHistogramTest, OverflowLandsInLastBucket) {
  Histogram h;
  h.Record(uint64_t{1} << 50);
  h.Record(~uint64_t{0});
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.buckets[kHistogramBuckets - 1], 2u);
  // q = 1.0 falls through every bucket: the sentinel 2^(buckets-1).
  EXPECT_DOUBLE_EQ(
      s.Quantile(1.0),
      static_cast<double>(uint64_t{1} << (kHistogramBuckets - 1)));
}

TEST(ObsHistogramTest, MergeAddsBucketsAndSum) {
  Histogram a;
  Histogram b;
  a.Record(3);
  a.Record(100);
  b.Record(3);
  b.Record(0);
  HistogramSnapshot m = a.Snapshot();
  m.Merge(b.Snapshot());
  EXPECT_EQ(m.TotalCount(), 4u);
  EXPECT_EQ(m.buckets[0], 1u);
  EXPECT_EQ(m.buckets[2], 2u);
  EXPECT_EQ(m.buckets[7], 1u);
  EXPECT_EQ(m.sum, 106u);
}

TEST(ObsHistogramTest, ResetZeroesEverything) {
  Histogram h;
  h.Record(42);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.TotalCount(), 0u);
  EXPECT_EQ(s.sum, 0u);
}

// -------------------------------------------------------------- registry

TEST(ObsRegistryTest, StablePointersPerSeries) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("obs_test_stable_total");
  Counter* b = reg.GetCounter("obs_test_stable_total");
  EXPECT_EQ(a, b);
  Counter* labelled =
      reg.GetCounter("obs_test_stable_total", {{"op", "x"}});
  EXPECT_NE(a, labelled);
  EXPECT_EQ(labelled, reg.GetCounter("obs_test_stable_total", {{"op", "x"}}));
  // Label ORDER does not split a series: the key is sorted.
  Gauge* g1 = reg.GetGauge("obs_test_gauge", {{"a", "1"}, {"b", "2"}});
  Gauge* g2 = reg.GetGauge("obs_test_gauge", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(g1, g2);
}

TEST(ObsRegistryTest, ExpositionIsByteStableAndSorted) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test_expo_b_total")->Add(2);
  reg.GetCounter("obs_test_expo_a_total")->Add(1);
  reg.GetGauge("obs_test_expo_gauge")->Set(-7);
  const std::string once = reg.ExpositionText();
  const std::string twice = reg.ExpositionText();
  EXPECT_EQ(once, twice);  // byte-identical when nothing moved
  const size_t a = once.find("obs_test_expo_a_total 1\n");
  const size_t b = once.find("obs_test_expo_b_total 2\n");
  const size_t g = once.find("obs_test_expo_gauge -7\n");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(g, std::string::npos);
  EXPECT_LT(a, b);  // sorted by series key
}

TEST(ObsRegistryTest, HistogramExpositionShape) {
  auto& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("obs_test_expo_us", {{"op", "probe"}});
  h->Record(3);
  h->Record(100);
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("obs_test_expo_us_bucket{op=\"probe\",le=\"3\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_bucket{op=\"probe\",le=\"127\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_bucket{op=\"probe\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_sum{op=\"probe\"} 103\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_count{op=\"probe\"} 2\n"),
            std::string::npos);
}

TEST(ObsRegistryTest, LabelValuesAreEscaped) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test_escape_total", {{"path", "a\"b\\c\nd"}})
      ->Increment();
  const std::string text = reg.ExpositionText();
  EXPECT_NE(
      text.find("obs_test_escape_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
      std::string::npos);
}

TEST(ObsRegistryTest, KindMismatchReturnsDetachedStorage) {
  auto& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_kind_clash");
  c->Add(5);
  // Re-registering the same series as a gauge is a call-site bug: the call
  // must still return usable storage (no crash, no aliasing), but the
  // orphan never reaches the exposition.
  Gauge* g = reg.GetGauge("obs_test_kind_clash");
  ASSERT_NE(g, nullptr);
  g->Set(123);
  EXPECT_EQ(c->Value(), 5u);
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("obs_test_kind_clash 5\n"), std::string::npos);
  EXPECT_EQ(text.find("obs_test_kind_clash 123"), std::string::npos);
}

TEST(ObsRegistryTest, ResetForTestsZeroesButKeepsPointers) {
  auto& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test_reset_total");
  Histogram* h = reg.GetHistogram("obs_test_reset_us");
  c->Add(9);
  h->Record(9);
  reg.ResetForTests();
  EXPECT_EQ(c, reg.GetCounter("obs_test_reset_total"));
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Snapshot().TotalCount(), 0u);
}

// ----------------------------------------------------------------- trace

/// Controllable-clock env: delegates IO to the real env, serves NowMicros
/// from an atomic the test advances.
class FakeClockEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return Env::Default()->NewWritableFile(path);
  }
  Result<std::shared_ptr<MmapFile>> MapReadOnly(
      const std::string& path) override {
    return Env::Default()->MapReadOnly(path);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return Env::Default()->ReadFileToString(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return Env::Default()->RenameFile(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return Env::Default()->RemoveFile(path);
  }
  Status SyncDir(const std::string& dir) override {
    return Env::Default()->SyncDir(dir);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return Env::Default()->ListDir(dir);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return Env::Default()->CreateDirIfMissing(dir);
  }
  bool FileExists(const std::string& path) override {
    return Env::Default()->FileExists(path);
  }
  void SleepForMs(int) override {}
  uint64_t NowMicros() override {
    return now_us_.load(std::memory_order_relaxed);
  }

  void Advance(uint64_t us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_us_{1000};
};

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalTraceRing().Clear();
    SetTracingEnabled(true);
    SetSlowSpanThresholdUs(0);
  }
  void TearDown() override {
    SetTraceClockForTests(nullptr);
    SetSlowSpanThresholdUs(0);
    SetTracingEnabled(true);
    GlobalTraceRing().Clear();
  }
};

TEST_F(ObsTraceTest, NestedSpansShareTraceAndLinkParents) {
  {
    TraceSpan outer("test.outer");
    EXPECT_NE(CurrentTraceId(), 0u);
    TraceSpan inner("test.inner");
  }
  EXPECT_EQ(CurrentTraceId(), 0u);  // root closed the trace
  const auto spans = GlobalTraceRing().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes (records) first.
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_STREQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_span_id, 0u);
}

TEST_F(ObsTraceTest, TraceScopePinsExternalId) {
  {
    TraceScope scope(0xABCDEF);
    EXPECT_EQ(CurrentTraceId(), 0xABCDEFu);
    { TraceSpan span("test.pinned"); }
    // The scope, not the span, owns the id: still pinned after the span.
    EXPECT_EQ(CurrentTraceId(), 0xABCDEFu);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  const auto spans = GlobalTraceRing().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0xABCDEFu);
}

TEST_F(ObsTraceTest, DisabledSpansCostNothingVisible) {
  Histogram h;
  SetTracingEnabled(false);
  {
    TraceSpan span("test.disabled", &h);
    EXPECT_EQ(CurrentTraceId(), 0u);
  }
  EXPECT_EQ(GlobalTraceRing().Snapshot().size(), 0u);
  EXPECT_EQ(h.Snapshot().TotalCount(), 0u);
}

TEST_F(ObsTraceTest, FakeClockStampsExactDurations) {
  FakeClockEnv clock;
  SetTraceClockForTests(&clock);
  Histogram h;
  {
    TraceSpan span("test.timed", &h);
    clock.Advance(300);
  }
  const auto spans = GlobalTraceRing().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].duration_us, 300u);
  EXPECT_EQ(spans[0].start_us, 1000u);
  EXPECT_EQ(h.Snapshot().sum, 300u);
}

TEST_F(ObsTraceTest, SlowSpanLogsOneStructuredLine) {
  FakeClockEnv clock;
  SetTraceClockForTests(&clock);
  SetSlowSpanThresholdUs(100);
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  testing::internal::CaptureStderr();
  {
    TraceSpan fast("test.fast");
    clock.Advance(99);
  }
  {
    TraceSpan slow("test.slow");
    clock.Advance(250);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  SetLogLevel(prev);
  EXPECT_EQ(err.find("test.fast"), std::string::npos);
  EXPECT_NE(err.find("slow span"), std::string::npos);
  EXPECT_NE(err.find(" span=test.slow"), std::string::npos);
  EXPECT_NE(err.find(" duration_us=250"), std::string::npos);
  EXPECT_NE(err.find(" threshold_us=100"), std::string::npos);
}

TEST_F(ObsTraceTest, RingKeepsNewestCapacitySpans) {
  for (size_t i = 0; i < TraceRing::kCapacity + 10; ++i) {
    TraceSpan span("test.ring");
  }
  const auto spans = GlobalTraceRing().Snapshot();
  EXPECT_EQ(spans.size(), TraceRing::kCapacity);
  EXPECT_GE(GlobalTraceRing().total_recorded(),
            TraceRing::kCapacity + 10u);
}

// ------------------------------------------------------------- env fold

TEST(ObsEnvIoTest, InjectedTerminalFailureCountsOnEnvAndRegistry) {
  Counter* global =
      MetricsRegistry::Global().GetCounter("ms_env_io_failures_total");
  const uint64_t before = global->Value();
  FaultInjectionEnv fenv(Env::Default());
  fenv.FailOp(0, FaultKind::kEnospc);
  auto opened = fenv.NewWritableFile("/tmp/obs_env_fold_test_never_created");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(fenv.io_failures(), 1u);
  EXPECT_EQ(global->Value(), before + 1);
}

TEST(ObsEnvIoTest, NotFoundProbesAreNotFailures) {
  Env* env = Env::Default();
  const uint64_t before = env->io_failures();
  auto read = env->ReadFileToString("/tmp/obs_env_fold_no_such_file_xyz");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env->io_failures(), before);
}

TEST(ObsEnvIoTest, RetriesFoldIntoRegistry) {
  Counter* global =
      MetricsRegistry::Global().GetCounter("ms_env_retries_total");
  const uint64_t before_global = global->Value();
  FaultInjectionEnv fenv(Env::Default());
  const uint64_t before_env = fenv.retries_performed();
  fenv.FailOp(1, FaultKind::kEintr);  // op 0 = open, op 1 = first write
  auto opened = fenv.NewWritableFile("/tmp/obs_env_retry_test_file");
  ASSERT_TRUE(opened.ok());
  auto file = std::move(opened).value();
  ASSERT_TRUE(AppendFully(fenv, *file, "payload").ok());
  ASSERT_TRUE(file->Close().ok());
  (void)fenv.RemoveFile("/tmp/obs_env_retry_test_file");
  EXPECT_EQ(fenv.retries_performed(), before_env + 1);
  EXPECT_EQ(global->Value(), before_global + 1);
}

// ------------------------------------- synth maintenance counter export

// The incremental-maintenance counters are registered lazily inside
// SynthesisSession::AppendTables (function-local statics), so the wiring
// can only be checked end-to-end: run a real append and each series must
// advance by exactly what that append's stats reported, then show up in
// the exposition. The registry is process-global — every value assertion
// is a delta against the counter's value before the append.
TEST(ObsSynthCountersTest, AppendMaintenanceCountersReconcileWithStats) {
  auto& reg = MetricsRegistry::Global();
  Counter* unstable = reg.GetCounter("ms_synth_append_unstable_total");
  Counter* rebuilds = reg.GetCounter("ms_synth_append_full_rebuilds_total");
  Counter* skips = reg.GetCounter("ms_synth_coherence_margin_skips_total");
  Counter* rechecks =
      reg.GetCounter("ms_synth_coherence_margin_rechecks_total");
  const uint64_t unstable0 = unstable->Value();
  const uint64_t rebuilds0 = rebuilds->Value();
  const uint64_t skips0 = skips->Value();
  const uint64_t rechecks0 = rechecks->Value();

  // Small deterministic corpus over a shared vocabulary: enough value
  // co-occurrence for real candidates, margins, and blocking.
  TableCorpus corpus;
  auto add_table = [&](size_t t) {
    std::vector<std::string> lcol, rcol;
    for (size_t r = 0; r < 6; ++r) {
      const size_t i = (t * 3 + r) % 12;
      lcol.push_back("entity name " + std::to_string(i));
      rcol.push_back("code" + std::to_string(i % 4));
    }
    corpus.AddFromStrings("domain" + std::to_string(t % 3) + ".example",
                          TableSource::kWeb, {"name", "code"}, {lcol, rcol});
  };
  for (size_t t = 0; t < 8; ++t) add_table(t);

  SynthesisOptions o;
  o.num_threads = 2;
  o.min_domains = 1;
  o.min_pairs = 1;
  // The margin cache only exists under an active coherence filter.
  ASSERT_GT(o.extraction.coherence_threshold, -1.0);
  SynthesisSession session(o);
  ASSERT_TRUE(session.status().ok());
  auto c = session.ExtractCandidates(corpus);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto b = session.BlockPairs(c.value());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto g = session.ScorePairs(c.value(), b.value());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto p = session.Partition(g.value());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto r = session.Resolve(c.value(), g.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const size_t first_new = corpus.size();
  for (size_t t = 8; t < 10; ++t) add_table(t);
  auto grown = session.AppendTables(corpus, first_new, c.value(), b.value(),
                                    g.value(), p.value(), r.value());
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const AppendStats& stats = grown.value().append;

  EXPECT_EQ(unstable->Value(), unstable0 + stats.unstable_tables);
  EXPECT_EQ(rebuilds->Value(), rebuilds0 + (stats.full_rebuild ? 1u : 0u));
  EXPECT_EQ(skips->Value(), skips0 + stats.margin_skips);
  EXPECT_EQ(rechecks->Value(), rechecks0 + stats.margin_rechecks);
  // Every live old column is either proven stable by its cached margin or
  // re-evaluated, so with a non-empty base the cache must have been
  // consulted one way or the other.
  EXPECT_GT(stats.margin_skips + stats.margin_rechecks, 0u);

  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("ms_synth_append_unstable_total"), std::string::npos);
  EXPECT_NE(text.find("ms_synth_append_full_rebuilds_total"),
            std::string::npos);
  EXPECT_NE(text.find("ms_synth_coherence_margin_skips_total"),
            std::string::npos);
  EXPECT_NE(text.find("ms_synth_coherence_margin_rechecks_total"),
            std::string::npos);
}

TEST(ObsSynthCountersTest, ScoreCountersReconcileWithScoringStats) {
  auto& reg = MetricsRegistry::Global();
  Counter* pairs = reg.GetCounter("ms_synth_score_pairs_total");
  Counter* kernels = reg.GetCounter("ms_synth_score_kernel_runs_total");
  Counter* rejects = reg.GetCounter("ms_synth_score_charmask_rejects_total");

  // Left values of similar length: near duplicates ("north zone 1" vs
  // "north zone 11") run kernels, different words ("north" vs "quiet")
  // fail the char-mask bound.
  const std::vector<std::string> words = {"north", "south", "quiet", "bravo",
                                          "lemon"};
  TableCorpus corpus;
  auto add_table = [&](size_t t) {
    std::vector<std::string> lcol, rcol;
    for (size_t r = 0; r < 6; ++r) {
      const size_t i = (t * 5 + r * 3) % 14;
      lcol.push_back(words[i % words.size()] + " zone " + std::to_string(i));
      rcol.push_back("code" + std::to_string(i % 4));
    }
    corpus.AddFromStrings("domain" + std::to_string(t % 3) + ".example",
                          TableSource::kWeb, {"name", "code"}, {lcol, rcol});
  };
  for (size_t t = 0; t < 10; ++t) add_table(t);

  SynthesisOptions o;
  o.num_threads = 2;
  o.min_domains = 1;
  o.min_pairs = 1;
  o.extraction.coherence_threshold = -1.0;  // every column is a candidate
  o.blocking.theta_overlap = 1;
  SynthesisSession session(o);
  ASSERT_TRUE(session.status().ok());
  auto c = session.ExtractCandidates(corpus);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto b = session.BlockPairs(c.value());
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // Cold scoring: one run over every blocked pair.
  uint64_t pairs0 = pairs->Value();
  uint64_t kernels0 = kernels->Value();
  uint64_t rejects0 = rejects->Value();
  auto g = session.ScorePairs(c.value(), b.value());
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const MatcherStats& cold = g.value().stats.scoring.matcher;
  EXPECT_EQ(pairs->Value() - pairs0, b.value().pairs.size());
  EXPECT_EQ(kernels->Value() - kernels0,
            cold.myers64_calls + cold.myers_blocked_calls);
  EXPECT_EQ(rejects->Value() - rejects0, cold.charmask_rejects);
  EXPECT_GT(cold.myers64_calls, 0u);
  EXPECT_GT(cold.charmask_rejects, 0u);

  // Delta scoring: an append adds its delta pairs' counts to the family's
  // scoring stats, and the counters advance by exactly the same.
  auto p = session.Partition(g.value());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto r = session.Resolve(c.value(), g.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t first_new = corpus.size();
  for (size_t t = 10; t < 13; ++t) add_table(t);
  pairs0 = pairs->Value();
  kernels0 = kernels->Value();
  rejects0 = rejects->Value();
  auto grown = session.AppendTables(corpus, first_new, c.value(), b.value(),
                                    g.value(), p.value(), r.value());
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const AppendedArtifacts& family = grown.value();
  ASSERT_FALSE(family.append.full_rebuild);
  const MatcherStats& both = family.scored.stats.scoring.matcher;
  EXPECT_GT(family.append.delta_pairs, 0u);
  EXPECT_EQ(pairs->Value() - pairs0, family.append.delta_pairs);
  EXPECT_EQ(kernels->Value() - kernels0,
            both.myers64_calls + both.myers_blocked_calls -
                cold.myers64_calls - cold.myers_blocked_calls);
  EXPECT_EQ(rejects->Value() - rejects0,
            both.charmask_rejects - cold.charmask_rejects);

  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("ms_synth_score_pairs_total"), std::string::npos);
  EXPECT_NE(text.find("ms_synth_score_kernel_runs_total"), std::string::npos);
  EXPECT_NE(text.find("ms_synth_score_charmask_rejects_total"),
            std::string::npos);
}

// ---------------------------------------------- concurrency (TSan leg)

TEST(ObsConcurrencyTest, RegistryMutationUnderScrapes) {
  auto& reg = MetricsRegistry::Global();
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  Counter* const counter = reg.GetCounter("obs_conc_counter_total");
  Histogram* const hist = reg.GetHistogram("obs_conc_us");
  Gauge* const gauge = reg.GetGauge("obs_conc_gauge");
  const uint64_t count_before = counter->Value();
  const uint64_t hist_before = hist->Snapshot().TotalCount();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = reg.ExpositionText();
      ASSERT_FALSE(text.empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        hist->Record(static_cast<uint64_t>(i));
        gauge->Set(t);
        // Registration racing registration on the same series must
        // converge to one stable pointer.
        ASSERT_EQ(reg.GetCounter("obs_conc_counter_total"), counter);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(counter->Value(), count_before + kThreads * kIters);
  EXPECT_EQ(hist->Snapshot().TotalCount(), hist_before + kThreads * kIters);
}

TEST(ObsConcurrencyTest, SpansFromManyThreads) {
  GlobalTraceRing().Clear();
  SetTracingEnabled(true);
  const uint64_t recorded_before = GlobalTraceRing().total_recorded();
  const uint64_t dropped_before = GlobalTraceRing().dropped();
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        TraceSpan outer("conc.outer");
        TraceSpan inner("conc.inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every span was either stored or counted as dropped — none lost.
  const uint64_t recorded =
      GlobalTraceRing().total_recorded() - recorded_before;
  EXPECT_EQ(recorded, static_cast<uint64_t>(kThreads) * kIters * 2);
  EXPECT_LE(GlobalTraceRing().dropped() - dropped_before, recorded);
  GlobalTraceRing().Clear();
}

}  // namespace
}  // namespace ms::obs
