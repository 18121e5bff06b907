// Unit tests for the common substrate: Status/Result, string helpers,
// hashing, RNG, and thread pool.
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hashing.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace ms {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad threshold");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad threshold");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad threshold");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(), Status::IOError("").code(),
      Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// ------------------------------------------------------------ string_util

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleToken) {
  auto parts = Split("abc", '\t');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> v = {"x", "y", "z"};
  EXPECT_EQ(Join(v, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("nothing"), "nothing");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
  EXPECT_EQ(ToUpper("MiXeD 123"), "MIXED 123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("#table foo", "#table "));
  EXPECT_FALSE(StartsWith("#t", "#table "));
  EXPECT_TRUE(EndsWith("file.tsv", ".tsv"));
  EXPECT_FALSE(EndsWith("tsv", "file.tsv"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(1.0, 1), "1.0");
}

// ---------------------------------------------------------------- hashing

TEST(HashingTest, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

TEST(HashingTest, Mix64Bijective) {
  // Sanity: distinct inputs stay distinct for a sample.
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(HashingTest, HashIdPairOrderSensitive) {
  EXPECT_NE(HashIdPair(1, 2), HashIdPair(2, 1));
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(4);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.25);
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // overwhelmingly likely
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleIndicesDistinctAndBounded) {
  Rng rng(6);
  auto s = rng.SampleIndices(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t i : s) EXPECT_LT(i, 50u);
}

TEST(RngTest, SampleIndicesClampsToN) {
  Rng rng(7);
  auto s = rng.SampleIndices(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(8);
  size_t lo = 0, total = 20000;
  for (size_t i = 0; i < total; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++lo;
  }
  // Top-10 of 100 ranks should absorb well over 10% of the mass.
  EXPECT_GT(static_cast<double>(lo) / total, 0.3);
}

TEST(RngTest, ZipfWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.Zipf(7, 0.8), 7u);
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { ++count; });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPoolTest, WaitIdleOnFreshPool) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  EXPECT_EQ(pool.num_threads(), 2u);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Restart();
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace ms
