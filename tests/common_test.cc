// Tests for the common runtime layer: Status/Result, RNG, alias table,
// flat map, thread pool, ParallelFor, hashing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>

#include "common/alias_table.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace mochy {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kOutOfRange,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MOCHY_ASSIGN_OR_RETURN(int h, Half(x));
  MOCHY_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
  // Bound 1 always yields 0.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, UniformIntIsApproximatelyUniform) {
  Rng rng(11);
  const int kBuckets = 10, kDraws = 100000;
  std::vector<int> histogram(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++histogram[rng.UniformInt(kBuckets)];
  for (int count : histogram) {
    EXPECT_NEAR(count, kDraws / kBuckets, 500);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatches) {
  Rng rng(9);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0.0;
    const int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) sum += rng.Poisson(mean);
    EXPECT_NEAR(sum / kDraws, mean, mean * 0.05 + 0.05) << "mean " << mean;
  }
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(13);
  const double p = 0.25;
  double sum = 0.0;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Geometric(p);
  EXPECT_NEAR(sum / kDraws, (1 - p) / p, 0.1);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(17);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 50000; ++i) ++histogram[rng.Zipf(10, 1.2)];
  EXPECT_GT(histogram[0], histogram[1]);
  EXPECT_GT(histogram[1], histogram[4]);
  EXPECT_GT(histogram[4], 0);
}

TEST(RngTest, ZipfAlphaZeroIsUniform) {
  Rng rng(19);
  std::vector<int> histogram(5, 0);
  for (int i = 0; i < 50000; ++i) ++histogram[rng.Zipf(5, 0.0)];
  for (int count : histogram) EXPECT_NEAR(count, 10000, 500);
}

TEST(RngTest, SampleDistinctProducesDistinct) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.SampleDistinct(20, 8);
    EXPECT_EQ(sample.size(), 8u);
    const std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (uint64_t v : sample) EXPECT_LT(v, 20u);
  }
  // Full range: a permutation of 0..n-1.
  const auto all = rng.SampleDistinct(6, 6);
  EXPECT_EQ(std::set<uint64_t>(all.begin(), all.end()).size(), 6u);
}

TEST(RngTest, ForkStreamsAreIndependentAndStable) {
  const Rng base(42);
  Rng f0 = base.Fork(0);
  Rng f1 = base.Fork(1);
  Rng f0_again = base.Fork(0);
  EXPECT_EQ(f0(), f0_again());
  EXPECT_NE(f0(), f1());
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(4);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(AliasTableTest, RejectsBadInput) {
  EXPECT_FALSE(AliasTable::Build({}).ok());
  EXPECT_FALSE(AliasTable::Build({1.0, -0.5}).ok());
  EXPECT_FALSE(AliasTable::Build({0.0, 0.0}).ok());
}

TEST(AliasTableTest, MatchesDistribution) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 0.0, 4.0};
  const AliasTable table = AliasTable::Build(weights).value();
  EXPECT_EQ(table.size(), 5u);
  EXPECT_DOUBLE_EQ(table.total_weight(), 10.0);
  Rng rng(33);
  std::vector<int> histogram(5, 0);
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++histogram[table.Sample(rng)];
  EXPECT_EQ(histogram[3], 0);
  for (int i : {0, 1, 2, 4}) {
    EXPECT_NEAR(histogram[i], kDraws * weights[i] / 10.0,
                kDraws * 0.01)
        << "category " << i;
  }
}

TEST(AliasTableTest, SingleCategory) {
  const AliasTable table = AliasTable::Build({5.0}).value();
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

TEST(FlatMapTest, PutGetContains) {
  FlatMap64<uint32_t> map;
  EXPECT_TRUE(map.empty());
  map.Put(10, 1);
  map.Put(20, 2);
  map.Put(10, 3);  // overwrite
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.GetOr(10, 0), 3u);
  EXPECT_EQ(map.GetOr(20, 0), 2u);
  EXPECT_EQ(map.GetOr(30, 99), 99u);
  EXPECT_TRUE(map.Contains(20));
  EXPECT_FALSE(map.Contains(30));
}

TEST(FlatMapTest, AddAccumulates) {
  FlatMap64<uint64_t> map;
  for (int i = 0; i < 10; ++i) map.Add(7, 2);
  EXPECT_EQ(map.GetOr(7, 0), 20u);
}

TEST(FlatMapTest, GrowsPastInitialCapacity) {
  FlatMap64<uint32_t> map;
  const int kEntries = 10000;
  for (int i = 0; i < kEntries; ++i) {
    map.Put(static_cast<uint64_t>(i) * 2654435761u, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(map.size(), static_cast<size_t>(kEntries));
  for (int i = 0; i < kEntries; ++i) {
    EXPECT_EQ(map.GetOr(static_cast<uint64_t>(i) * 2654435761u, ~0u),
              static_cast<uint32_t>(i));
  }
}

TEST(FlatMapTest, ForEachVisitsAllEntries) {
  FlatMap64<uint32_t> map;
  for (uint64_t i = 1; i <= 100; ++i) map.Put(i, static_cast<uint32_t>(i));
  uint64_t key_sum = 0, value_sum = 0;
  map.ForEach([&](uint64_t k, uint32_t v) {
    key_sum += k;
    value_sum += v;
  });
  EXPECT_EQ(key_sum, 5050u);
  EXPECT_EQ(value_sum, 5050u);
}

TEST(FlatMapTest, ClearResets) {
  FlatMap64<uint32_t> map;
  map.Put(1, 1);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Contains(1));
}

TEST(HashTest, PackPairIsOrderInsensitive) {
  EXPECT_EQ(PackPair(3, 9), PackPair(9, 3));
  EXPECT_NE(PackPair(3, 9), PackPair(3, 10));
  EXPECT_EQ(PairFirst(PackPair(9, 3)), 3u);
  EXPECT_EQ(PairSecond(PackPair(9, 3)), 9u);
}

TEST(HashTest, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
  // Chaining through the seed argument equals one pass.
  EXPECT_EQ(Fnv1a64("bar", 3, Fnv1a64("foo", 3)), Fnv1a64("foobar", 6));
}

TEST(HashTest, HashIdSpanDiscriminates) {
  const uint32_t a[] = {1, 2, 3};
  const uint32_t b[] = {1, 2, 4};
  const uint32_t c[] = {1, 2};
  EXPECT_NE(HashIdSpan(a, 3), HashIdSpan(b, 3));
  EXPECT_NE(HashIdSpan(a, 3), HashIdSpan(c, 2));
  EXPECT_EQ(HashIdSpan(a, 3), HashIdSpan(a, 3));
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ParallelTest, BlocksCoverRangeExactly) {
  for (size_t n : {0u, 1u, 7u, 100u}) {
    for (size_t threads : {1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> hits(n == 0 ? 1 : n);
      for (auto& h : hits) h = 0;
      ParallelBlocks(n, threads, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelTest, ForVisitsEachIndexOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h = 0;
  ParallelFor(n, 4, [&](size_t i) { hits[i].fetch_add(1); }, 16);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelTest, SingleThreadRunsInline) {
  size_t sum = 0;  // no synchronization: must run on the calling thread
  ParallelFor(100, 1, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

}  // namespace
}  // namespace mochy
