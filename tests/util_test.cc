// Unit tests for src/util: RNG determinism and distribution sanity, thread
// pool scheduling, statistics accumulators, radix sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "src/util/radix_sort.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "src/util/types.h"

namespace knightking {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextUInt64InRange) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextUInt64(bound), bound);
    }
  }
}

TEST(RngTest, NextUInt64IsApproximatelyUniform) {
  Rng rng(13);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextUInt64(bound)];
  }
  // Chi-square with 9 dof; 99.9% critical value is ~27.9.
  double expected = static_cast<double>(n) / bound;
  double chi2 = 0.0;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 27.9);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SeedResetsStream) {
  Rng rng(99);
  uint64_t first = rng.Next();
  rng.Next();
  rng.Seed(99);
  EXPECT_EQ(rng.Next(), first);
}

TEST(HashTest, HashCombineDistinguishesArguments) {
  std::set<uint64_t> values;
  for (uint64_t a = 0; a < 50; ++a) {
    for (uint64_t b = 0; b < 50; ++b) {
      values.insert(HashCombine64(a, b));
    }
  }
  EXPECT_EQ(values.size(), 2500u);
}

TEST(HashTest, HashCombineOrderMatters) {
  EXPECT_NE(HashCombine64(1, 2), HashCombine64(2, 1));
}

TEST(ThreadPoolTest, InlineWhenNoWorkers) {
  ThreadPool pool(0);
  std::vector<int> data(1000, 0);
  pool.ParallelFor(data.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      data[i] = 1;
    }
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 1000);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> data(10000);
  pool.ParallelFor(data.size(), 64, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      data[i].fetch_add(1);
    }
  });
  for (const auto& x : data) {
    EXPECT_EQ(x.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(100, 7, [&](size_t b, size_t e) {
      sum.fetch_add(static_cast<int>(e - b));
    });
  }
  EXPECT_EQ(sum.load(), 5000);
}

TEST(ThreadPoolTest, ZeroTotalIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(3);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble() * 100;
    all.Add(x);
    (i < 400 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(10);
  h.Add(0);
  h.Add(5);
  h.Add(5);
  h.Add(9);
  h.Add(10);  // overflow
  h.Add(100);  // overflow
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(5), 2u);
  EXPECT_EQ(h.BucketCount(9), 1u);
  EXPECT_EQ(h.OverflowCount(), 2u);
  EXPECT_EQ(h.Total(), 6u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) {
    x = x + 1;
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_LT(t.Seconds(), 10.0);
}

// Every (size, id range) pair, seeded, against std::sort. The ranges take
// one to four 8-bit passes, so both pass parities (the odd count trades
// buffers with the scratch vector) and the top byte of 32-bit ids are
// covered; every log holds its range's largest id. One scratch vector is
// reused throughout, as the service reuses it, so it arrives both larger
// and smaller than the log it sorts.
TEST(RadixSortTest, MatchesStdSortAcrossSizesAndIdRanges) {
  const vertex_id_t kMaxKeys[] = {(1u << 8) - 1, (1u << 16) - 1, (1u << 24) - 1,
                                  kInvalidVertex - 1};
  const size_t kSizes[] = {0, 1, 32, 2560};
  std::vector<vertex_id_t> scratch;
  Rng rng(20260418);
  for (vertex_id_t max_key : kMaxKeys) {
    for (size_t size : kSizes) {
      std::vector<vertex_id_t> keys(size);
      for (vertex_id_t& k : keys) {
        k = static_cast<vertex_id_t>(rng.NextUInt64(uint64_t{max_key} + 1));
      }
      if (!keys.empty()) {
        keys[keys.size() / 2] = max_key;
      }
      std::vector<vertex_id_t> expected = keys;
      std::sort(expected.begin(), expected.end());
      RadixSort(keys, scratch, max_key);
      EXPECT_EQ(keys, expected) << "size " << size << ", max key " << max_key;
    }
  }
}

TEST(RadixSortTest, AllEqualLogIsUnchanged) {
  std::vector<vertex_id_t> scratch;
  std::vector<vertex_id_t> keys(1000, 0x00abcdefu);
  RadixSort(keys, scratch, kInvalidVertex - 1);
  EXPECT_EQ(keys, std::vector<vertex_id_t>(1000, 0x00abcdefu));
}

TEST(RadixSortTest, ZeroMaxKeyNeedsNoPass) {
  std::vector<vertex_id_t> scratch;
  std::vector<vertex_id_t> keys(5, 0);
  RadixSort(keys, scratch, vertex_id_t{0});
  EXPECT_EQ(keys, std::vector<vertex_id_t>(5, 0));
  EXPECT_TRUE(scratch.empty());
}

}  // namespace
}  // namespace knightking
