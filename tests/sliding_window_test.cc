#include "src/stream/sliding_window.h"

#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "src/stream/prefix_sums.h"
#include "src/stream/sources.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

TEST(SlidingWindowTest, FillsToCapacityThenSlides) {
  SlidingWindow w(3);
  EXPECT_EQ(w.size(), 0);
  w.Append(1);
  w.Append(2);
  EXPECT_EQ(w.size(), 2);
  EXPECT_FALSE(w.full());
  w.Append(3);
  EXPECT_TRUE(w.full());
  w.Append(4);  // evicts 1
  EXPECT_EQ(w.size(), 3);
  EXPECT_DOUBLE_EQ(w[0], 2);
  EXPECT_DOUBLE_EQ(w[1], 3);
  EXPECT_DOUBLE_EQ(w[2], 4);
  EXPECT_EQ(w.total_appended(), 4);
}

TEST(SlidingWindowTest, ToVectorIsOldestFirst) {
  SlidingWindow w(4);
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0}) w.Append(v);
  EXPECT_EQ(w.ToVector(), (std::vector<double>{30, 40, 50, 60}));
}

TEST(SlidingWindowTest, SumsMatchBruteForceWhileSliding) {
  const int64_t capacity = 17;
  SlidingWindow w(capacity);
  std::deque<double> mirror;
  Random rng(42);
  for (int step = 0; step < 300; ++step) {
    const double v = rng.UniformDouble(-50, 50);
    w.Append(v);
    mirror.push_back(v);
    if (static_cast<int64_t>(mirror.size()) > capacity) mirror.pop_front();

    ASSERT_EQ(w.size(), static_cast<int64_t>(mirror.size()));
    // Spot-check a few ranges each step.
    for (int t = 0; t < 4; ++t) {
      const int64_t i = rng.UniformInt(0, w.size());
      const int64_t j = rng.UniformInt(i, w.size());
      double sum = 0.0, sq = 0.0;
      for (int64_t k = i; k < j; ++k) {
        sum += mirror[static_cast<size_t>(k)];
        sq += mirror[static_cast<size_t>(k)] * mirror[static_cast<size_t>(k)];
      }
      EXPECT_NEAR(w.Sum(i, j), sum, 1e-8) << "step " << step;
      EXPECT_NEAR(w.SumSquares(i, j), sq, 1e-7) << "step " << step;
    }
  }
}

TEST(SlidingWindowTest, SqErrorMatchesBruteForce) {
  SlidingWindow w(9);
  Random rng(7);
  for (int step = 0; step < 100; ++step) {
    w.Append(rng.UniformInt(0, 100));
    for (int64_t i = 0; i < w.size(); ++i) {
      for (int64_t j = i; j <= w.size(); ++j) {
        double mean = 0.0;
        for (int64_t k = i; k < j; ++k) mean += w[k];
        if (j > i) mean /= static_cast<double>(j - i);
        double sse = 0.0;
        for (int64_t k = i; k < j; ++k) sse += (w[k] - mean) * (w[k] - mean);
        EXPECT_NEAR(w.SqError(i, j), sse, 1e-7);
      }
    }
  }
}

// The flat copy holds the ring's own long doubles in logical order, so
// every bucket priced from it equals SqError bit for bit — with the live
// slots wrapped around the ring, after evictions, and across rebases.
TEST(SlidingWindowTest, CopiedPrefixSumsReproduceSqErrorExactly) {
  SlidingWindow w(13);
  Random rng(5);
  std::vector<long double> sum, sqsum;
  for (int step = 0; step < 60; ++step) {
    w.Append(rng.UniformDouble(-50.0, 50.0));
    if (step % 7 == 3) w.EvictOldest();
    w.CopyPrefixSums(&sum, &sqsum);
    ASSERT_EQ(static_cast<int64_t>(sum.size()), w.size() + 1);
    ASSERT_EQ(static_cast<int64_t>(sqsum.size()), w.size() + 1);
    for (int64_t i = 0; i <= w.size(); ++i) {
      for (int64_t j = i; j <= w.size(); ++j) {
        const auto b = static_cast<size_t>(i);
        const auto e = static_cast<size_t>(j);
        EXPECT_EQ(SqErrorFromPrefixes(sum[b], sqsum[b], sum[e], sqsum[e],
                                      j - i),
                  w.SqError(i, j))
            << "step " << step << " [" << i << ", " << j << ")";
      }
    }
  }
}

TEST(SlidingWindowTest, RebaseHappensAndPreservesAnswers) {
  SlidingWindow w(8);
  for (int i = 0; i < 100; ++i) w.Append(i);
  EXPECT_GE(w.rebase_count(), 10);  // one rebase per capacity appends
  // Window is now 92..99.
  EXPECT_DOUBLE_EQ(w.Sum(0, 8), 92 + 93 + 94 + 95 + 96 + 97 + 98 + 99);
}

TEST(SlidingWindowTest, CapacityOneWindow) {
  SlidingWindow w(1);
  w.Append(5);
  w.Append(9);
  EXPECT_EQ(w.size(), 1);
  EXPECT_DOUBLE_EQ(w[0], 9);
  EXPECT_DOUBLE_EQ(w.Sum(0, 1), 9);
  EXPECT_DOUBLE_EQ(w.SqError(0, 1), 0.0);
}

TEST(SlidingWindowTest, LargeOffsetValuesStayAccurate) {
  // Rebase bounds cancellation even for large magnitudes over long streams.
  SlidingWindow w(64);
  Random rng(3);
  for (int i = 0; i < 10000; ++i) w.Append(1e9 + rng.UniformInt(0, 3));
  EXPECT_GE(w.SqError(0, 64), 0.0);
  const std::vector<double> snapshot = w.ToVector();
  double mean = 0.0;
  for (double v : snapshot) mean += v;
  mean /= 64.0;
  double sse = 0.0;
  for (double v : snapshot) sse += (v - mean) * (v - mean);
  EXPECT_NEAR(w.SqError(0, 64), sse, 1e-3);
}

TEST(StreamSourcesTest, VectorSourceReplaysAndResets) {
  VectorSource source({1.0, 2.0, 3.0});
  EXPECT_EQ(source.Next(), 1.0);
  EXPECT_EQ(source.Next(), 2.0);
  EXPECT_EQ(source.Next(), 3.0);
  EXPECT_FALSE(source.Next().has_value());
  source.Reset();
  EXPECT_EQ(source.Next(), 1.0);
}

TEST(StreamSourcesTest, GeneratorSourceProducesOnDemand) {
  int64_t i = 0;
  GeneratorSource source([&]() -> std::optional<double> {
    if (i >= 4) return std::nullopt;
    return static_cast<double>(i++);
  });
  EXPECT_EQ(Drain(source, 100), (std::vector<double>{0, 1, 2, 3}));
}

TEST(StreamSourcesTest, LimitSourceTruncates) {
  VectorSource inner({1.0, 2.0, 3.0, 4.0, 5.0});
  LimitSource limited(&inner, 2);
  EXPECT_EQ(Drain(limited, 100), (std::vector<double>{1, 2}));
}

TEST(StreamSourcesTest, DrainRespectsMaxPoints) {
  VectorSource source({1.0, 2.0, 3.0});
  EXPECT_EQ(Drain(source, 2), (std::vector<double>{1, 2}));
}

}  // namespace
}  // namespace streamhist
