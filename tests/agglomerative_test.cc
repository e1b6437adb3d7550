#include "src/core/agglomerative.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

AgglomerativeHistogram MakeAgglom(int64_t buckets, double epsilon) {
  ApproxHistogramOptions options;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  return AgglomerativeHistogram::Create(options).value();
}

TEST(AgglomerativeTest, CreateValidatesOptions) {
  ApproxHistogramOptions bad;
  bad.num_buckets = 0;
  EXPECT_FALSE(AgglomerativeHistogram::Create(bad).ok());
  bad.num_buckets = 4;
  bad.epsilon = -1.0;
  EXPECT_FALSE(AgglomerativeHistogram::Create(bad).ok());
  bad.epsilon = 0.25;
  auto ok = AgglomerativeHistogram::Create(bad);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value().delta(), 0.25 / 8.0);
}

TEST(AgglomerativeTest, EmptyExtract) {
  AgglomerativeHistogram a = MakeAgglom(3, 0.1);
  EXPECT_EQ(a.Extract().num_buckets(), 0);
  EXPECT_DOUBLE_EQ(a.ApproxError(), 0.0);
}

TEST(AgglomerativeTest, SinglePoint) {
  AgglomerativeHistogram a = MakeAgglom(3, 0.1);
  a.Append(7.0);
  EXPECT_DOUBLE_EQ(a.ApproxError(), 0.0);
  Histogram h = a.Extract();
  ASSERT_EQ(h.num_buckets(), 1);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 7.0);
}

TEST(AgglomerativeTest, ConstantStreamHasZeroError) {
  AgglomerativeHistogram a = MakeAgglom(2, 0.1);
  for (int i = 0; i < 1000; ++i) a.Append(5.0);
  EXPECT_DOUBLE_EQ(a.ApproxError(), 0.0);
  Histogram h = a.Extract();
  EXPECT_EQ(h.domain_size(), 1000);
  EXPECT_DOUBLE_EQ(h.SseAgainst(std::vector<double>(1000, 5.0)), 0.0);
}

TEST(AgglomerativeTest, PiecewiseConstantRecoveredExactly) {
  AgglomerativeHistogram a = MakeAgglom(3, 0.5);
  std::vector<double> data;
  for (int i = 0; i < 20; ++i) data.push_back(4.0);
  for (int i = 0; i < 30; ++i) data.push_back(-2.0);
  for (int i = 0; i < 10; ++i) data.push_back(11.0);
  for (double v : data) a.Append(v);
  EXPECT_NEAR(a.ApproxError(), 0.0, 1e-9);
  Histogram h = a.Extract();
  EXPECT_NEAR(h.SseAgainst(data), 0.0, 1e-9);
}

TEST(AgglomerativeTest, ExtractedHistogramIsValidAtEveryPrefix) {
  AgglomerativeHistogram a = MakeAgglom(4, 0.3);
  Random rng(5);
  for (int i = 1; i <= 120; ++i) {
    a.Append(rng.UniformInt(0, 30));
    Histogram h = a.Extract();
    EXPECT_TRUE(h.Validate().ok()) << "prefix " << i;
    EXPECT_EQ(h.domain_size(), i);
    EXPECT_LE(h.num_buckets(), 4);
  }
}

TEST(AgglomerativeTest, ExtractErrorConsistentWithApproxError) {
  AgglomerativeHistogram a = MakeAgglom(5, 0.2);
  Random rng(8);
  std::vector<double> data;
  for (int i = 0; i < 400; ++i) {
    const double v = rng.UniformInt(0, 100);
    data.push_back(v);
    a.Append(v);
  }
  // The extraction DP may find a *better* partition than the streamed value
  // (it minimizes jointly over all levels), never a worse one beyond noise.
  const double extracted = a.Extract().SseAgainst(data);
  EXPECT_LE(extracted, a.ApproxError() * (1.0 + 1e-9) + 1e-6);
}

TEST(AgglomerativeTest, SpaceGrowsLogarithmically) {
  AgglomerativeHistogram a = MakeAgglom(4, 0.5);
  Random rng(13);
  int64_t entries_at_1k = 0;
  for (int i = 1; i <= 16000; ++i) {
    a.Append(rng.UniformInt(0, 256));
    if (i == 1000) entries_at_1k = a.total_stored_entries();
  }
  const int64_t entries_at_16k = a.total_stored_entries();
  ASSERT_GT(entries_at_1k, 0);
  // A 16x longer stream should grow storage by far less than 16x (the bound
  // is logarithmic in stream length for bounded values).
  EXPECT_LT(entries_at_16k, 4 * entries_at_1k);
}

// The per-append DP scan may be restructured for speed (block reductions,
// block skipping), but the streamed HERROR after every arrival, the endpoint
// snapshots and the extraction are pinned here bit for bit: a kernel change
// that alters any operand, any operation or the visited candidate set fails
// these even when the (1+eps) guarantee tests above still pass.

// Level-plus-noise in whole cents: levels in [10, 90] held for 60-180
// points, uniform noise of +-2.50 (the shape of the benchmark's streams).
std::vector<double> LevelPlusNoise(int64_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(n));
  while (static_cast<int64_t>(out.size()) < n) {
    const int64_t level = rng.UniformInt(1000, 9000);
    const int64_t hold = rng.UniformInt(60, 180);
    for (int64_t i = 0; i < hold && static_cast<int64_t>(out.size()) < n;
         ++i) {
      out.push_back(static_cast<double>(level + rng.UniformInt(-250, 250)) /
                    100.0);
    }
  }
  return out;
}

// FNV-1a, folded one byte at a time.
uint64_t Fnv1a(uint64_t digest, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    digest ^= bytes[i];
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

// Everything the builder decides, rendered as one string so a mismatch
// prints the whole actual fingerprint next to the pinned one: a digest of
// ApproxError()'s bits after every append, a digest of the Serialize()
// bytes (every endpoint's p, sums and HERROR), the endpoint count and the
// extracted histogram.
std::string Fingerprint(int64_t buckets, double epsilon,
                        const std::vector<double>& values) {
  AgglomerativeHistogram a = MakeAgglom(buckets, epsilon);
  uint64_t errors = 0xcbf29ce484222325ULL;
  for (double v : values) {
    a.Append(v);
    const uint64_t bits = std::bit_cast<uint64_t>(a.ApproxError());
    errors = Fnv1a(errors, &bits, sizeof(bits));
  }
  const std::string bytes = a.Serialize();
  const uint64_t state = Fnv1a(0xcbf29ce484222325ULL, bytes.data(),
                               bytes.size());
  char hex[64];
  std::snprintf(hex, sizeof(hex), "errors=%016llx state=%016llx",
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(state));
  return std::string(hex) + " entries=" +
         std::to_string(a.total_stored_entries()) + " hist=" +
         a.Extract().ToString();
}

struct AgglomerativeGoldenCase {
  const char* name;
  int64_t buckets;
  double epsilon;
  std::function<std::vector<double>()> values;
  const char* pinned;
};

TEST(AgglomerativeGoldenTest, StreamedAnswersAreBitIdentical) {
  const AgglomerativeGoldenCase cases[] = {
      // Long enough that every level's queue spans many 64-entry blocks.
      {"level_noise_100k_b16", 16, 0.1,
       [] { return LevelPlusNoise(100000, 1); },
       "errors=a5849d270dff947e state=b6c86b955e212871 entries=34896 "
       "hist=[0,2044)=36.4272 [2044,8199)=53.58 [8199,11321)=38.29 "
       "[11321,11918)=81.102 [11918,17257)=49.4528 [17257,20558)=34.0555 "
       "[20558,42790)=51.6524 [42790,45293)=31.0468 "
       "[45293,47291)=62.2828 [47291,47720)=17.2844 "
       "[47720,49193)=62.2387 [49193,54430)=39.9831 "
       "[54430,95552)=50.2691 [95552,97438)=28.1407 [97438,99708)=54.247 "
       "[99708,100000)=12.609"},
      // Sums near 1e9 * n with a 1e-6 variance: the true bucket errors lie
      // far below the sums' rounding, which must be reproduced exactly.
      {"near_1e9_tiny_variance", 16, 0.001,
       [] {
         Random rng(2);
         std::vector<double> out;
         for (int i = 0; i < 20000; ++i) {
           const double level = (i / 400) % 2 == 0 ? 1e9 : 1e9 + 5e-3;
           out.push_back(level + rng.Gaussian(0.0, 1e-3));
         }
         return out;
       },
       "errors=5d221d5070447725 state=bf3339faaa271bd2 entries=15 "
       "hist=[0,20000)=1e+09"},
      // Near 1e6 with a 0.01 variance: the scan's double spans carry
      // rounding errors far above the true bucket errors, over queues of
      // many blocks, so a skip bound must allow for that rounding.
      {"near_1e6_small_variance", 8, 0.1,
       [] {
         Random rng(5);
         std::vector<double> out;
         for (int i = 0; i < 20000; ++i) {
           const double level = (i / 400) % 2 == 0 ? 1e6 : 1e6 + 1.0;
           out.push_back(level + rng.Gaussian(0.0, 0.1));
         }
         return out;
       },
       "errors=3df59a1d2e59726f state=7f114aa52625fdb0 entries=6501 "
       "hist=[0,400)=1e+06 [400,800)=1e+06 [800,1200)=1e+06 "
       "[1200,1600)=1e+06 [1600,2000)=1e+06 [2000,2400)=1e+06 "
       "[2400,2800)=1e+06 [2800,20000)=1e+06"},
      {"constant_runs", 6, 0.1,
       [] {
         const double levels[] = {3.0, -7.0, 3.0, 42.0, 0.0, 11.0};
         std::vector<double> out;
         for (int i = 0; i < 20000; ++i) out.push_back(levels[(i / 450) % 6]);
         return out;
       },
       "errors=660813fea75e2d64 state=4a1927e7827f8a9f entries=3138 "
       "hist=[0,1350)=-0.333333 [1350,1800)=42 [1800,4050)=2 "
       "[4050,4500)=42 [4500,19371)=8.28142 [19371,20000)=-3.82035"},
      {"ramp_with_spikes", 16, 0.2,
       [] {
         std::vector<double> out;
         for (int i = 0; i < 20000; ++i) {
           out.push_back(i % 97 == 13 ? 1000.0 : 0.5 * (i % 5000));
         }
         return out;
       },
       "errors=815c8ba61a804110 state=c5859c13ba79e508 entries=17840 "
       "hist=[0,1274)=325.418 [1274,2540)=953.778 [2540,3798)=1577.98 "
       "[3798,5000)=2187.14 [5000,6213)=309.972 [6213,7499)=928.558 "
       "[7499,8763)=1559.28 [8763,10000)=2178.99 [10000,11247)=318.87 "
       "[11247,12540)=947.066 [12540,13789)=1575.73 "
       "[13789,15000)=2185.02 [15000,16257)=321.084 "
       "[16257,17502)=940.069 [17502,18742)=1554.71 "
       "[18742,20000)=2172.78"},
      // A NaN handed straight to Append (the engine quarantines these; the
      // core builder must still behave the same).
      {"nan_mid_stream", 8, 0.1,
       [] {
         std::vector<double> out = LevelPlusNoise(6001, 3);
         out[3000] = std::numeric_limits<double>::quiet_NaN();
         return out;
       },
       "errors=abfc9921e5b4ee1c state=23a184b67b32e2de entries=4615 "
       "hist=[0,6001)=nan"},
      {"buckets_1", 1, 0.1, [] { return LevelPlusNoise(20000, 4); },
       "errors=d93a7dde30662f63 state=6aa200478417fe8b entries=0 "
       "hist=[0,20000)=49.2207"},
      {"buckets_2", 2, 0.1, [] { return LevelPlusNoise(20000, 4); },
       "errors=0488b4d3687beaa9 state=d2f771ac8f244682 entries=265 "
       "hist=[0,1850)=36.7095 [1850,20000)=50.496"},
      {"buckets_16", 16, 0.1, [] { return LevelPlusNoise(20000, 4); },
       "errors=742fc0e9991d727d state=76b43c897d462d9e entries=26084 "
       "hist=[0,141)=18.0056 [141,504)=65.4577 [504,1848)=30.8499 "
       "[1848,5212)=50.131 [5212,6227)=66.0903 [6227,7105)=30.4139 "
       "[7105,10314)=60.1864 [10314,10548)=26.0264 [10548,11329)=53.7989 "
       "[11329,12578)=30.7822 [12578,13425)=63.6533 "
       "[13425,14460)=32.7529 [14460,14728)=65.6019 "
       "[14728,15106)=23.5306 [15106,15246)=87.3274 "
       "[15246,20000)=52.1707"},
  };
  for (const AgglomerativeGoldenCase& c : cases) {
    EXPECT_EQ(Fingerprint(c.buckets, c.epsilon, c.values()), c.pinned)
        << c.name;
  }
}

// Property sweep: the extracted histogram's SSE is within (1+eps) of the
// optimal B-bucket histogram of the full prefix.
struct GuaranteeCase {
  const char* dataset;
  int64_t length;
  int64_t buckets;
  double epsilon;
  uint64_t seed;
};

void PrintTo(const GuaranteeCase& c, std::ostream* os) {
  *os << c.dataset << "/n" << c.length << "/B" << c.buckets << "/eps"
      << c.epsilon << "/s" << c.seed;
}

class AgglomerativeGuaranteeTest
    : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(AgglomerativeGuaranteeTest, WithinOnePlusEpsilonOfOptimal) {
  const GuaranteeCase c = GetParam();
  const std::vector<double> data =
      GenerateDataset(ParseDatasetKind(c.dataset), c.length, c.seed);
  AgglomerativeHistogram a = MakeAgglom(c.buckets, c.epsilon);
  for (double v : data) a.Append(v);
  const double opt = OptimalSse(data, c.buckets);
  const double approx = a.Extract().SseAgainst(data);
  EXPECT_LE(approx, (1.0 + c.epsilon) * opt + 1e-6)
      << "approx=" << approx << " opt=" << opt;
  EXPECT_GE(approx, opt - 1e-6);  // can never beat the optimum
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AgglomerativeGuaranteeTest,
    ::testing::Values(GuaranteeCase{"walk", 200, 4, 0.5, 1},
                      GuaranteeCase{"walk", 200, 4, 0.1, 2},
                      GuaranteeCase{"walk", 400, 8, 0.2, 3},
                      GuaranteeCase{"piecewise", 300, 6, 0.1, 4},
                      GuaranteeCase{"piecewise", 300, 6, 1.0, 5},
                      GuaranteeCase{"zipf", 200, 4, 0.3, 6},
                      GuaranteeCase{"zipf", 300, 8, 0.05, 7},
                      GuaranteeCase{"sines", 400, 8, 0.2, 8},
                      GuaranteeCase{"utilization", 400, 6, 0.5, 9},
                      GuaranteeCase{"utilization", 200, 2, 0.05, 10}));

}  // namespace
}  // namespace streamhist
