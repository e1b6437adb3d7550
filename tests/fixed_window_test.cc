#include "src/core/fixed_window.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bucket_cost.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/engine/query_engine.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

FixedWindowHistogram MakeFw(int64_t window, int64_t buckets, double epsilon,
                            bool rebuild_on_append = true) {
  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  options.rebuild_on_append = rebuild_on_append;
  return FixedWindowHistogram::Create(options).value();
}

TEST(FixedWindowTest, CreateValidatesOptions) {
  FixedWindowOptions bad;
  bad.window_size = 0;
  EXPECT_FALSE(FixedWindowHistogram::Create(bad).ok());
  bad.window_size = 8;
  bad.num_buckets = 0;
  EXPECT_FALSE(FixedWindowHistogram::Create(bad).ok());
  bad.num_buckets = 2;
  bad.epsilon = 0.0;
  EXPECT_FALSE(FixedWindowHistogram::Create(bad).ok());
  bad.epsilon = 0.5;
  EXPECT_TRUE(FixedWindowHistogram::Create(bad).ok());
}

TEST(FixedWindowTest, EmptyWindowExtractsEmptyHistogram) {
  FixedWindowHistogram fw = MakeFw(8, 2, 1.0);
  EXPECT_EQ(fw.Extract().num_buckets(), 0);
  EXPECT_DOUBLE_EQ(fw.ApproxError(), 0.0);
}

// The paper's Example 1, first phase: stream 100,0,0,0,1,1,1,1 with eps such
// that delta = 1 and B = 2. The level-1 interval list should be
// (1,1),(2,8) in the paper's 1-based notation — i.e. endpoints {1, 8} in
// prefix lengths — because HERROR[1,1] = 0 and all of [2..8] stays within a
// factor (1+1) of HERROR[2,1].
TEST(FixedWindowTest, PaperExampleOneInitialWindow) {
  // delta = eps/(2B) = 1  =>  eps = 4 with B = 2.
  FixedWindowHistogram fw = MakeFw(8, 2, 4.0);
  for (double v : {100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0}) fw.Append(v);

  // Optimal split: {100} | {0,0,0,1,1,1,1}; SSE = 12/7.
  const double opt = 3 * (4.0 / 7) * (4.0 / 7) + 4 * (3.0 / 7) * (3.0 / 7);
  EXPECT_LE(fw.ApproxError(), (1 + 4.0) * opt + 1e-9);
  // With HERROR[1,1]=0 the first interval is exactly the prefix {100}, so the
  // approximate solution actually equals the optimum here.
  EXPECT_NEAR(fw.ApproxError(), opt, 1e-9);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 2);
  EXPECT_EQ(h.buckets()[0].end, 1);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 100.0);
}

// The paper's Example 1, after the slide: 100 is evicted and another 1
// appended, giving window 0,0,0,1,1,1,1,1. The level-1 endpoints become
// {3, 6, 8} (prefix lengths) and the optimal solution (1,3),(4,8) in the
// paper's notation — buckets [0,3) and [3,8) here — is found with zero error.
TEST(FixedWindowTest, PaperExampleOneAfterSlide) {
  FixedWindowHistogram fw = MakeFw(8, 2, 4.0);
  for (double v : {100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0}) fw.Append(v);
  fw.Append(1.0);  // evicts 100

  EXPECT_NEAR(fw.ApproxError(), 0.0, 1e-9);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 2);
  EXPECT_EQ(h.buckets()[0].begin, 0);
  EXPECT_EQ(h.buckets()[0].end, 3);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 0.0);
  EXPECT_EQ(h.buckets()[1].end, 8);
  EXPECT_DOUBLE_EQ(h.buckets()[1].value, 1.0);
}

TEST(FixedWindowTest, ExtractCoversWindowAndValidates) {
  FixedWindowHistogram fw = MakeFw(16, 4, 0.5);
  Random rng(3);
  for (int i = 0; i < 40; ++i) {
    fw.Append(rng.UniformInt(0, 100));
    const Histogram& h = fw.Extract();
    EXPECT_TRUE(h.Validate().ok());
    EXPECT_EQ(h.domain_size(), fw.window().size());
    EXPECT_LE(h.num_buckets(), 4);
  }
}

TEST(FixedWindowTest, LazyRebuildMatchesEagerRebuild) {
  FixedWindowHistogram eager = MakeFw(32, 3, 0.2, /*rebuild_on_append=*/true);
  FixedWindowHistogram lazy = MakeFw(32, 3, 0.2, /*rebuild_on_append=*/false);
  Random rng(9);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Gaussian(10, 5);
    eager.Append(v);
    lazy.Append(v);
  }
  EXPECT_DOUBLE_EQ(eager.ApproxError(), lazy.ApproxError());
  EXPECT_EQ(eager.Extract(), lazy.Extract());
}

TEST(FixedWindowTest, ApproxErrorMatchesExtractedHistogramSse) {
  FixedWindowHistogram fw = MakeFw(64, 5, 0.3);
  Random rng(17);
  for (int i = 0; i < 200; ++i) fw.Append(rng.UniformInt(0, 50));
  const std::vector<double> window = fw.window().ToVector();
  // The streamed error must match the SSE of the extracted histogram (same
  // boundaries, mean representatives).
  EXPECT_NEAR(fw.ApproxError(), fw.Extract().SseAgainst(window),
              1e-6 * (1.0 + fw.ApproxError()));
}

TEST(FixedWindowTest, SingleBucketMatchesPrefixError) {
  FixedWindowHistogram fw = MakeFw(16, 1, 0.1);
  Random rng(23);
  std::vector<double> tail;
  for (int i = 0; i < 50; ++i) {
    const double v = rng.UniformDouble(0, 10);
    fw.Append(v);
    tail.push_back(v);
  }
  const std::vector<double> window = fw.window().ToVector();
  EXPECT_NEAR(fw.ApproxError(), OptimalSse(window, 1), 1e-6);
}

TEST(FixedWindowTest, RangeSumUsesExtractedHistogram) {
  FixedWindowHistogram fw = MakeFw(8, 2, 4.0);
  for (double v : {100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0}) fw.Append(v);
  // Bucket [0,1)=100, [1,8)=4/7.
  EXPECT_NEAR(fw.RangeSum(0, 8), 104.0, 1e-9);
  EXPECT_NEAR(fw.RangeSum(1, 8), 4.0, 1e-9);
}

TEST(FixedWindowTest, IntervalCountStaysModest) {
  // Bounded integer inputs: interval count per level is O((1/delta) log n).
  FixedWindowHistogram fw = MakeFw(256, 4, 0.4);
  Random rng(31);
  for (int i = 0; i < 512; ++i) fw.Append(rng.UniformInt(0, 1024));
  const double delta = fw.delta();
  const double bound =
      3.0 * (1.0 / delta) * std::log(1024.0 * 1024.0 * 256.0) *
      static_cast<double>(4 - 1);
  EXPECT_GT(fw.last_total_intervals(), 0);
  EXPECT_LT(static_cast<double>(fw.last_total_intervals()), bound);
}

// Property sweep: the maintained histogram's error is within (1+eps) of the
// optimal B-bucket histogram of the *current window*, at every step of a
// sliding stream, across datasets, window sizes, B and eps.
struct GuaranteeCase {
  const char* dataset;
  int64_t window;
  int64_t buckets;
  double epsilon;
  uint64_t seed;
};

void PrintTo(const GuaranteeCase& c, std::ostream* os) {
  *os << c.dataset << "/n" << c.window << "/B" << c.buckets << "/eps"
      << c.epsilon << "/s" << c.seed;
}

class FixedWindowGuaranteeTest
    : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(FixedWindowGuaranteeTest, WithinOnePlusEpsilonOfOptimal) {
  const GuaranteeCase c = GetParam();
  const std::vector<double> stream =
      GenerateDataset(ParseDatasetKind(c.dataset), 3 * c.window, c.seed);
  FixedWindowHistogram fw = MakeFw(c.window, c.buckets, c.epsilon);
  int64_t checked = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    fw.Append(stream[i]);
    // Checking every step is O(n^2 B) per step; sample a handful of steps.
    if (!fw.window().full() || i % 37 != 0) continue;
    const std::vector<double> window = fw.window().ToVector();
    const double opt = OptimalSse(window, c.buckets);
    EXPECT_LE(fw.ApproxError(), (1.0 + c.epsilon) * opt + 1e-6)
        << "at stream position " << i << " (opt=" << opt << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedWindowGuaranteeTest,
    ::testing::Values(GuaranteeCase{"walk", 64, 4, 0.5, 1},
                      GuaranteeCase{"walk", 64, 4, 0.1, 2},
                      GuaranteeCase{"walk", 128, 8, 0.2, 3},
                      GuaranteeCase{"piecewise", 64, 4, 0.5, 4},
                      GuaranteeCase{"piecewise", 128, 6, 0.1, 5},
                      GuaranteeCase{"zipf", 64, 4, 0.3, 6},
                      GuaranteeCase{"zipf", 96, 8, 1.0, 7},
                      GuaranteeCase{"sines", 128, 8, 0.2, 8},
                      GuaranteeCase{"utilization", 128, 6, 0.5, 9},
                      GuaranteeCase{"utilization", 64, 2, 0.05, 10}));

// --- Max-abs error metric (the paper's footnote-3 generalization) ---

FixedWindowHistogram MakeMaxAbsFw(int64_t window, int64_t buckets,
                                  double epsilon) {
  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  options.rebuild_on_append = false;
  options.metric = WindowErrorMetric::kMaxAbs;
  return FixedWindowHistogram::Create(options).value();
}

TEST(FixedWindowMaxAbsTest, PiecewiseConstantIsExact) {
  FixedWindowHistogram fw = MakeMaxAbsFw(12, 3, 0.5);
  for (double v : {4.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0, 9.0, 9.0, 9.0, 9.0,
                   9.0}) {
    fw.Append(v);
  }
  EXPECT_NEAR(fw.ApproxError(), 0.0, 1e-12);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 3);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 4.0);   // midrange of a constant run
  EXPECT_DOUBLE_EQ(h.buckets()[1].value, -1.0);
  EXPECT_DOUBLE_EQ(h.buckets()[2].value, 9.0);
}

TEST(FixedWindowMaxAbsTest, RepresentativeIsMidrange) {
  FixedWindowHistogram fw = MakeMaxAbsFw(4, 1, 0.5);
  for (double v : {0.0, 10.0, 2.0, 4.0}) fw.Append(v);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 1);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 5.0);  // (min+max)/2
  EXPECT_DOUBLE_EQ(fw.ApproxError(), 5.0);      // (max-min)/2
}

class FixedWindowMaxAbsGuaranteeTest
    : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(FixedWindowMaxAbsGuaranteeTest, WithinOnePlusEpsilonOfOptimal) {
  const GuaranteeCase c = GetParam();
  const std::vector<double> stream =
      GenerateDataset(ParseDatasetKind(c.dataset), 2 * c.window, c.seed);
  FixedWindowHistogram fw = MakeMaxAbsFw(c.window, c.buckets, c.epsilon);
  int64_t checked = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    fw.Append(stream[i]);
    if (!fw.window().full() || i % 41 != 0) continue;
    const std::vector<double> window = fw.window().ToVector();
    const MaxAbsBucketCost cost(window);
    const double opt = BuildOptimalHistogram(cost, c.buckets).error;
    EXPECT_LE(fw.ApproxError(), (1.0 + c.epsilon) * opt + 1e-9)
        << "at stream position " << i << " (opt=" << opt << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedWindowMaxAbsGuaranteeTest,
    ::testing::Values(GuaranteeCase{"walk", 64, 4, 0.5, 21},
                      GuaranteeCase{"piecewise", 96, 6, 0.2, 22},
                      GuaranteeCase{"zipf", 64, 4, 1.0, 23},
                      GuaranteeCase{"utilization", 128, 8, 0.5, 24}));

// --- Golden bit-identity pins ---
//
// CreateList's answers are a deterministic function of the window contents:
// the same long-double prefix sums, the same SQERROR formula and the same
// lazy, memoised evaluation order give the same HERROR values, boundaries,
// representatives and evaluation counts. These pins record them bit for bit,
// so a kernel change that alters any operand, operation or evaluation order
// fails here even when the (1+eps) guarantee tests above still pass.

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

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Everything a rebuild decides, rendered as one string so a mismatch prints
// the whole actual fingerprint next to the pinned one.
std::string Fingerprint(FixedWindowHistogram& fw) {
  const double approx = fw.ApproxError();
  const int64_t rebuild_evals = fw.last_herror_evals();
  const int64_t intervals = fw.last_total_intervals();
  const Histogram& h = fw.Extract();
  // FNV-1a over the representatives' bit patterns.
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Bucket& b : h.buckets()) {
    uint64_t bits = Bits(b.value);
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= bits & 0xff;
      digest *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  std::ostringstream out;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Bits(approx)));
  out << "error=" << hex << " evals=" << rebuild_evals << "/"
      << fw.last_herror_evals() << " intervals=" << intervals
      << " bounds=";
  for (const Bucket& b : h.buckets()) out << b.begin << ",";
  out << (h.buckets().empty() ? 0 : h.buckets().back().end);
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  out << " reps=" << hex;
  return out.str();
}

FixedWindowOptions GoldenOptions(
    int64_t window, int64_t buckets, double epsilon,
    WindowErrorMetric metric = WindowErrorMetric::kSse) {
  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  options.rebuild_on_append = false;  // one rebuild, as FromContents does
  options.metric = metric;
  return options;
}

struct GoldenCase {
  const char* name;
  FixedWindowOptions options;
  std::function<void(FixedWindowHistogram&)> feed;
  const char* pinned;
};

// Each case feeds its window, then pins everything its rebuild decides.
TEST(FixedWindowGoldenTest, RebuildAnswersAreBitIdentical) {
  FixedWindowOptions eager = GoldenOptions(64, 4, 0.2);
  eager.rebuild_on_append = true;  // rebuilt after every one of the appends
  const GoldenCase cases[] = {
      {"level_noise_n1024_b16", GoldenOptions(1024, 16, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(1536, 1));
       },
       "error=40a094d75f99b1f8 evals=15271/15271 intervals=7446 "
       "bounds=0,66,86,223,228,291,300,320,430,574,698,805,815,822,880,999,"
       "1024 reps=1b6006314c4b4a79"},
      {"near_1e9_tiny_variance", GoldenOptions(512, 8, 0.1),
       [](FixedWindowHistogram& fw) {
         Random rng(2);
         for (int i = 0; i < 700; ++i) {
           const double level = i < 350 ? 1e9 : 1e9 + 5e-3;
           fw.Append(level + rng.Gaussian(0.0, 1e-3));
         }
       },
       "error=3f3e829562b7d28a evals=3557/3557 intervals=1507 "
       "bounds=0,28,30,75,111,162,215,232,512 reps=3e65bd2c04206f90"},
      {"ramp_with_spikes", GoldenOptions(512, 16, 0.2),
       [](FixedWindowHistogram& fw) {
         for (int i = 0; i < 800; ++i) {
           fw.Append(i % 97 == 13 ? 1000.0 : 0.5 * i);
         }
       },
       "error=40e8cbf400000000 evals=7603/7603 intervals=4164 "
       "bounds=0,16,17,113,114,162,210,211,259,307,308,404,405,453,501,502,"
       "512 reps=142d0bd2dbb5adba"},
      {"constant_runs", GoldenOptions(256, 6, 0.1),
       [](FixedWindowHistogram& fw) {
         const double levels[] = {3.0, -7.0, 3.0, 42.0, 0.0, 11.0};
         for (int i = 0; i < 300; ++i) fw.Append(levels[(i / 45) % 6]);
       },
       "error=405874de9bd37a6f evals=655/655 intervals=312 "
       "bounds=0,46,91,136,181,226,256 reps=54f8a56fbeddda65"},
      {"partial_window", GoldenOptions(1024, 16, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(300, 3));
       },
       "error=407b8cbce28ed8a8 evals=4425/4425 intervals=2960 "
       "bounds=0,15,63,65,78,84,122,124,145,152,153,164,167,188,193,196,300 "
       "reps=604769e181c20bb7"},
      {"at_rebase_boundary", GoldenOptions(256, 8, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(512, 4));  // the second rebase: 512
       },
       "error=407d5eba0f6f4780 evals=1779/1779 intervals=1070 "
       "bounds=0,13,22,47,83,220,228,248,256 reps=5e543f217c2e0c6a"},
      {"past_rebase_boundary", GoldenOptions(256, 8, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(512 + 37, 4));
       },
       "error=407ea1d2ea94018c evals=1781/1781 intervals=1048 "
       "bounds=0,39,46,183,191,211,249,254,256 reps=77ca372bf5f1480f"},
      {"after_evict_oldest", GoldenOptions(256, 8, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(400, 5));
         for (int i = 0; i < 100; ++i) fw.EvictOldest();
       },
       "error=40728116abbdef59 evals=1081/1081 intervals=718 "
       "bounds=0,74,89,91,120,126,134,140,156 reps=bb6c7f4010a625c5"},
      {"maxabs", GoldenOptions(256, 8, 0.1, WindowErrorMetric::kMaxAbs),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(400, 6));
       },
       "error=4021e3d70a3d70a4 evals=1346/1346 intervals=189 "
       "bounds=0,2,3,4,5,16,152,219,256 reps=54ed4d1f9da7e450"},
      {"buckets_1", GoldenOptions(512, 1, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(700, 7));
       },
       "error=410261209fb0f27c evals=1/1 intervals=0 bounds=0,512 "
       "reps=f9547fcd95317e8f"},
      {"buckets_2", GoldenOptions(512, 2, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(700, 7));
       },
       "error=40dc2dbe366cecc0 evals=439/439 intervals=180 "
       "bounds=0,252,512 reps=ceb72d137941d0a6"},
      {"buckets_16", GoldenOptions(512, 16, 0.1),
       [](FixedWindowHistogram& fw) {
         fw.AppendBatch(LevelPlusNoise(700, 7));
       },
       "error=408d63552c73af0f evals=7603/7603 intervals=4545 "
       "bounds=0,50,110,155,200,214,223,252,309,322,327,330,370,400,414,496,"
       "512 reps=554c0d75d74c9015"},
      {"eager_rebuild", eager,
       [](FixedWindowHistogram& fw) {
         for (double v : LevelPlusNoise(200, 8)) fw.Append(v);
       },
       "error=405d2f7f32515a51 evals=191/191 intervals=130 "
       "bounds=0,26,32,33,64 reps=362e918fe2252394"},
  };
  for (const GoldenCase& c : cases) {
    FixedWindowHistogram fw = FixedWindowHistogram::Create(c.options).value();
    c.feed(fw);
    EXPECT_EQ(Fingerprint(fw), c.pinned) << c.name;
  }
}

// The engine's read-after-write path: each APPEND invalidates the published
// window section, and the next ERROR/SHOW rebuilds it from the frozen
// contents (WindowSection::Materialize).
TEST(FixedWindowGoldenTest, EngineReadAfterWriteIsBitIdentical) {
  QueryEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE s 1024 16").ok());
  const std::vector<double> values = LevelPlusNoise(1536 + 8, 9);
  auto append = [&](size_t begin, size_t end) {
    std::ostringstream statement;
    statement << "APPEND s";
    for (size_t i = begin; i < end; ++i) statement << " " << values[i];
    ASSERT_TRUE(engine.Execute(statement.str()).ok());
  };
  for (size_t i = 0; i < 1536; i += 64) append(i, i + 64);
  std::vector<std::string> replies;
  for (size_t i = 1536; i < values.size(); i += 4) {
    append(i, i + 4);
    replies.push_back(engine.Execute("ERROR s").value());
    replies.push_back(engine.Execute("SHOW s").value());
  }
  const std::vector<std::string> pinned = {
      "1960.60322614",
      "[0,27)=34.9563 [27,38)=33.2891 [38,86)=34.7338 [86,250)=16.263 "
      "[250,332)=21.2298 [332,338)=23.0117 [338,340)=19.365 "
      "[340,344)=23.2125 [344,380)=21.0117 [380,393)=64.0585 "
      "[393,480)=65.0477 [480,601)=55.2107 [601,698)=52.5937 "
      "[698,856)=68.8315 [856,923)=56.263 [923,1024)=29.2747",
      "1963.64727113",
      "[0,23)=34.9178 [23,34)=33.2891 [34,82)=34.7338 [82,246)=16.263 "
      "[246,328)=21.2298 [328,334)=23.0117 [334,336)=19.365 "
      "[336,340)=23.2125 [340,376)=21.0117 [376,389)=64.0585 "
      "[389,476)=65.0477 [476,597)=55.2107 [597,694)=52.5937 "
      "[694,852)=68.8315 [852,919)=56.263 [919,1024)=29.2778",
  };
  EXPECT_EQ(replies, pinned);
}

}  // namespace
}  // namespace streamhist
