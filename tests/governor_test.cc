// The resource-governance layer: deadlines and cooperative cancellation
// (util/deadline.h), the process-wide memory governor (util/governor.h),
// count-limited fault arming (util/fault.h), and the degradation ladder
// that ties them together in ManagedStream::BuildWindowHistogram. The core
// claim under test: a BUILD always terminates with a histogram and a
// truthful certificate, no matter which rungs expire or are refused memory.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/agglomerative.h"
#include "src/core/approx_dp.h"
#include "src/core/vopt_dp.h"
#include "src/core/vopt_kernel.h"
#include "src/engine/managed_stream.h"
#include "src/util/deadline.h"
#include "src/util/fault.h"
#include "src/util/governor.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

std::vector<double> TestSeries(int64_t n) {
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v.push_back(std::sin(static_cast<double>(i) * 0.05) * 10.0 +
                (i % 97 == 0 ? 25.0 : 0.0));
  }
  return v;
}

// Every test starts and ends with a clean global governor + fault registry.
class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    governor::SetBudgetForTest(0);
  }
  void TearDown() override {
    fault::DisarmAll();
    governor::SetBudgetForTest(0);
  }
};

// ---------------------------------------------------------------------------
// Deadline / CancelToken / ExecContext

TEST_F(GovernorTest, InfiniteDeadlineNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), int64_t{1} << 40);
}

TEST_F(GovernorTest, NonPositiveDeadlineIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-100).Expired());
  EXPECT_EQ(Deadline::AfterMillis(-100).RemainingMillis(), 0);
}

TEST_F(GovernorTest, GenerousDeadlineNotExpiredImmediately) {
  const Deadline d = Deadline::AfterMillis(60 * 1000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 0);
  EXPECT_LE(d.RemainingMillis(), 60 * 1000);
}

TEST_F(GovernorTest, ExecContextLatchesCancellation) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.Cancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.ShouldStop());  // latched, stays stopped
}

TEST_F(GovernorTest, ExecContextLatchesExpiredDeadline) {
  ExecContext ctx(Deadline::AfterMillis(0));
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.ShouldStop());
}

TEST_F(GovernorTest, DeadlineExpireFaultForcesStopWithoutWallClock) {
  // The chaos hook: an infinite deadline still reports expiry when the
  // fault point fires, and the answer latches.
  ExecContext ctx;
  fault::Arm("deadline.expire", 1);
  EXPECT_TRUE(ctx.ShouldStop());
  fault::DisarmAll();
  EXPECT_TRUE(ctx.ShouldStop());  // latched even after disarm
  // A fresh context is unaffected once the budget is spent.
  ExecContext fresh;
  EXPECT_FALSE(fresh.ShouldStop());
}

// ---------------------------------------------------------------------------
// Memory governor

TEST_F(GovernorTest, TryChargeRespectsBudget) {
  const int64_t base = governor::Used();
  governor::SetBudgetForTest(base + 1000);
  EXPECT_TRUE(governor::TryCharge(600));
  EXPECT_FALSE(governor::TryCharge(600));  // would exceed the budget
  EXPECT_EQ(governor::Used(), base + 600);
  governor::Release(600);
  EXPECT_TRUE(governor::TryCharge(1000));  // exactly at the budget is fine
  governor::Release(1000);
  EXPECT_EQ(governor::Used(), base);
}

TEST_F(GovernorTest, UnlimitedBudgetAdmitsEverythingNonNegative) {
  EXPECT_TRUE(governor::TryCharge(int64_t{1} << 40));
  governor::Release(int64_t{1} << 40);
  EXPECT_FALSE(governor::TryCharge(-1));  // negative is always refused
}

TEST_F(GovernorTest, OomFaultRefusesCharge) {
  fault::ScopedFault oom("governor.oom");
  const int64_t base = governor::Used();
  EXPECT_FALSE(governor::TryCharge(16));
  EXPECT_EQ(governor::Used(), base);  // refusal charges nothing
  EXPECT_GE(fault::TriggerCount("governor.oom"), 1);
}

TEST_F(GovernorTest, AdjustChargeIsUnconditional) {
  // Existing state must stay accounted even past the budget: admission is
  // TryCharge's job, not AdjustCharge's.
  const int64_t base = governor::Used();
  governor::SetBudgetForTest(base + 10);
  governor::AdjustCharge(500);
  EXPECT_EQ(governor::Used(), base + 500);
  governor::AdjustCharge(-500);
  EXPECT_EQ(governor::Used(), base);
}

TEST_F(GovernorTest, PeakTracksHighWaterMark) {
  const int64_t before = governor::Peak();
  governor::AdjustCharge(1 << 20);
  EXPECT_GE(governor::Peak(), governor::Used());
  EXPECT_GE(governor::Peak(), before);
  governor::AdjustCharge(-(1 << 20));
  EXPECT_GE(governor::Peak(), governor::Used() + (1 << 20));
}

TEST_F(GovernorTest, ScopedChargeReleasesOnDestruction) {
  const int64_t base = governor::Used();
  {
    governor::ScopedCharge charge(512);
    EXPECT_TRUE(charge.ok());
    EXPECT_EQ(governor::Used(), base + 512);
  }
  EXPECT_EQ(governor::Used(), base);
  governor::SetBudgetForTest(base + 16);
  {
    governor::ScopedCharge refused(512);
    EXPECT_FALSE(refused.ok());
    EXPECT_EQ(governor::Used(), base);  // nothing charged, nothing leaked
  }
  EXPECT_EQ(governor::Used(), base);
}

TEST_F(GovernorTest, ParseByteSizeHandlesSuffixes) {
  EXPECT_EQ(governor::ParseByteSize("512"), 512);
  EXPECT_EQ(governor::ParseByteSize("64K"), 64 * 1024);
  EXPECT_EQ(governor::ParseByteSize("16M"), 16 * 1024 * 1024);
  EXPECT_EQ(governor::ParseByteSize("2G"), int64_t{2} * 1024 * 1024 * 1024);
  EXPECT_EQ(governor::ParseByteSize("0"), 0);
  EXPECT_LT(governor::ParseByteSize(""), 0);
  EXPECT_LT(governor::ParseByteSize("abc"), 0);
  EXPECT_LT(governor::ParseByteSize("12T"), 0);   // unknown suffix
  EXPECT_LT(governor::ParseByteSize("-5"), 0);    // no negative budgets
  EXPECT_LT(governor::ParseByteSize("99999999999999999999"), 0);  // overflow
}

TEST_F(GovernorTest, FormatBytesIsHumanReadable) {
  EXPECT_EQ(governor::FormatBytes(0), "unlimited");
  EXPECT_EQ(governor::FormatBytes(-3), "unlimited");
  EXPECT_NE(governor::FormatBytes(1 << 20).find("MiB"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Count-limited fault arming

TEST_F(GovernorTest, FiniteFireBudgetSelfDisarms) {
  fault::Arm("scratch.point", 2);
  EXPECT_TRUE(fault::Triggered("scratch.point"));
  EXPECT_TRUE(fault::Triggered("scratch.point"));
  EXPECT_FALSE(fault::Triggered("scratch.point"));  // budget spent
  EXPECT_EQ(fault::TriggerCount("scratch.point"), 2);  // count survives
  EXPECT_TRUE(fault::Armed().empty());
}

TEST_F(GovernorTest, RearmingResetsTheBudget) {
  fault::Arm("scratch.point", 1);
  EXPECT_TRUE(fault::Triggered("scratch.point"));
  EXPECT_FALSE(fault::Triggered("scratch.point"));
  fault::Arm("scratch.point", 1);
  EXPECT_TRUE(fault::Triggered("scratch.point"));
}

TEST_F(GovernorTest, ArmRejectsNonPositiveFiniteBudget) {
  fault::Arm("scratch.point", 0);
  EXPECT_FALSE(fault::Triggered("scratch.point"));
  fault::Arm("scratch.point", -7);
  EXPECT_FALSE(fault::Triggered("scratch.point"));
}

TEST_F(GovernorTest, ArmFromSpecParsesFireBudgets) {
  fault::ArmFromSpec("governor.oom:2, deadline.expire");
  EXPECT_TRUE(fault::Triggered("governor.oom"));
  EXPECT_TRUE(fault::Triggered("governor.oom"));
  EXPECT_FALSE(fault::Triggered("governor.oom"));  // finite budget spent
  EXPECT_TRUE(fault::Triggered("deadline.expire"));
  EXPECT_TRUE(fault::Triggered("deadline.expire"));  // unlimited
}

TEST_F(GovernorTest, ArmFromSpecStillArmsUnknownNames) {
  // Unknown names warn on stderr (not asserted here) but must still arm so
  // tests can use scratch points.
  fault::ArmFromSpec("totally.bogus:1");
  EXPECT_TRUE(fault::Triggered("totally.bogus"));
}

TEST_F(GovernorTest, KnownPointsIsSortedAndCompletePerHeaderDoc) {
  const std::vector<std::string> known = fault::KnownPoints();
  EXPECT_TRUE(std::is_sorted(known.begin(), known.end()));
  for (const char* p :
       {"deadline.expire", "governor.oom", "fileio.fsync.transient"}) {
    EXPECT_TRUE(std::binary_search(known.begin(), known.end(), std::string(p)))
        << p;
  }
}

// ---------------------------------------------------------------------------
// Cancellable DP kernels: bit-identical when the context never fires,
// Status::Cancelled when it does.

TEST_F(GovernorTest, CancellableExactDpMatchesPlainBuild) {
  const std::vector<double> data = TestSeries(400);
  const OptimalHistogramResult plain = BuildVOptimalHistogram(data, 8);
  ExecContext ctx;
  const auto cancellable = BuildVOptimalHistogramCancellable(data, 8, ctx);
  ASSERT_TRUE(cancellable.ok()) << cancellable.status();
  EXPECT_EQ(cancellable->error, plain.error);
  EXPECT_EQ(cancellable->histogram.ToString(), plain.histogram.ToString());
}

TEST_F(GovernorTest, CancellableApproxDpMatchesPlainBuild) {
  const std::vector<double> data = TestSeries(400);
  const ApproxHistogramResult plain =
      BuildApproxVOptimalHistogram(data, 8, 0.1);
  ExecContext ctx;
  const auto cancellable =
      BuildApproxVOptimalHistogramCancellable(data, 8, 0.1, ctx);
  ASSERT_TRUE(cancellable.ok()) << cancellable.status();
  EXPECT_EQ(cancellable->sse, plain.sse);
  EXPECT_EQ(cancellable->bound_factor, plain.bound_factor);
  EXPECT_EQ(cancellable->histogram.ToString(), plain.histogram.ToString());
}

TEST_F(GovernorTest, CancelledContextAbandonsBothDps) {
  const std::vector<double> data = TestSeries(400);
  ExecContext ctx;
  ctx.Cancel();
  const auto exact = BuildVOptimalHistogramCancellable(data, 8, ctx);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kCancelled);
  const auto approx = BuildApproxVOptimalHistogramCancellable(data, 8, 0.1, ctx);
  ASSERT_FALSE(approx.ok());
  EXPECT_EQ(approx.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernorTest, CancellableAgglomerativeExtractMatchesPlain) {
  ApproxHistogramOptions options;
  options.num_buckets = 8;
  options.epsilon = 0.1;
  AgglomerativeHistogram builder =
      AgglomerativeHistogram::Create(options).value();
  for (double v : TestSeries(2000)) builder.Append(v);
  ExecContext ctx;
  const auto cancellable = builder.ExtractCancellable(ctx);
  ASSERT_TRUE(cancellable.ok()) << cancellable.status();
  EXPECT_EQ(cancellable->ToString(), builder.Extract().ToString());

  ExecContext cancelled;
  cancelled.Cancel();
  const auto abandoned = builder.ExtractCancellable(cancelled);
  ASSERT_FALSE(abandoned.ok());
  EXPECT_EQ(abandoned.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// The degradation ladder

ManagedStream MakeLadderStream(int64_t window, int64_t buckets) {
  StreamConfig config;
  config.window_size = window;
  config.num_buckets = buckets;
  ManagedStream stream = ManagedStream::Create(config).value();
  stream.AppendBatch(TestSeries(window));
  return stream;
}

TEST_F(GovernorTest, NoDeadlineBuildMatchesFirstRungExactly) {
  ManagedStream stream = MakeLadderStream(512, 8);
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kExact);
  EXPECT_FALSE(report.degradation.degraded);
  ASSERT_EQ(report.degradation.attempts.size(), 1u);
  EXPECT_TRUE(report.degradation.attempts[0].completed);
  EXPECT_EQ(report.bound_factor, 1.0);
  EXPECT_EQ(stream.degraded_builds(), 0);
  // Identical to the raw exact DP over the same contents.
  const OptimalHistogramResult plain =
      BuildVOptimalHistogram(TestSeries(512), 8);
  EXPECT_EQ(report.sse, plain.error);
  EXPECT_EQ(report.histogram.ToString(), plain.histogram.ToString());
}

TEST_F(GovernorTest, SingleExpiryDegradesExactToTightestApprox) {
  ManagedStream stream = MakeLadderStream(512, 8);
  fault::Arm("deadline.expire", 1);  // only the exact rung sees expiry
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kApprox);
  EXPECT_EQ(report.delta, 0.01);
  EXPECT_TRUE(report.degradation.degraded);
  ASSERT_EQ(report.degradation.attempts.size(), 2u);
  EXPECT_FALSE(report.degradation.attempts[0].completed);
  EXPECT_EQ(report.degradation.attempts[0].rung, BuildRung::kExact);
  EXPECT_FALSE(report.degradation.attempts[0].reason.empty());
  EXPECT_TRUE(report.degradation.attempts[1].completed);
  // The approx rung's certificate.
  EXPECT_GE(report.bound_factor, 1.0);
  EXPECT_LE(report.bound_factor, std::pow(1.01, 7) + 1e-12);
  EXPECT_EQ(stream.degraded_builds(), 1);
}

TEST_F(GovernorTest, PersistentExpiryFallsAllTheWayToSnapshot) {
  ManagedStream stream = MakeLadderStream(512, 8);
  fault::ScopedFault expire("deadline.expire");  // every rung sees expiry
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kSnapshot);
  EXPECT_TRUE(report.degradation.degraded);
  // exact + three approx rungs abandoned, snapshot completed.
  ASSERT_EQ(report.degradation.attempts.size(), 5u);
  for (size_t i = 0; i + 1 < report.degradation.attempts.size(); ++i) {
    EXPECT_FALSE(report.degradation.attempts[i].completed) << i;
    EXPECT_FALSE(report.degradation.attempts[i].reason.empty()) << i;
  }
  EXPECT_TRUE(report.degradation.attempts.back().completed);
  // The maintained snapshot still carries its certificate and real buckets.
  EXPECT_GT(report.histogram.num_buckets(), 0);
  EXPECT_EQ(report.bound_factor, 1.0 + stream.config().epsilon);
  EXPECT_GE(report.sse, 0.0);
  EXPECT_EQ(stream.degraded_builds(), 1);
}

TEST_F(GovernorTest, OomShedsExactDpToApproxPath) {
  ManagedStream stream = MakeLadderStream(512, 8);
  fault::Arm("governor.oom", 1);  // only the exact rung's scratch is refused
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kApprox);
  EXPECT_EQ(report.delta, 0.01);
  ASSERT_EQ(report.degradation.attempts.size(), 2u);
  EXPECT_NE(report.degradation.attempts[0].reason.find("memory governor"),
            std::string::npos);
  EXPECT_EQ(stream.degraded_builds(), 1);
}

TEST_F(GovernorTest, PersistentOomFallsToSnapshot) {
  ManagedStream stream = MakeLadderStream(512, 8);
  fault::ScopedFault oom("governor.oom");
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kSnapshot);
  ASSERT_EQ(report.degradation.attempts.size(), 5u);
  EXPECT_GT(report.histogram.num_buckets(), 0);
  EXPECT_EQ(report.bound_factor, 1.0 + stream.config().epsilon);
}

TEST_F(GovernorTest, RealBudgetShedsExactScratchButAdmitsApprox) {
  // No faults: an actual byte budget between the approx and exact scratch
  // sizes makes the governor itself pick the rung.
  ManagedStream stream = MakeLadderStream(512, 8);
  const int64_t n = 512;
  const int64_t exact_scratch = vopt_internal::DpScratchBytes(n, 8);
  const int64_t approx_scratch = 3 * (n + 1) * 16 + n * 8;
  ASSERT_GT(exact_scratch, approx_scratch);
  governor::SetBudgetForTest(governor::Used() + exact_scratch - 1);
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kApprox);
  EXPECT_EQ(report.delta, 0.01);
  EXPECT_NE(report.degradation.attempts[0].reason.find("memory governor"),
            std::string::npos);
}

TEST_F(GovernorTest, EverythingHostileStillTerminatesWithCertificate) {
  // Deadline expiry AND memory refusal on every rung: the acceptance bar —
  // BUILD always terminates with a histogram, a certified bound, and a
  // truthful report.
  ManagedStream stream = MakeLadderStream(256, 8);
  fault::ScopedFault expire("deadline.expire");
  fault::ScopedFault oom("governor.oom");
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kSnapshot);
  EXPECT_GT(report.histogram.num_buckets(), 0);
  EXPECT_EQ(report.bound_factor, 1.0 + stream.config().epsilon);
  EXPECT_TRUE(report.degradation.degraded);
  EXPECT_TRUE(report.degradation.attempts.back().completed);
  const std::string trace = report.degradation.ToString();
  EXPECT_NE(trace.find("snapshot"), std::string::npos);
}

TEST_F(GovernorTest, ApproxModeLadderSkipsTighterDeltas) {
  // A stream configured at delta=0.1 must not "degrade" to the tighter 0.01.
  StreamConfig config;
  config.window_size = 256;
  config.num_buckets = 8;
  config.build_mode = WindowBuildMode::kApprox;
  config.build_delta = 0.1;
  ManagedStream stream = ManagedStream::Create(config).value();
  stream.AppendBatch(TestSeries(256));
  fault::Arm("deadline.expire", 1);  // first (configured) rung expires
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kApprox);
  EXPECT_EQ(report.delta, 0.5);  // the next *looser* standard slack
  EXPECT_TRUE(report.degradation.degraded);
}

TEST_F(GovernorTest, EmptyWindowBuildTerminatesUnderFaults) {
  StreamConfig config;
  config.window_size = 64;
  config.num_buckets = 4;
  ManagedStream stream = ManagedStream::Create(config).value();
  fault::ScopedFault expire("deadline.expire");
  fault::ScopedFault oom("governor.oom");
  const WindowBuildReport report = stream.BuildWindowHistogram();
  EXPECT_EQ(report.rung, BuildRung::kSnapshot);
  EXPECT_EQ(report.points, 0);
  EXPECT_EQ(report.histogram.num_buckets(), 0);
  EXPECT_EQ(report.sse, 0.0);
}

TEST_F(GovernorTest, DegradedBuildsAccumulateAndDescribeReportsThem) {
  ManagedStream stream = MakeLadderStream(256, 4);
  {
    fault::ScopedFault expire("deadline.expire");
    (void)stream.BuildWindowHistogram();
    (void)stream.BuildWindowHistogram();
  }
  EXPECT_EQ(stream.degraded_builds(), 2);
  const std::string describe = stream.Describe();
  EXPECT_NE(describe.find("degraded builds=2"), std::string::npos);
  EXPECT_NE(describe.find("last build"), std::string::npos);
  // A clean build afterwards does not increment the counter.
  (void)stream.BuildWindowHistogram();
  EXPECT_EQ(stream.degraded_builds(), 2);
}

// ---------------------------------------------------------------------------
// Stream-level governor accounting

TEST_F(GovernorTest, StreamsChargeAndReleaseTheirFootprint) {
  const int64_t base = governor::Used();
  {
    ManagedStream stream = MakeLadderStream(1024, 8);
    EXPECT_GT(governor::Used(), base);
    EXPECT_GE(governor::Used() - base, stream.MemoryBytes());
  }
  EXPECT_EQ(governor::Used(), base);  // destruction releases everything
}

TEST_F(GovernorTest, MoveTransfersTheCharge) {
  const int64_t base = governor::Used();
  {
    ManagedStream a = MakeLadderStream(512, 8);
    const int64_t charged = governor::Used() - base;
    ManagedStream b = std::move(a);
    EXPECT_EQ(governor::Used() - base, charged);  // no double count
    ManagedStream c = MakeLadderStream(64, 4);
    c = std::move(b);  // assignment releases c's own charge first
    EXPECT_EQ(governor::Used() - base, charged);
  }
  EXPECT_EQ(governor::Used(), base);
}

TEST_F(GovernorTest, EstimateFootprintScalesWithWindow) {
  StreamConfig small;
  small.window_size = 64;
  StreamConfig large;
  large.window_size = 1 << 16;
  EXPECT_GT(ManagedStream::EstimateFootprintBytes(large),
            ManagedStream::EstimateFootprintBytes(small));
  EXPECT_GT(ManagedStream::EstimateFootprintBytes(small), 0);
}

// CREATE admission charges the estimate before anything is allocated, so
// it must cover what the stream holds once its window has filled and
// Refresh has built the interval lists (memo, prefix snapshot, interval
// lists with their inline prefix sums, lifetime lists).
TEST_F(GovernorTest, EstimateCoversFootprintAfterRefresh) {
  for (const int64_t window : {int64_t{1024}, int64_t{8192}}) {
    StreamConfig config;
    config.window_size = window;
    config.num_buckets = 16;
    ManagedStream stream = ManagedStream::Create(config).value();
    // Level-plus-noise in whole cents: levels held for 60-180 points.
    Random rng(static_cast<uint64_t>(window));
    std::vector<double> values;
    while (static_cast<int64_t>(values.size()) < 2 * window) {
      const int64_t level = rng.UniformInt(1000, 9000);
      const int64_t hold = rng.UniformInt(60, 180);
      for (int64_t i = 0; i < hold; ++i) {
        values.push_back(
            static_cast<double>(level + rng.UniformInt(-250, 250)) / 100.0);
      }
    }
    stream.AppendBatch(values);
    stream.Refresh();
    EXPECT_GE(ManagedStream::EstimateFootprintBytes(config),
              stream.MemoryBytes())
        << "window " << window;
  }
  // A tiny epsilon caps each level at n endpoints instead of overflowing.
  StreamConfig tiny;
  tiny.epsilon = 1e-300;
  EXPECT_GT(ManagedStream::EstimateFootprintBytes(tiny), 0);
}

}  // namespace
}  // namespace streamhist
