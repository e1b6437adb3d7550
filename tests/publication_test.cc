// Publication-model suite (DESIGN.md §13): the PR8 write-path contract.
//
// Covers the policy surface — per-batch publication by default, coalescing
// under a positive staleness bound with the flusher closing the gap, and the
// explicit publication points (FLUSH / BUILD / SAVE) — plus the sectioned
// snapshot's copy-on-write guarantees: unchanged sections are shared between
// consecutive publishes, and the publication telemetry lands in STATS.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "test_dir.h"

namespace streamhist {
namespace {

StreamConfig SmallConfig(int64_t window = 64, int64_t buckets = 8) {
  StreamConfig config;
  config.window_size = window;
  config.num_buckets = buckets;
  return config;
}

int64_t SnapshotPoints(const QueryEngine& engine, const std::string& name) {
  return engine.Stream(name).value().snapshot()->total_points;
}

// ---------------------------------------------------------------------------
// Default policy: every acked batch is reader-visible before the ack returns.
TEST(PublicationTest, DefaultPolicyPublishesPerBatch) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig()).ok());
  // Every ingest surface publishes before it acks under bound 0.
  ASSERT_TRUE(engine.Execute("APPEND s 1 2 3").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 3);
  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>{4, 5}).ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 5);
  const std::vector<double> batch{6, 7, 8};
  ASSERT_TRUE(engine.ExecuteBatchAppend("s", batch).ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 8);
  // Nothing is ever pending, so FLUSH is a no-op.
  EXPECT_EQ(engine.Execute("FLUSH").value(), "flushed 0 stream(s)");
}

// ---------------------------------------------------------------------------
// The staleness-bound property: an acked value may lag behind the published
// snapshot, but never longer than the bound — the background flusher closes
// the gap even when the writer goes quiet. The deadline asserted here is
// deliberately loose (bound plus generous scheduler slack) so the test
// verifies the guarantee without becoming a CI timing lottery.
TEST(PublicationTest, AckedValuesVisibleWithinStalenessBound) {
  constexpr int64_t kBoundMs = 25;
  constexpr auto kDeadline = std::chrono::milliseconds(2000);

  QueryEngine engine;
  StreamConfig config = SmallConfig();
  config.publish_staleness_ms = kBoundMs;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  const StreamHandle handle = engine.Stream("s").value();

  int64_t acked = 0;
  for (int round = 0; round < 5; ++round) {
    const std::vector<double> batch(static_cast<size_t>(round + 1), 1.0);
    ASSERT_TRUE(engine.AppendBatch("s", batch).ok());
    acked += static_cast<int64_t>(batch.size());
    // The writer is now quiet: only the flusher can publish this round.
    const auto start = std::chrono::steady_clock::now();
    while (handle.snapshot()->total_points < acked) {
      ASSERT_LT(std::chrono::steady_clock::now() - start, kDeadline)
          << "acked value invisible past the staleness bound (round " << round
          << ", acked " << acked << ", visible "
          << handle.snapshot()->total_points << ")";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

// ---------------------------------------------------------------------------
// Explicit publication points: FLUSH, BUILD, and SAVE all make pending
// appends visible immediately.
TEST(PublicationTest, FlushVerbPublishesPendingAppends) {
  QueryEngine engine;
  StreamConfig config = SmallConfig();
  config.publish_staleness_ms = 60'000;  // coalesce far past the test
  ASSERT_TRUE(engine.CreateStream("s", config).ok());

  ASSERT_TRUE(engine.Execute("APPEND s 1 2 3").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 0);  // coalesced, not yet visible
  EXPECT_EQ(engine.Execute("FLUSH s").value(), "flushed 1 stream(s)");
  EXPECT_EQ(SnapshotPoints(engine, "s"), 3);
  // Nothing pending: a second flush is a no-op, in both forms.
  EXPECT_EQ(engine.Execute("FLUSH s").value(), "flushed 0 stream(s)");
  EXPECT_EQ(engine.Execute("FLUSH").value(), "flushed 0 stream(s)");
  // Errors: unknown stream, too many arguments.
  EXPECT_FALSE(engine.Execute("FLUSH nosuch").ok());
  EXPECT_FALSE(engine.Execute("FLUSH s extra").ok());
}

TEST(PublicationTest, BuildPublishesPendingAppends) {
  QueryEngine engine;
  StreamConfig config = SmallConfig(16, 4);
  config.publish_staleness_ms = 60'000;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  ASSERT_TRUE(engine.Execute("APPEND s 1 2 3 4").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 0);
  ASSERT_TRUE(engine.Execute("BUILD s").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 4);
}

TEST(PublicationTest, SavePublishesPendingAppends) {
  QueryEngine engine;
  StreamConfig config = SmallConfig(16, 4);
  config.publish_staleness_ms = 60'000;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  ASSERT_TRUE(engine.Execute("APPEND s 1 2 3").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 0);
  const ScopedTestDir scratch;
  const std::string path = scratch.File("publication_test.shcp");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 3);
  // And the checkpoint itself carries the flushed state.
  QueryEngine other;
  ASSERT_TRUE(other.LoadCheckpoint(path).ok());
  EXPECT_EQ(SnapshotPoints(other, "s"), 3);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Copy-on-write sections: a republish that changed nothing shares both the
// window section and the GK summary with the previous snapshot; an append
// replaces exactly the sections it touched.
TEST(PublicationTest, RepublishSharesUnchangedSections) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(16, 4)).ok());
  ASSERT_TRUE(engine.Execute("APPEND s 1 2 3 4 5").ok());
  const StreamHandle handle = engine.Stream("s").value();
  const std::shared_ptr<const QuerySnapshot> first = handle.snapshot();

  // RefreshAll republishes without any append in between: both expensive
  // sections are shared, only the cheap scalar fields are fresh.
  engine.RefreshAll();
  const std::shared_ptr<const QuerySnapshot> second = handle.snapshot();
  EXPECT_GT(second->version, first->version);
  EXPECT_EQ(second->window.get(), first->window.get());
  EXPECT_EQ(second->quantiles.get(), first->quantiles.get());

  // An append invalidates the window and quantile sections.
  ASSERT_TRUE(engine.Execute("APPEND s 6").ok());
  const std::shared_ptr<const QuerySnapshot> third = handle.snapshot();
  EXPECT_NE(third->window.get(), second->window.get());
  EXPECT_NE(third->quantiles.get(), second->quantiles.get());
  // The superseded snapshots still answer from their own frozen sections.
  EXPECT_EQ(first->total_points, 5);
  EXPECT_EQ(first->histogram().RangeSum(0, 5), 15.0);
  EXPECT_EQ(third->histogram().RangeSum(0, 6), 21.0);
}

// The FM sketch's distinct estimate is recomputed only when a bitmap bit
// actually flipped; re-appending seen values republishes the cached value.
TEST(PublicationTest, DistinctEstimateCachedUntilSketchMutates) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(16, 4)).ok());
  ASSERT_TRUE(engine.Execute("APPEND s 7").ok());
  const StreamHandle handle = engine.Stream("s").value();
  const int64_t mutations_after_first =
      handle.stream().distinct()->mutations();
  EXPECT_GE(mutations_after_first, 1);
  const double estimate = handle.snapshot()->distinct_estimate;

  // The same value again: no new bitmap bit, no recompute, same estimate.
  ASSERT_TRUE(engine.Execute("APPEND s 7 7 7").ok());
  EXPECT_EQ(handle.stream().distinct()->mutations(), mutations_after_first);
  EXPECT_EQ(handle.snapshot()->distinct_estimate, estimate);
  EXPECT_EQ(engine.Execute("DISTINCT s").value(),
            engine.Execute("DISTINCT s").value());
}

// ---------------------------------------------------------------------------
// Telemetry: publishes, coalesced skips, and staleness land in STATS.
TEST(PublicationTest, PublishTelemetrySurfacesInStats) {
  QueryEngine engine;
  StreamConfig config = SmallConfig();
  config.publish_staleness_ms = 60'000;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  ASSERT_TRUE(engine.Execute("APPEND s 1").ok());  // coalesced: a skip
  ASSERT_TRUE(engine.Execute("FLUSH s").ok());     // publish, with staleness

  const PublishCounters counters =
      engine.Stream("s").value().stream().publish_stats().Read();
  EXPECT_GE(counters.publishes, 2);  // CREATE's initial publish + the flush
  EXPECT_GE(counters.skipped, 1);
  EXPECT_GE(counters.max_staleness_us, 0);

  const std::string per_stream = engine.Execute("STATS s").value();
  EXPECT_NE(per_stream.find("publish count="), std::string::npos)
      << per_stream;
  EXPECT_NE(per_stream.find("skipped="), std::string::npos) << per_stream;
  const std::string engine_wide = engine.Execute("STATS").value();
  EXPECT_NE(engine_wide.find("publish count="), std::string::npos)
      << engine_wide;
}

// The DESCRIBE line is composed lazily from the frozen seed — byte-identical
// to the live Describe() at publish time, and stable on the held snapshot.
TEST(PublicationTest, LazyDescribeMatchesLiveDescribe) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(16, 4)).ok());
  ASSERT_TRUE(engine.Execute("APPEND s 1 2 3 4 5 6 7 8").ok());
  const StreamHandle handle = engine.Stream("s").value();
  const std::string described = engine.Execute("DESCRIBE s").value();
  EXPECT_EQ(described, handle.stream().Describe());
  // The held snapshot's line does not drift when the stream moves on.
  const std::shared_ptr<const QuerySnapshot> held = handle.snapshot();
  ASSERT_TRUE(engine.Execute("APPEND s 9").ok());
  EXPECT_EQ(held->describe(), described);
}

// Runtime retuning: a stream created strict can be switched to coalescing
// (and back) through the C++ API.
TEST(PublicationTest, RuntimeStalenessRetune) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig()).ok());
  const StreamHandle handle = engine.Stream("s").value();
  EXPECT_EQ(handle.stream().publish_staleness_ms(), 0);
  {
    const auto lock = handle.LockWriter();
    handle.stream().set_publish_staleness_ms(60'000);
  }
  ASSERT_TRUE(engine.Execute("APPEND s 1 2").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 0);
  EXPECT_TRUE(handle.stream().PublishPending());
  {
    const auto lock = handle.LockWriter();
    handle.stream().set_publish_staleness_ms(-5);  // clamps to strict
  }
  EXPECT_EQ(handle.stream().publish_staleness_ms(), 0);
  ASSERT_TRUE(engine.Execute("APPEND s 3").ok());
  EXPECT_EQ(SnapshotPoints(engine, "s"), 3);  // publish covered the backlog
}

}  // namespace
}  // namespace streamhist
