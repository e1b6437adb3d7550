// Concurrency stress suite for the engine's snapshot-isolated core: many
// lock-free readers racing writers, DROP/CREATE churn, checkpointing, and
// cancellation — the invariants the PR5 refactor guarantees. Sized to run
// under ThreadSanitizer in CI (the gating tsan job), so iteration counts
// favor interleaving diversity over raw volume. Schedules are seeded: every
// thread derives its verb choices from a fixed per-thread seed.

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/util/deadline.h"
#include "test_dir.h"

namespace streamhist {
namespace {

StreamConfig SmallConfig(int64_t window = 64, int64_t buckets = 8) {
  StreamConfig config;
  config.window_size = window;
  config.num_buckets = buckets;
  return config;
}

// ---------------------------------------------------------------------------
// Snapshot isolation: no torn reads.
//
// The writer only ever publishes windows that are entirely one constant
// value (round r fills the whole window with r), so every *legal* snapshot
// has: all bucket values equal, zero maintained error, and RangeSum(0, n) ==
// value * n. A reader that ever observed a mix of two rounds — a torn read —
// would see unequal buckets or a sum off the value*n lattice.
TEST(ConcurrentEngineTest, SnapshotIsolationNoTornReads) {
  constexpr int64_t kWindow = 64;
  constexpr int kRounds = 120;
  constexpr int kReaders = 4;

  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(kWindow, 8)).ok());
  // Round 0: fill the window so readers always see a full, constant window.
  const std::vector<double> zeros(kWindow, 0.0);
  ASSERT_TRUE(engine.AppendBatch("s", zeros).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&engine, &stop, &violations] {
      auto handle_or = engine.Stream("s");
      ASSERT_TRUE(handle_or.ok());
      const StreamHandle handle = *handle_or;
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const QuerySnapshot> snap = handle.snapshot();
        // Versions only move forward for any single reader.
        if (snap->version < last_version) ++violations;
        last_version = snap->version;
        if (snap->window_size != kWindow) ++violations;
        // All-equal buckets: the window is constant in every published
        // version.
        const double v0 = snap->histogram().Estimate(0);
        for (int64_t i = 1; i < snap->window_size; ++i) {
          if (snap->histogram().Estimate(i) != v0) {
            ++violations;
            break;
          }
        }
        if (snap->histogram().RangeSum(0, kWindow) !=
            v0 * static_cast<double>(kWindow)) {
          ++violations;
        }
        if (snap->approx_error() != 0.0) ++violations;
      }
    });
  }

  for (int r = 1; r <= kRounds; ++r) {
    const std::vector<double> round(kWindow, static_cast<double>(r));
    ASSERT_TRUE(engine.AppendBatch("s", round).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
}

// A query that acquired its snapshot before a republish keeps answering
// from the old version in full — republishing never mutates a published
// snapshot in place.
TEST(ConcurrentEngineTest, SnapshotAcquiredBeforeRepublishIsImmutable) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(8, 4)).ok());
  ASSERT_TRUE(
      engine.AppendBatch("s", std::vector<double>{1, 1, 1, 1, 1, 1, 1, 1})
          .ok());

  const StreamHandle handle = engine.Stream("s").value();
  const std::shared_ptr<const QuerySnapshot> before = handle.snapshot();
  const uint64_t before_version = before->version;
  const int64_t before_points = before->total_points;
  const double before_sum = before->histogram().RangeSum(0, 8);

  ASSERT_TRUE(
      engine.AppendBatch("s", std::vector<double>{9, 9, 9, 9, 9, 9, 9, 9})
          .ok());

  const std::shared_ptr<const QuerySnapshot> after = handle.snapshot();
  EXPECT_GT(after->version, before_version);
  EXPECT_EQ(after->total_points, 16);
  EXPECT_EQ(after->histogram().RangeSum(0, 8), 72.0);
  // The old snapshot still answers exactly as it did when acquired.
  EXPECT_EQ(before->version, before_version);
  EXPECT_EQ(before->total_points, before_points);
  EXPECT_EQ(before->histogram().RangeSum(0, 8), before_sum);
  EXPECT_EQ(before_sum, 8.0);
}

// Under a coalescing publication policy (DESIGN.md §13), a held stale
// snapshot stays byte-for-byte immutable while thousands of acked-but-
// unpublished appends accumulate behind it — and the eventual flush
// publishes the whole backlog in one new version.
TEST(ConcurrentEngineTest, HeldSnapshotImmutableAcrossCoalescedAppends) {
  constexpr int64_t kWindow = 64;
  constexpr int kCoalesced = 10'000;

  QueryEngine engine;
  StreamConfig config = SmallConfig(kWindow, 8);
  config.publish_staleness_ms = 60'000;  // coalesce far past the test
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  ASSERT_TRUE(engine.Execute("FLUSH s").ok());
  const std::vector<double> fill(kWindow, 1.0);
  ASSERT_TRUE(engine.AppendBatch("s", fill).ok());
  ASSERT_TRUE(engine.Execute("FLUSH s").ok());

  const StreamHandle handle = engine.Stream("s").value();
  const std::shared_ptr<const QuerySnapshot> held = handle.snapshot();
  const uint64_t held_version = held->version;
  ASSERT_EQ(held->total_points, kWindow);
  ASSERT_EQ(held->histogram().RangeSum(0, kWindow), 64.0);

  // 10k acked appends, every one coalesced: the published version must not
  // move, and the held snapshot must not change underneath its reader.
  for (int i = 0; i < kCoalesced; ++i) {
    ASSERT_TRUE(engine.Append("s", 2.0).ok());
  }
  EXPECT_EQ(handle.snapshot()->version, held_version);
  EXPECT_EQ(handle.snapshot()->total_points, kWindow);
  EXPECT_EQ(held->version, held_version);
  EXPECT_EQ(held->total_points, kWindow);
  EXPECT_EQ(held->histogram().RangeSum(0, kWindow), 64.0);
  EXPECT_EQ(held->approx_error(), 0.0);

  // The explicit flush publishes the entire backlog as one new version.
  EXPECT_EQ(engine.Execute("FLUSH s").value(), "flushed 1 stream(s)");
  const std::shared_ptr<const QuerySnapshot> fresh = handle.snapshot();
  EXPECT_GT(fresh->version, held_version);
  EXPECT_EQ(fresh->total_points, kWindow + kCoalesced);
  EXPECT_EQ(fresh->histogram().RangeSum(0, kWindow),
            2.0 * static_cast<double>(kWindow));
  // And the held snapshot is still exactly what its reader acquired.
  EXPECT_EQ(held->version, held_version);
  EXPECT_EQ(held->total_points, kWindow);
  EXPECT_EQ(held->histogram().RangeSum(0, kWindow), 64.0);
}

// ---------------------------------------------------------------------------
// Drain-on-drop: a handle (and its snapshots) outlives DROP.
TEST(ConcurrentEngineTest, HandleKeepsDroppedStreamAlive) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig()).ok());
  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>{1, 2, 3}).ok());

  const StreamHandle handle = engine.Stream("s").value();
  ASSERT_TRUE(engine.DropStream("s").ok());
  EXPECT_FALSE(engine.Stream("s").ok());  // new lookups miss

  // The drained-but-held stream still answers coherently.
  const std::shared_ptr<const QuerySnapshot> snap = handle.snapshot();
  EXPECT_EQ(snap->total_points, 3);
  EXPECT_EQ(snap->histogram().RangeSum(0, 3), 6.0);
  EXPECT_EQ(handle.stream().total_points(), 3);
}

// ---------------------------------------------------------------------------
// Readers x writers x DROP/CREATE churn, seeded schedules: everything may
// race everything; the only acceptable outcomes are success or the small
// set of benign errors (NotFound while the name is unregistered, OutOfRange
// while a fresh window is empty, FailedPrecondition on an empty GK summary,
// and AlreadyExists lost to a racing CREATE).
TEST(ConcurrentEngineTest, ReadersWritersChurnStress) {
  constexpr int kReaders = 3;
  constexpr int kWriters = 2;
  constexpr int kIterations = 400;

  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("hot", SmallConfig(32, 4)).ok());
  ASSERT_TRUE(engine.CreateStream("cold", SmallConfig(32, 4)).ok());
  const std::vector<double> warmup(32, 1.0);
  ASSERT_TRUE(engine.AppendBatch("cold", warmup).ok());

  std::atomic<int64_t> violations{0};
  auto acceptable = [](const Status& status) {
    return status.ok() || status.code() == StatusCode::kNotFound ||
           status.code() == StatusCode::kOutOfRange ||
           status.code() == StatusCode::kFailedPrecondition ||
           status.code() == StatusCode::kInvalidArgument;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&engine, &violations, &acceptable, t] {
      std::mt19937 rng(1000 + static_cast<unsigned>(t));
      const std::vector<std::string> statements = {
          "SUM hot 0 8",    "COUNT hot",  "DESCRIBE hot", "SHOW hot",
          "SUMBOUND hot LAST 4", "ERROR hot",  "DISTINCT hot", "QUANTILE hot 0.5",
          "SUM cold 0 8",   "COUNT cold", "STATS hot",    "LIST",
      };
      for (int i = 0; i < kIterations; ++i) {
        const auto& statement =
            statements[rng() % statements.size()];
        const Result<std::string> result = engine.Execute(statement);
        if (!result.ok() && !acceptable(result.status())) ++violations;
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&engine, &violations, &acceptable, t] {
      std::mt19937 rng(2000 + static_cast<unsigned>(t));
      for (int i = 0; i < kIterations; ++i) {
        const double v = static_cast<double>(rng() % 100);
        const Result<std::string> result =
            engine.Execute("APPEND hot " + std::to_string(v));
        if (!result.ok() && !acceptable(result.status())) ++violations;
      }
    });
  }
  // Churner: repeatedly unregisters and re-registers "hot" while everyone
  // else is querying or appending to it.
  threads.emplace_back([&engine, &violations, &acceptable] {
    for (int i = 0; i < kIterations / 4; ++i) {
      const Result<std::string> dropped = engine.Execute("DROP hot");
      if (!dropped.ok() && !acceptable(dropped.status())) ++violations;
      const Result<std::string> created = engine.Execute("CREATE hot 32 4");
      if (!created.ok() && !acceptable(created.status())) ++violations;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);

  // The untouched stream survived the churn with its data intact.
  EXPECT_EQ(engine.Execute("COUNT cold").value(), "32");
}

// Racing CREATEs of one name: exactly one wins.
TEST(ConcurrentEngineTest, ConcurrentCreateHasExactlyOneWinner) {
  QueryEngine engine;
  constexpr int kThreads = 4;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &winners] {
      if (engine.Execute("CREATE dup 32 4").ok()) ++winners;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(engine.ListStreams(), std::vector<std::string>{"dup"});
}

// ---------------------------------------------------------------------------
// SAVE racing APPEND: every checkpoint written mid-traffic is loadable, and
// the restored stream is a coherent point-in-time image.
TEST(ConcurrentEngineTest, CheckpointUnderConcurrentAppendsIsLoadable) {
  const ScopedTestDir scratch;
  const std::string path = scratch.File("concurrent.ckpt");
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(32, 4)).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&engine, &stop] {
    double v = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(engine.Append("s", v).ok());
      v += 1.0;
    }
  });
  std::thread reader([&engine, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(engine.Execute("COUNT s").ok());
    }
  });
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  reader.join();

  QueryEngine recovered;
  const auto report = recovered.LoadCheckpoint(path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fully_loaded());
  const StreamHandle handle = recovered.Stream("s").value();
  // The restored image is internally coherent: the snapshot agrees with the
  // live synopses it was rebuilt from.
  const std::shared_ptr<const QuerySnapshot> snap = handle.snapshot();
  EXPECT_EQ(snap->total_points, handle.stream().total_points());
  EXPECT_GE(snap->total_points, 0);
}

// LOAD replaces the registry while readers hold handles into the old one;
// the old handles keep answering from the pre-LOAD world.
TEST(ConcurrentEngineTest, LoadSwapsRegistryUnderLiveHandles) {
  const ScopedTestDir scratch;
  const std::string path = scratch.File("swap.ckpt");
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(8, 4)).ok());
  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>{5, 5, 5}).ok());
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>{7, 7}).ok());
  const StreamHandle old_handle = engine.Stream("s").value();
  EXPECT_EQ(old_handle.snapshot()->total_points, 5);

  ASSERT_TRUE(engine.LoadCheckpoint(path).ok());  // back to 3 points
  const StreamHandle new_handle = engine.Stream("s").value();
  EXPECT_EQ(new_handle.snapshot()->total_points, 3);
  // The pre-LOAD handle still sees the pre-LOAD stream, coherently.
  EXPECT_EQ(old_handle.snapshot()->total_points, 5);
}

// ---------------------------------------------------------------------------
// Stats counters are exact under concurrency (relaxed atomics lose nothing).
TEST(ConcurrentEngineTest, StatsCountersAreExactUnderConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;

  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(16, 4)).ok());
  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>(16, 1.0)).ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(engine.Execute("SUM s 0 16").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const StreamHandle handle = engine.Stream("s").value();
  const VerbCounters sums = handle.stats().Read(QueryVerb::kSum);
  EXPECT_EQ(sums.count, kThreads * kPerThread);
  EXPECT_EQ(sums.errors, 0);
  int64_t bucket_total = 0;
  for (int64_t hits : sums.latency) bucket_total += hits;
  EXPECT_EQ(bucket_total, sums.count);
}

// ---------------------------------------------------------------------------
// Per-session ExecContext: cancellation and deadlines.
TEST(ConcurrentEngineTest, CancelledContextRefusesStatements) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig()).ok());
  ExecContext ctx;
  EXPECT_TRUE(engine.Execute("COUNT s", ctx).ok());
  ctx.Cancel();
  const Result<std::string> refused = engine.Execute("COUNT s", ctx);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCancelled);
  // The no-context overload on the same engine is unaffected.
  EXPECT_TRUE(engine.Execute("COUNT s").ok());
}

TEST(ConcurrentEngineTest, ExpiredSessionDeadlineRefusesStatements) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig()).ok());
  ExecContext ctx(Deadline::AfterMillis(0));  // born expired
  const Result<std::string> refused = engine.Execute("COUNT s", ctx);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCancelled);
}

TEST(ConcurrentEngineTest, SessionDeadlineFeedsBuildLadder) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(64, 8)).ok());
  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>(64, 2.0)).ok());
  // A generous session deadline: BUILD inherits it and completes its first
  // (exact) rung without degradation.
  ExecContext ctx(Deadline::AfterMillis(60000));
  const Result<std::string> built = engine.Execute("BUILD s", ctx);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_NE(built->find("built exact"), std::string::npos) << *built;
  EXPECT_EQ(built->find("degraded"), std::string::npos) << *built;
}

// Each concurrent session has its own context: cancelling one does not
// disturb the others.
TEST(ConcurrentEngineTest, PerSessionCancellationIsIndependent) {
  QueryEngine engine;
  ASSERT_TRUE(engine.CreateStream("s", SmallConfig(16, 4)).ok());
  ASSERT_TRUE(engine.AppendBatch("s", std::vector<double>(16, 1.0)).ok());

  ExecContext cancelled;
  cancelled.Cancel();
  std::atomic<int64_t> violations{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&engine, &cancelled, &violations] {
    for (int i = 0; i < 200; ++i) {
      if (engine.Execute("SUM s 0 16", cancelled).ok()) ++violations;
    }
  });
  threads.emplace_back([&engine, &violations] {
    ExecContext live;
    for (int i = 0; i < 200; ++i) {
      if (!engine.Execute("SUM s 0 16", live).ok()) ++violations;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace streamhist
