#include "src/tools/cli.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/util/random.h"
#include "src/util/wal.h"
#include "test_dir.h"

namespace streamhist {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunTool(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = RunCli(args, out, err);
  return CliResult{code, out.str(), err.str()};
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scratch_.path();
    csv_ = scratch_.File("series.csv");
    hist_ = scratch_.File("hist.bin");
  }

  ScopedTestDir scratch_;
  std::string dir_, csv_, hist_;
};

TEST_F(CliTest, UsageOnNoArgs) {
  const CliResult r = RunTool({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

// -h/--help take no value: after any subcommand, and among its flags, they
// print the usage to stdout and exit 0 instead of running the subcommand
// (serve and console would otherwise block reading statements from stdin).
TEST_F(CliTest, HelpPrintsUsageAndExits) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--help"},
           {"-h"},
           {"serve", "--help"},
           {"serve", "-h"},
           {"serve", "--help", "--threads", "2"},
           {"serve", "--threads", "2", "--help"},
           {"console", "--help"},
           {"build", "-h"},
           {"wal", "verify", "--help"}}) {
    const CliResult r = RunTool(args);
    EXPECT_EQ(r.code, 0) << args[0];
    EXPECT_NE(r.out.find("usage:"), std::string::npos) << args[0];
    EXPECT_TRUE(r.err.empty()) << r.err;
  }
}

TEST_F(CliTest, UnknownSubcommand) {
  EXPECT_EQ(RunTool({"frobnicate"}).code, 2);
}

TEST_F(CliTest, GenerateBuildQueryInspectPipeline) {
  CliResult r = RunTool({"generate", "--kind", "piecewise", "--n", "500", "--seed",
                     "7", "--out", csv_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote 500 piecewise points"), std::string::npos);

  r = RunTool({"build", "--input", csv_, "--buckets", "16", "--out", hist_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("16 buckets over 500 points"), std::string::npos);

  r = RunTool({"query", "--histogram", hist_, "SUM", "0", "500"});
  ASSERT_EQ(r.code, 0) << r.err;
  const double sum = std::stod(r.out);

  r = RunTool({"query", "--histogram", hist_, "AVG", "0", "500"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NEAR(std::stod(r.out), sum / 500.0, 1e-6);

  r = RunTool({"query", "--histogram", hist_, "POINT", "250"});
  ASSERT_EQ(r.code, 0) << r.err;

  r = RunTool({"inspect", "--histogram", hist_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("16 buckets over domain [0, 500)"), std::string::npos);
}

TEST_F(CliTest, AllBuildAlgorithmsWork) {
  ASSERT_EQ(RunTool({"generate", "--n", "200", "--out", csv_}).code, 0);
  for (const char* algorithm :
       {"vopt", "agglomerative", "greedy", "equiwidth", "maxdiff"}) {
    const CliResult r = RunTool({"build", "--input", csv_, "--buckets", "8",
                             "--algorithm", algorithm, "--out", hist_});
    EXPECT_EQ(r.code, 0) << algorithm << ": " << r.err;
    EXPECT_EQ(RunTool({"inspect", "--histogram", hist_}).code, 0) << algorithm;
  }
  EXPECT_EQ(RunTool({"build", "--input", csv_, "--buckets", "8", "--algorithm",
                 "nonsense", "--out", hist_})
                .code,
            2);
}

TEST_F(CliTest, ErrorPaths) {
  EXPECT_EQ(RunTool({"generate", "--out", csv_}).code, 2);       // missing --n
  EXPECT_EQ(RunTool({"generate", "--n", "-3", "--out", csv_}).code, 2);
  EXPECT_EQ(RunTool({"build", "--input", dir_ + "/missing.csv", "--buckets", "4",
                 "--out", hist_})
                .code,
            1);
  EXPECT_EQ(RunTool({"query", "--histogram", dir_ + "/missing.bin", "SUM", "0",
                 "1"})
                .code,
            1);

  ASSERT_EQ(RunTool({"generate", "--n", "50", "--out", csv_}).code, 0);
  ASSERT_EQ(
      RunTool({"build", "--input", csv_, "--buckets", "4", "--out", hist_}).code,
      0);
  EXPECT_EQ(RunTool({"query", "--histogram", hist_, "SUM", "0", "999"}).code, 1);
  EXPECT_EQ(RunTool({"query", "--histogram", hist_, "POINT", "50"}).code, 1);
  EXPECT_EQ(RunTool({"query", "--histogram", hist_, "MEDIAN", "1"}).code, 2);
}

TEST_F(CliTest, BuildRejectsNonFiniteCsv) {
  std::ofstream f(csv_);
  f << "1.0\nnan\n2.0\n";
  f.close();
  const CliResult r =
      RunTool({"build", "--input", csv_, "--buckets", "2", "--out", hist_});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("non-finite"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find(":2:"), std::string::npos) << r.err;  // line number
}

TEST_F(CliTest, BuildRejectsBucketsBeyondSeriesLength) {
  ASSERT_EQ(RunTool({"generate", "--n", "50", "--out", csv_}).code, 0);
  const CliResult r =
      RunTool({"build", "--input", csv_, "--buckets", "51", "--out", hist_});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("exceeds series length"), std::string::npos) << r.err;
}

TEST_F(CliTest, ConsoleRunsScriptAndCheckpoints) {
  const std::string script = dir_ + "/session.shq";
  const std::string ckpt = dir_ + "/console.ckpt";
  {
    std::ofstream f(script);
    f << "# build a stream, checkpoint it, survive one bad statement\n"
      << "CREATE eth0 64 8\n"
      << "APPEND eth0 1 2 3 4 5\n"
      << "SAVE " << ckpt << "\n"
      << "FROBNICATE eth0\n"
      << "COUNT eth0\n"
      << "exit\n"
      << "DESCRIBE eth0\n";  // after EXIT: must not run
  }
  const CliResult r = RunTool({"console", "--script", script});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("created stream 'eth0'"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("appended 5 point(s)"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("checkpointed 1 stream(s)"), std::string::npos);
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("5\n"), std::string::npos);
  EXPECT_EQ(r.out.find("points seen"), std::string::npos);  // EXIT honored

  // A fresh console session recovers the checkpointed stream.
  const std::string script2 = dir_ + "/recover.shq";
  {
    std::ofstream f(script2);
    f << "LOAD " << ckpt << "\nCOUNT eth0\n";
  }
  const CliResult recovered = RunTool({"console", "--script", script2});
  EXPECT_EQ(recovered.code, 0);
  EXPECT_NE(recovered.out.find("loaded 1 stream(s): eth0"), std::string::npos)
      << recovered.out;
  EXPECT_NE(recovered.out.find("5\n"), std::string::npos) << recovered.out;
}

TEST_F(CliTest, ConsoleBuildWithinAndMemoryVerbs) {
  const std::string script = dir_ + "/governor.shq";
  {
    std::ofstream f(script);
    f << "CREATE eth0 64 8\n"
      << "APPEND eth0 1 2 3 4 5 6 7 8 9 10\n"
      << "BUILD eth0 WITHIN 60000\n"   // generous deadline: no degradation
      << "BUILD eth0 WITHIN 0\n"       // invalid: must error, session continues
      << "MEMORY\n"
      << "exit\n";
  }
  const CliResult r = RunTool({"console", "--script", script});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("built exact:"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("degraded"), std::string::npos) << r.out;
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;  // WITHIN 0
  EXPECT_NE(r.out.find("budget="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("used="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("eth0="), std::string::npos) << r.out;
}

TEST_F(CliTest, ServeSingleSessionMatchesConsoleSemantics) {
  const std::string script = dir_ + "/serve1.shq";
  {
    std::ofstream f(script);
    f << "CREATE eth0 64 8\n"
      << "APPEND eth0 1 2 3 4 5\n"
      << "COUNT eth0\n"
      << "FROBNICATE eth0\n"  // errors are per-statement, session continues
      << "STATS eth0\n"
      << "exit\n"
      << "DESCRIBE eth0\n";  // after EXIT: must not run
  }
  const CliResult r = RunTool({"serve", "--threads", "1", "--script", script});
  EXPECT_EQ(r.code, 0);
  // Answers print in input order.
  const size_t created = r.out.find("created stream 'eth0'");
  const size_t appended = r.out.find("appended 5 point(s)");
  const size_t counted = r.out.find("5\n");
  ASSERT_NE(created, std::string::npos) << r.out;
  ASSERT_NE(appended, std::string::npos) << r.out;
  ASSERT_NE(counted, std::string::npos) << r.out;
  EXPECT_LT(created, appended);
  EXPECT_LT(appended, counted);
  EXPECT_NE(r.err.find("error:"), std::string::npos) << r.err;
  EXPECT_NE(r.out.find("COUNT count=1"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("points seen"), std::string::npos);  // EXIT honored
  EXPECT_NE(r.out.find("serve: 5 statements on 1 session: 4 ok, 1 errors"),
            std::string::npos)
      << r.out;
}

TEST_F(CliTest, ServeRunsIndependentSessionsConcurrently) {
  const std::string script = dir_ + "/serve4.shq";
  {
    // Statement i runs on session i % 4: each session gets "CREATE sK"
    // then "APPEND sK ..." for its own K, so the racing sessions never
    // touch each other's streams and every statement succeeds.
    std::ofstream f(script);
    for (int k = 0; k < 4; ++k) f << "CREATE s" << k << " 32 4\n";
    for (int k = 0; k < 4; ++k) f << "APPEND s" << k << " 1 2 3\n";
    for (int k = 0; k < 4; ++k) f << "COUNT s" << k << "\n";
  }
  const CliResult r = RunTool({"serve", "--threads", "4", "--script", script});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("serve: 12 statements on 4 sessions: 12 ok, 0 errors"),
            std::string::npos)
      << r.out << r.err;
  for (int k = 0; k < 4; ++k) {
    EXPECT_NE(r.out.find("created stream 's" + std::to_string(k) + "'"),
              std::string::npos)
        << r.out;
  }
}

TEST_F(CliTest, ServeSessionDeadlineCancelsStatements) {
  const std::string script = dir_ + "/serve_deadline.shq";
  {
    std::ofstream f(script);
    f << "CREATE eth0 64 8\nCOUNT eth0\n";
  }
  // A generous session deadline leaves every statement running normally.
  const CliResult r = RunTool({"serve", "--threads", "1", "--deadline-ms",
                               "60000", "--script", script});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("serve: 2 statements on 1 session: 2 ok"),
            std::string::npos)
      << r.out;

  // --deadline-ms 0: the session context is born expired, so every
  // statement is refused with a cancellation error.
  const CliResult expired = RunTool({"serve", "--threads", "1",
                                     "--deadline-ms", "0", "--script",
                                     script});
  EXPECT_EQ(expired.code, 0);
  EXPECT_NE(expired.out.find("0 ok, 2 errors"), std::string::npos)
      << expired.out;
  EXPECT_NE(expired.err.find("error:"), std::string::npos) << expired.err;
}

TEST_F(CliTest, ServeRejectsBadThreadCounts) {
  EXPECT_EQ(RunTool({"serve", "--threads", "0"}).code, 2);
  EXPECT_EQ(RunTool({"serve", "--threads", "65"}).code, 2);
  const CliResult r = RunTool({"serve", "--threads", "4", "--script",
                               dir_ + "/nope.shq"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open script"), std::string::npos);
}

TEST_F(CliTest, WalVerifyExitCodesSeparateTornTailFromInteriorRot) {
  // `wal verify` is an ops probe (README runbook): 0 = clean, 3 = torn tail
  // only (normal crash residue — recovery truncates it), 1 = interior
  // corruption (fsynced bytes rotted — page the operator). The advisory 3
  // must never mask real rot.
  const std::string wal_dir = dir_ + "/wal_verify";
  std::filesystem::remove_all(wal_dir);
  {
    wal::Options options;
    options.policy = wal::SyncPolicy::kNone;
    auto opened = wal::Wal::Open(wal_dir, options, nullptr);
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(opened.value()->Append("payload-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  std::string segment;
  for (const auto& entry : std::filesystem::directory_iterator(wal_dir)) {
    if (entry.path().extension() == ".seg") segment = entry.path().string();
  }
  ASSERT_FALSE(segment.empty());

  CliResult r = RunTool({"wal", "verify", "--dir", wal_dir});
  EXPECT_EQ(r.code, 0) << r.out << r.err;

  // A half-written frame head at the tail: crash residue, advisory exit 3.
  {
    std::ofstream torn(segment, std::ios::binary | std::ios::app);
    torn.write("\x52\x57\x48\x53\x01\x00\x00", 7);
  }
  r = RunTool({"wal", "verify", "--dir", wal_dir});
  EXPECT_EQ(r.code, 3) << r.out << r.err;

  // Flip one byte inside the FIRST record's payload: interior corruption
  // now coexists with the torn tail, and the hard exit 1 must win.
  {
    std::fstream f(segment,
                   std::ios::binary | std::ios::in | std::ios::out);
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    const size_t pos = bytes.find("payload-0");
    ASSERT_NE(pos, std::string::npos);
    f.seekp(static_cast<std::streamoff>(pos));
    const char flipped = static_cast<char>(bytes[pos] ^ 0x01);
    f.write(&flipped, 1);
  }
  r = RunTool({"wal", "verify", "--dir", wal_dir});
  EXPECT_EQ(r.code, 1) << r.out << r.err;
}

TEST_F(CliTest, ConsoleMissingScriptFileFails) {
  const CliResult r = RunTool({"console", "--script", dir_ + "/nope.shq"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open script"), std::string::npos);
}

// Engine parser fuzz: arbitrary statements must never crash, only return
// errors or answers.
TEST(EngineFuzzTest, RandomStatementsNeverCrash) {
  QueryEngine engine;
  StreamConfig config;
  config.window_size = 32;
  config.num_buckets = 4;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine.Append("s", static_cast<double>(i)).ok());
  }

  Random rng(99);
  const std::vector<std::string> vocab{
      "SUM",  "AVG",   "POINT", "QUANTILE", "DISTINCT", "COUNT", "ERROR",
      "SHOW", "LIST",  "s",     "missing",  "LAST",     "0",     "10",
      "32",   "-5",    "1e308", "abc",      "0.5",      "--",    "",
      "9999999999999999999",    "SUMBOUND", "AVGBOUND",
      "CREATE", "APPEND", "DROP", "nan",    "inf"};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string statement;
    const int64_t tokens = rng.UniformInt(0, 5);
    for (int64_t t = 0; t < tokens; ++t) {
      statement += vocab[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vocab.size()) - 1))];
      statement += ' ';
    }
    const auto result = engine.Execute(statement);
    (void)result;  // ok or error — just must not crash
  }
}

}  // namespace
}  // namespace streamhist
