#include "src/tools/cli.h"

#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "src/core/agglomerative.h"
#include "src/core/heuristics.h"
#include "src/core/histogram_io.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/data/io.h"
#include "src/engine/query_engine.h"
#include "src/engine/wal_records.h"
#include "src/server/replication.h"
#include "src/server/tcp_server.h"
#include "src/util/wal.h"

namespace streamhist {

namespace {

/// Splits "--key value" pairs from args[start..); positional tokens land in
/// `positional`. -h and --help take no value: they set the "help" flag.
std::map<std::string, std::string> ParseFlags(
    const std::vector<std::string>& args, size_t start,
    std::vector<std::string>& positional) {
  std::map<std::string, std::string> flags;
  for (size_t i = start; i < args.size(); ++i) {
    if (args[i] == "-h" || args[i] == "--help") {
      flags["help"] = "";
    } else if (args[i].rfind("--", 0) == 0 && i + 1 < args.size()) {
      flags[args[i].substr(2)] = args[i + 1];
      ++i;
    } else {
      positional.push_back(args[i]);
    }
  }
  return flags;
}

void PrintUsage(std::ostream& out) {
  out << "usage: streamhist_tool"
         " <generate|build|query|inspect|console|serve|wal> [flags]\n"
         "  -h, --help  print this text and exit, also after a subcommand\n"
         "  generate --kind K --n N [--seed S] --out series.csv\n"
         "  build --input series.csv --buckets B [--epsilon E]\n"
         "        [--algorithm vopt|agglomerative|greedy|equiwidth|maxdiff]\n"
         "        --out hist.bin\n"
         "  query --histogram hist.bin SUM <lo> <hi> | AVG <lo> <hi> |"
         " POINT <i>\n"
         "  inspect --histogram hist.bin\n"
         "  console [--script file]   engine statements from stdin or file\n"
         "          (CREATE/APPEND/SUM/.../SAVE <path>/LOAD <path>;\n"
         "           BUILD <s> [EXACT|ERROR <d>] [WITHIN <ms>] degrades\n"
         "           gracefully on deadline expiry; MEMORY shows the\n"
         "           governor budget from STREAMHIST_MEM_BUDGET;\n"
         "           STATS [<s> [<verb>]] shows execution counters)\n"
         "  serve --threads N [--script file] [--deadline-ms D]\n"
         "        one shared engine, N concurrent sessions: statement i runs\n"
         "        on session i%N with its own ExecContext (optional session\n"
         "        deadline D); answers print in input order plus a summary.\n"
         "        Statements race across sessions — scripts should make\n"
         "        cross-session statements independent, or use --threads 1.\n"
         "  serve --listen PORT [--threads N] [--deadline-ms D]\n"
         "        [--max-conns C]\n"
         "        TCP front-end on 127.0.0.1:PORT (PORT 0: ephemeral, the\n"
         "        chosen port is printed): newline-delimited statements plus\n"
         "        the binary batch-APPEND frame, pipelined, with output\n"
         "        backpressure and governor admission control (DESIGN.md\n"
         "        \xC2\xA7" "11). D is the per-request deadline class knob;\n"
         "        SIGINT/SIGTERM shuts down cleanly with a summary line.\n"
         "        A 'LISTENING <port>' line on stdout is the machine-\n"
         "        readable bind announcement harnesses should parse.\n"
         "  serve --listen PORT --wal-dir DIR [--repl-sync-ms MS]\n"
         "        primary role (DESIGN.md \xC2\xA7" "14): replicas may subscribe\n"
         "        and are fed the WAL live. MS > 0 makes acks semi-\n"
         "        synchronous (wait up to MS for a replica to confirm\n"
         "        durability; a lapse degrades to async, never errors).\n"
         "  serve --listen PORT --wal-dir DIR --replica-of HOST:PORT\n"
         "        [--replica-max-lag-ms MS]\n"
         "        read replica: subscribes to the primary (loopback only),\n"
         "        applies its WAL, serves estimation verbs; writes answer\n"
         "        ERR READONLY. Reconnects with jittered backoff; silent\n"
         "        past MS (default 10000, 0 off) sheds ERR OVERLOADED.\n"
         "        The PROMOTE statement flips it into a writable primary.\n"
         "  console|serve [--wal-dir DIR] [--wal-policy P]\n"
         "        [--wal-checkpoint-ms MS]\n"
         "        durable ingest (DESIGN.md \xC2\xA7" "12): CREATE/APPEND/DROP\n"
         "        are logged to DIR before the ack and recovered on restart\n"
         "        (checkpoint + replay; the recovery line prints first).\n"
         "        P is always | bytes:N | interval:ms | none (default\n"
         "        always, or $STREAMHIST_WAL); MS is the background\n"
         "        checkpoint cadence (default 1000, 0 disables).\n"
         "  wal <dump|verify> --dir DIR\n"
         "        read-only segment scan: dump prints every decoded record,\n"
         "        verify just the scan report. Exit codes: 0 clean, 1 on\n"
         "        interior corruption (fsynced bytes rotted), 3 when the\n"
         "        only damage is a torn tail (normal crash residue that\n"
         "        recovery truncates).\n";
}

int Usage(std::ostream& err) {
  PrintUsage(err);
  return 2;
}

Result<Histogram> LoadHistogram(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open histogram file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeHistogram(buffer.str());
}

int Generate(const std::map<std::string, std::string>& flags,
             std::ostream& out, std::ostream& err) {
  if (!flags.contains("n") || !flags.contains("out")) {
    err << "generate: --n and --out are required\n";
    return 2;
  }
  const int64_t n = std::atoll(flags.at("n").c_str());
  if (n <= 0) {
    err << "generate: --n must be positive\n";
    return 2;
  }
  const DatasetKind kind = ParseDatasetKind(
      flags.contains("kind") ? flags.at("kind") : "utilization");
  const uint64_t seed = flags.contains("seed")
                            ? std::strtoull(flags.at("seed").c_str(), nullptr, 10)
                            : 1;
  const std::vector<double> series = GenerateDataset(kind, n, seed);
  if (Status s = WriteSeriesCsv(flags.at("out"), series); !s.ok()) {
    err << "generate: " << s << "\n";
    return 1;
  }
  out << "wrote " << n << " " << DatasetKindName(kind) << " points to "
      << flags.at("out") << "\n";
  return 0;
}

int Build(const std::map<std::string, std::string>& flags, std::ostream& out,
          std::ostream& err) {
  if (!flags.contains("input") || !flags.contains("buckets") ||
      !flags.contains("out")) {
    err << "build: --input, --buckets and --out are required\n";
    return 2;
  }
  auto series = ReadSeriesCsv(flags.at("input"));
  if (!series.ok()) {
    err << "build: " << series.status() << "\n";
    return 1;
  }
  if (series.value().empty()) {
    err << "build: input series is empty\n";
    return 1;
  }
  const int64_t buckets = std::atoll(flags.at("buckets").c_str());
  if (buckets <= 0) {
    err << "build: --buckets must be positive\n";
    return 2;
  }
  if (buckets > static_cast<int64_t>(series.value().size())) {
    err << "build: --buckets (" << buckets << ") exceeds series length ("
        << series.value().size() << ")\n";
    return 2;
  }
  const double epsilon =
      flags.contains("epsilon") ? std::atof(flags.at("epsilon").c_str()) : 0.1;
  const std::string algorithm =
      flags.contains("algorithm") ? flags.at("algorithm") : "vopt";

  Histogram histogram;
  if (algorithm == "vopt") {
    histogram = BuildVOptimalHistogram(series.value(), buckets).histogram;
  } else if (algorithm == "agglomerative") {
    ApproxHistogramOptions options;
    options.num_buckets = buckets;
    options.epsilon = epsilon;
    auto builder = AgglomerativeHistogram::Create(options);
    if (!builder.ok()) {
      err << "build: " << builder.status() << "\n";
      return 1;
    }
    for (double v : series.value()) builder.value().Append(v);
    histogram = builder.value().Extract();
  } else if (algorithm == "greedy") {
    histogram = BuildGreedyMergeHistogram(series.value(), buckets);
  } else if (algorithm == "equiwidth") {
    histogram = BuildEquiWidthHistogram(series.value(), buckets);
  } else if (algorithm == "maxdiff") {
    histogram = BuildMaxDiffHistogram(series.value(), buckets);
  } else {
    err << "build: unknown algorithm '" << algorithm << "'\n";
    return 2;
  }

  std::ofstream file(flags.at("out"), std::ios::binary);
  if (!file.is_open()) {
    err << "build: cannot write " << flags.at("out") << "\n";
    return 1;
  }
  const std::string bytes = SerializeHistogram(histogram);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.flush();
  if (!file.good()) {
    err << "build: write failed\n";
    return 1;
  }
  out << "built " << algorithm << " histogram: " << histogram.num_buckets()
      << " buckets over " << histogram.domain_size() << " points, SSE "
      << histogram.SseAgainst(series.value()) << ", " << bytes.size()
      << " bytes\n";
  return 0;
}

int Query(const std::map<std::string, std::string>& flags,
          const std::vector<std::string>& positional, std::ostream& out,
          std::ostream& err) {
  if (!flags.contains("histogram") || positional.empty()) {
    err << "query: --histogram and a query are required\n";
    return 2;
  }
  auto histogram = LoadHistogram(flags.at("histogram"));
  if (!histogram.ok()) {
    err << "query: " << histogram.status() << "\n";
    return 1;
  }
  const int64_t n = histogram.value().domain_size();
  const std::string& verb = positional[0];
  out.precision(15);  // answers must round-trip through text
  if ((verb == "SUM" || verb == "AVG") && positional.size() == 3) {
    const int64_t lo = std::atoll(positional[1].c_str());
    const int64_t hi = std::atoll(positional[2].c_str());
    if (!(0 <= lo && lo < hi && hi <= n)) {
      err << "query: range [" << lo << "," << hi << ") outside domain of size "
          << n << "\n";
      return 1;
    }
    const double sum = histogram.value().RangeSum(lo, hi);
    out << (verb == "SUM" ? sum : sum / static_cast<double>(hi - lo)) << "\n";
    return 0;
  }
  if (verb == "POINT" && positional.size() == 2) {
    const int64_t i = std::atoll(positional[1].c_str());
    if (i < 0 || i >= n) {
      err << "query: index " << i << " outside domain of size " << n << "\n";
      return 1;
    }
    out << histogram.value().Estimate(i) << "\n";
    return 0;
  }
  err << "query: expected SUM <lo> <hi> | AVG <lo> <hi> | POINT <i>\n";
  return 2;
}

int Inspect(const std::map<std::string, std::string>& flags, std::ostream& out,
            std::ostream& err) {
  if (!flags.contains("histogram")) {
    err << "inspect: --histogram is required\n";
    return 2;
  }
  auto histogram = LoadHistogram(flags.at("histogram"));
  if (!histogram.ok()) {
    err << "inspect: " << histogram.status() << "\n";
    return 1;
  }
  out << histogram.value().num_buckets() << " buckets over domain [0, "
      << histogram.value().domain_size() << ")\n"
      << histogram.value().ToString() << "\n";
  return 0;
}

/// Resolves the --wal-* flags (with $STREAMHIST_WAL supplying the default
/// policy spec) and opens the engine's write-ahead log, printing the
/// recovery line. No --wal-dir means no WAL; returns a nonzero exit code on
/// bad flags or a failed open.
int MaybeOpenWal(QueryEngine& engine,
                 const std::map<std::string, std::string>& flags,
                 std::ostream& out, std::ostream& err, const char* who) {
  if (!flags.contains("wal-dir")) return 0;
  QueryEngine::WalConfig config;
  std::string spec;
  if (flags.contains("wal-policy")) {
    spec = flags.at("wal-policy");
  } else if (const char* env = std::getenv("STREAMHIST_WAL")) {
    spec = env;
  }
  if (!spec.empty()) {
    const Result<wal::Options> parsed = wal::ParsePolicySpec(spec);
    if (!parsed.ok()) {
      err << who << ": wal policy: " << parsed.status() << "\n";
      return 2;
    }
    config.options = parsed.value();
  }
  config.checkpoint_interval_ms =
      flags.contains("wal-checkpoint-ms")
          ? std::atoll(flags.at("wal-checkpoint-ms").c_str())
          : 1000;
  if (config.checkpoint_interval_ms < 0) {
    err << who << ": --wal-checkpoint-ms must be >= 0\n";
    return 2;
  }
  const Result<QueryEngine::WalRecoveryReport> recovery =
      engine.OpenWal(flags.at("wal-dir"), config);
  if (!recovery.ok()) {
    err << who << ": wal: " << recovery.status() << "\n";
    return 1;
  }
  // Flushed before any "listening on" line so harnesses can read it first.
  out << "wal: policy=" << wal::PolicySpecString(config.options) << "; "
      << recovery.value().ToString() << std::endl;
  return 0;
}

/// One-line durability totals for shutdown summaries.
std::string WalSummaryLine(const wal::StatsSnapshot& s) {
  std::ostringstream os;
  os << "wal: records=" << s.records << ", bytes=" << s.bytes
     << ", fsyncs=" << s.fsyncs << ", sync waits=" << s.sync_waits
     << ", segments created=" << s.segments_created << " deleted="
     << s.segments_deleted << ", durable lsn=" << s.durable_lsn;
  return os.str();
}

/// Line-at-a-time QueryEngine session: statements from stdin (interactive)
/// or a script file. Failed statements print an error and the session keeps
/// going — one bad query should not kill a long-running console. EXIT/QUIT
/// ends the session.
int Console(const std::map<std::string, std::string>& flags, std::ostream& out,
            std::ostream& err) {
  std::ifstream script;
  std::istream* in = &std::cin;
  if (flags.contains("script")) {
    script.open(flags.at("script"));
    if (!script.is_open()) {
      err << "console: cannot open script: " << flags.at("script") << "\n";
      return 1;
    }
    in = &script;
  }
  QueryEngine engine;
  if (const int rc = MaybeOpenWal(engine, flags, out, err, "console");
      rc != 0) {
    return rc;
  }
  std::string line;
  while (std::getline(*in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string statement = line.substr(first);
    std::string head = statement.substr(0, statement.find_first_of(" \t\r"));
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (head == "EXIT" || head == "QUIT") break;
    const Result<std::string> result = engine.Execute(statement);
    if (result.ok()) {
      out << result.value() << "\n";
    } else {
      err << "error: " << result.status() << "\n";
    }
  }
  return 0;
}

// Self-pipe for serve --listen: the signal handler writes one byte, the
// foreground thread blocks on the read end until shutdown is requested.
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void ServeShutdownHandler(int /*signum*/) {
  const char byte = 1;
  // write(2) is async-signal-safe; the result is irrelevant (a full pipe
  // means a shutdown byte is already queued).
  [[maybe_unused]] const ssize_t n = write(g_shutdown_pipe[1], &byte, 1);
}

/// The TCP front-end (DESIGN.md §11): bind, print the port, serve until
/// SIGINT/SIGTERM, shut down cleanly, print the summary line.
int ServeTcp(const std::map<std::string, std::string>& flags,
             int threads, int64_t deadline_ms, std::ostream& out,
             std::ostream& err) {
  net::ServerOptions options;
  const int64_t port = std::atoll(flags.at("listen").c_str());
  if (port < 0 || port > 65535) {
    err << "serve: --listen must be a port in [0, 65535]\n";
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  options.threads = threads;
  options.deadline_ms = deadline_ms;
  if (flags.contains("max-conns")) {
    const int64_t cap = std::atoll(flags.at("max-conns").c_str());
    if (cap < 1) {
      err << "serve: --max-conns must be >= 1\n";
      return 2;
    }
    options.max_connections = static_cast<int>(cap);
  }

  QueryEngine engine;
  if (const int rc = MaybeOpenWal(engine, flags, out, err, "serve");
      rc != 0) {
    return rc;
  }

  // Replication (DESIGN.md §14). Any WAL-backed server can feed replicas, so
  // the hub exists whenever the log does — an ex-replica keeps it after
  // PROMOTE and can immediately take subscribers of its own.
  std::unique_ptr<net::ReplicationHub> hub;
  if (engine.wal_enabled()) {
    net::HubOptions hub_options;
    if (flags.contains("repl-sync-ms")) {
      hub_options.sync_ms = std::atoll(flags.at("repl-sync-ms").c_str());
      if (hub_options.sync_ms < 0) {
        err << "serve: --repl-sync-ms must be >= 0\n";
        return 2;
      }
    }
    hub = std::make_unique<net::ReplicationHub>(engine, hub_options);
    net::ReplicationHub* raw_hub = hub.get();
    engine.SetReplicationBarrier(
        [raw_hub](int64_t lsn) { return raw_hub->WaitShipped(lsn); });
    options.replication_hub = raw_hub;
  } else if (flags.contains("repl-sync-ms")) {
    err << "serve: --repl-sync-ms needs a write-ahead log (--wal-dir)\n";
    return 2;
  }

  std::unique_ptr<net::ReplicaClient> replica;
  if (flags.contains("replica-of")) {
    const std::string& target = flags.at("replica-of");
    const size_t colon = target.rfind(':');
    const std::string host = colon == std::string::npos
                                 ? std::string()
                                 : target.substr(0, colon);
    const int64_t primary_port =
        colon == std::string::npos
            ? 0
            : std::atoll(target.substr(colon + 1).c_str());
    if ((host != "127.0.0.1" && host != "localhost") || primary_port < 1 ||
        primary_port > 65535) {
      err << "serve: --replica-of expects 127.0.0.1:PORT or localhost:PORT"
             " (the replication link is loopback-only, like the listener)\n";
      return 2;
    }
    if (!engine.wal_enabled()) {
      err << "serve: a replica needs its own write-ahead log (--wal-dir)\n";
      return 1;
    }
    int64_t max_lag_ms = 10000;
    if (flags.contains("replica-max-lag-ms")) {
      max_lag_ms = std::atoll(flags.at("replica-max-lag-ms").c_str());
      if (max_lag_ms < 0) {
        err << "serve: --replica-max-lag-ms must be >= 0\n";
        return 2;
      }
    }
    net::ReplicaOptions replica_options;
    replica_options.primary_port = static_cast<uint16_t>(primary_port);
    Result<std::unique_ptr<net::ReplicaClient>> started =
        net::ReplicaClient::Start(engine, replica_options);
    if (!started.ok()) {
      err << "serve: replica: " << started.status() << "\n";
      return 1;
    }
    replica = std::move(started.value());
    engine.SetReplicaMaxLagMs(max_lag_ms);
    out << "replica of " << host << ":" << primary_port
        << " (max lag " << max_lag_ms << " ms; PROMOTE to take over)"
        << std::endl;
  }

  // Shutdown plumbing goes in BEFORE the server exists: a SIGINT/SIGTERM
  // delivered during startup is then queued as a byte in the pipe (drained
  // by the read loop below) instead of taking the default disposition and
  // killing the process with the WAL unflushed. On pipe failure nothing has
  // started yet; ~QueryEngine closes and flushes the WAL.
  if (pipe(g_shutdown_pipe) != 0) {
    err << "serve: cannot create shutdown pipe\n";
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = ServeShutdownHandler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  auto server = net::TcpServer::Start(engine, options);
  if (!server.ok()) {
    err << "serve: " << server.status() << "\n";
    const int rfd = g_shutdown_pipe[0], wfd = g_shutdown_pipe[1];
    g_shutdown_pipe[0] = g_shutdown_pipe[1] = -1;
    close(rfd);
    close(wfd);
    return 1;
  }
  // The machine-readable bind announcement: harnesses asking for --listen 0
  // parse the kernel-chosen port from exactly this line.
  out << "LISTENING " << server.value()->port() << std::endl;
  out << "listening on 127.0.0.1:" << server.value()->port() << " ("
      << threads << (threads == 1 ? " thread" : " threads");
  if (deadline_ms > 0) out << ", deadline " << deadline_ms << " ms";
  out << ")" << std::endl;

  char byte = 0;
  ssize_t n;
  do {
    n = read(g_shutdown_pipe[0], &byte, 1);
  } while (n < 0 && errno == EINTR);

  server.value()->Shutdown();
  out << server.value()->SummaryLine() << "\n";
  // Replication stops after the front-end (no new subscribes can arrive) and
  // before the WAL closes (the feeders read it until the very end).
  if (replica != nullptr) replica->Stop();
  if (hub != nullptr) {
    engine.SetReplicationBarrier(nullptr);
    const net::HubStatsSnapshot hs = hub->stats();
    if (hs.subscribes > 0) {
      out << "replication: " << hs.subscribes << " subscribes, " << hs.batches
          << " batches (" << hs.records << " records), " << hs.heartbeats
          << " heartbeats, " << hs.bootstraps << " bootstraps, acked lsn "
          << hs.acked_lsn << "\n";
    }
    hub->Stop();
  }
  if (engine.wal_enabled()) {
    // Final flush first, so the totals line reports the true durable LSN.
    wal::StatsSnapshot final_stats;
    (void)engine.CloseWal(&final_stats);
    out << WalSummaryLine(final_stats) << "\n";
  }
  close(g_shutdown_pipe[0]);
  close(g_shutdown_pipe[1]);
  g_shutdown_pipe[0] = g_shutdown_pipe[1] = -1;
  return 0;
}

/// Concurrent QueryEngine sessions against one shared engine: the
/// operational shape the snapshot-isolated core exists for. Statements are
/// dealt round-robin to N session threads (statement i -> session i % N);
/// each session executes its hand in order under its own ExecContext. The
/// engine's concurrency model guarantees every interleaving is safe; the
/// script decides whether it is meaningful. Answers are buffered and printed
/// in input order so output is reproducible even though execution is not
/// serialized.
int Serve(const std::map<std::string, std::string>& flags, std::ostream& out,
          std::ostream& err) {
  const int threads =
      flags.contains("threads") ? std::atoi(flags.at("threads").c_str()) : 1;
  if (threads < 1 || threads > 64) {
    err << "serve: --threads must be in [1, 64]\n";
    return 2;
  }
  const bool has_deadline = flags.contains("deadline-ms");
  const int64_t deadline_ms =
      has_deadline ? std::max<int64_t>(
                         0, std::atoll(flags.at("deadline-ms").c_str()))
                   : 0;

  if (flags.contains("listen")) {
    return ServeTcp(flags, threads, deadline_ms, out, err);
  }

  std::ifstream script;
  std::istream* in = &std::cin;
  if (flags.contains("script")) {
    script.open(flags.at("script"));
    if (!script.is_open()) {
      err << "serve: cannot open script: " << flags.at("script") << "\n";
      return 1;
    }
    in = &script;
  }
  std::vector<std::string> statements;
  std::string line;
  while (std::getline(*in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string statement = line.substr(first);
    std::string head = statement.substr(0, statement.find_first_of(" \t\r"));
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    if (head == "EXIT" || head == "QUIT") break;
    statements.push_back(std::move(statement));
  }

  QueryEngine engine;
  if (const int rc = MaybeOpenWal(engine, flags, out, err, "serve");
      rc != 0) {
    return rc;
  }
  std::vector<std::string> answers(statements.size());
  std::vector<uint8_t> succeeded(statements.size(), 0);
  std::vector<std::thread> sessions;
  sessions.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    sessions.emplace_back([&, t] {
      ExecContext ctx(has_deadline ? Deadline::AfterMillis(deadline_ms)
                                   : Deadline::Infinite());
      for (size_t i = static_cast<size_t>(t); i < statements.size();
           i += static_cast<size_t>(threads)) {
        const Result<std::string> result = engine.Execute(statements[i], ctx);
        if (result.ok()) {
          answers[i] = result.value();
          succeeded[i] = 1;
        } else {
          std::ostringstream os;
          os << result.status();
          answers[i] = os.str();
        }
      }
    });
  }
  for (std::thread& session : sessions) session.join();

  size_t ok = 0;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (succeeded[i]) {
      out << answers[i] << "\n";
      ++ok;
    } else {
      err << "error: " << answers[i] << "\n";
    }
  }
  out << "serve: " << statements.size() << " statements on " << threads
      << (threads == 1 ? " session: " : " sessions: ") << ok << " ok, "
      << (statements.size() - ok) << " errors\n";
  if (engine.wal_enabled()) {
    wal::StatsSnapshot final_stats;
    (void)engine.CloseWal(&final_stats);
    out << WalSummaryLine(final_stats) << "\n";
  }
  return 0;
}

/// Read-only WAL inspection: `wal dump` prints every decoded record, `wal
/// verify` just the scan report. Neither repairs anything — a torn tail is
/// reported, not truncated (that is Open's job, under a running engine).
int WalCmd(const std::map<std::string, std::string>& flags,
           const std::vector<std::string>& positional, std::ostream& out,
           std::ostream& err) {
  if (positional.empty() ||
      (positional[0] != "dump" && positional[0] != "verify") ||
      !flags.contains("dir")) {
    err << "wal: expected 'wal <dump|verify> --dir DIR'\n";
    return 2;
  }
  const bool dump = positional[0] == "dump";
  out.precision(15);
  const wal::Wal::RecordFn on_record = [&](int64_t lsn,
                                           std::string_view payload) {
    if (!dump) return Status::OK();
    out << "lsn=" << lsn;
    const Result<walrec::Record> record = walrec::Decode(payload);
    if (!record.ok()) {
      // The frame CRC passed, so this is a codec gap, not rot.
      out << " undecodable: " << record.status() << "\n";
      return Status::OK();
    }
    out << " " << walrec::RecordTypeName(record->type) << " stream="
        << record->name;
    switch (record->type) {
      case walrec::RecordType::kCreate:
        out << " window=" << record->config.window_size
            << " buckets=" << record->config.num_buckets;
        break;
      case walrec::RecordType::kAppend: {
        out << " values=" << record->values.size();
        if (record->values.size() <= 8) {
          for (double v : record->values) out << " " << v;
        }
        break;
      }
      case walrec::RecordType::kDrop:
        break;
    }
    out << "\n";
    return Status::OK();
  };
  wal::OpenReport report;
  const Status status = wal::Wal::Scan(flags.at("dir"), on_record, &report);
  if (!status.ok()) {
    err << "wal: " << status << "\n";
    return 1;
  }
  out << report.ToString() << "\n";
  // Interior corruption means fsynced bytes rotted — worth a hard exit.
  // A torn tail alone is normal crash residue (recovery truncates it), so
  // it gets its own advisory code an operator's script can treat as OK.
  if (report.corrupt_records > 0) return 1;
  if (report.tail_truncated) return 3;
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) return Usage(err);
  std::vector<std::string> positional;
  const std::map<std::string, std::string> flags =
      ParseFlags(args, 1, positional);
  if (args[0] == "-h" || args[0] == "--help" || flags.contains("help")) {
    PrintUsage(out);
    return 0;
  }
  if (args[0] == "generate") return Generate(flags, out, err);
  if (args[0] == "build") return Build(flags, out, err);
  if (args[0] == "query") return Query(flags, positional, out, err);
  if (args[0] == "inspect") return Inspect(flags, out, err);
  if (args[0] == "console") return Console(flags, out, err);
  if (args[0] == "serve") return Serve(flags, out, err);
  if (args[0] == "wal") return WalCmd(flags, positional, out, err);
  return Usage(err);
}

}  // namespace streamhist
