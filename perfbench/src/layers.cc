// The traced run: each workload's operations replayed one layer down at a
// time, with the benchmark timing the public calls into each layer. Spans
// inside the program are not recorded; every time here is taken around a
// call the benchmark makes itself.

#include <poll.h>
#include <sys/stat.h>

#include <functional>
#include <memory>
#include <thread>

#include "reference.h"
#include "src/core/agglomerative.h"
#include "src/core/fixed_window.h"
#include "src/engine/query_engine.h"
#include "src/engine/wal_records.h"
#include "src/quantile/gk_summary.h"
#include "src/server/wire.h"
#include "src/sketch/fm_sketch.h"
#include "src/stream/sliding_window.h"
#include "src/util/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = streamhist::net;
namespace wal = streamhist::wal;
namespace walrec = streamhist::walrec;
using streamhist::AgglomerativeHistogram;
using streamhist::ApproxHistogramOptions;
using streamhist::FixedWindowHistogram;
using streamhist::FixedWindowOptions;
using streamhist::FMSketch;
using streamhist::GKSummary;
using streamhist::Histogram;
using streamhist::QueryEngine;
using streamhist::Result;
using streamhist::SlidingWindow;

constexpr int kRebuilds = 64;  // fixed, so the rebuild counts repeat exactly

double ElapsedUs(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e3; }

/// Runs `step` until `budget_s` passes or `max_calls` calls were made (at
/// least `min_calls`).
void RunFor(double budget_s, int64_t min_calls, int64_t max_calls,
            const std::function<void(int64_t)>& step) {
  const int64_t end = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int64_t i = 0; i < max_calls && (i < min_calls || NowNs() < end); ++i) {
    step(i);
  }
}

/// Values per write of this workload (read_only writes only at set-up).
int64_t WriteSize(const WorkloadSpec& spec) {
  return spec.write_values > 0 ? spec.write_values : spec.fill_batch;
}

/// The workload's streams, filled exactly as its set-up fills them.
std::deque<StreamModel> FilledStreams(const WorkloadSpec& spec, uint64_t seed) {
  std::deque<StreamModel> streams = MakeStreams(spec, seed);
  for (StreamModel& m : streams) {
    for (int64_t done = 0; done < spec.fill_values; done += spec.fill_batch) {
      m.Next(spec.fill_batch);
    }
  }
  return streams;
}

/// The read statements the workload's clients send, in order.
std::vector<std::string> ReadMix(const WorkloadSpec& spec,
                                 const std::deque<StreamModel>& streams,
                                 uint64_t seed, int count) {
  Rng rng(SubSeed(seed, 3));
  std::vector<std::string> out;
  int16_t a = 0, b = 0;
  for (int i = 0; i < count; ++i) {
    const StreamModel& m = streams[rng.Between(0, streams.size() - 1)];
    out.push_back(ReadStatement(spec.reads[i % spec.reads.size()], m.name, rng, &a, &b));
  }
  return out;
}

struct LayerMetrics {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> errors;
  void Add(const std::string& name, double v) { values.emplace_back(name, v); }
};

/// core/fixed_window: the lazy window materialization a read pays after a
/// write, split into the copy, the CreateList rebuild and the extraction.
void TraceFixedWindow(const WorkloadSpec& spec, uint64_t seed, LayerMetrics& m) {
  std::deque<StreamModel> streams = FilledStreams(spec, seed);
  FixedWindowOptions options;
  options.window_size = kWindow;
  options.num_buckets = kBuckets;
  options.epsilon = kEpsilon;
  options.rebuild_on_append = false;
  std::vector<double> copy, rebuild, extract, evals, intervals;
  for (int i = 0; i < kRebuilds; ++i) {
    StreamModel& model = streams[i % streams.size()];
    model.Next(WriteSize(spec));
    const std::vector<double> contents =
        model.Window(static_cast<int64_t>(model.cents.size()), kWindow);
    int64_t t = NowNs();
    FixedWindowHistogram fw = FixedWindowHistogram::FromContents(options, contents);
    copy.push_back(ElapsedUs(t));
    t = NowNs();
    const double herror = fw.ApproxError();
    rebuild.push_back(ElapsedUs(t));
    t = NowNs();
    const Histogram& h = fw.Extract();
    const std::vector<double> errors = fw.BucketErrors();
    extract.push_back(ElapsedUs(t));
    evals.push_back(static_cast<double>(fw.last_herror_evals()));
    intervals.push_back(static_cast<double>(fw.last_total_intervals()));
    if (i == 0) {
      // The replay's answer must be the certified one too.
      const std::string why =
          CheckErrorBound(ExactVoptSse(contents, kBuckets), kEpsilon, herror);
      if (!why.empty() || h.num_buckets() < 1 || errors.empty()) {
        m.errors.push_back("fixed_window replay: " + why);
      }
    }
  }
  m.Add("core.fixed_window.copy_us", Median(copy));
  m.Add("core.fixed_window.rebuild_us", Median(rebuild));
  m.Add("core.fixed_window.extract_us", Median(extract));
  m.Add("core.fixed_window.herror_evals", Median(evals));
  m.Add("core.fixed_window.intervals", Median(intervals));
}

/// Per-value cost of each synopsis a write feeds, on the workload's values
/// in its write-sized batches.
void TraceSynopses(const WorkloadSpec& spec, uint64_t seed, double budget_s,
                   LayerMetrics& m) {
  const int64_t batch = WriteSize(spec);
  std::deque<StreamModel> streams = MakeStreams(spec, seed);
  std::vector<std::vector<double>> batches;
  for (int i = 0; i < 4096; ++i) {
    batches.push_back(streams[i % streams.size()].Next(batch));
  }
  auto per_value = [&](const std::function<void(const std::vector<double>&)>& feed) {
    std::vector<double> ns;
    RunFor(budget_s, 64, static_cast<int64_t>(batches.size()), [&](int64_t i) {
      const int64_t t = NowNs();
      feed(batches[i]);
      ns.push_back(static_cast<double>(NowNs() - t) / static_cast<double>(batch));
    });
    return Median(ns);
  };
  ApproxHistogramOptions agg_options;
  agg_options.num_buckets = kBuckets;
  agg_options.epsilon = kEpsilon;
  AgglomerativeHistogram agg = AgglomerativeHistogram::Create(agg_options).value();
  SlidingWindow window(kWindow);
  GKSummary gk = GKSummary::Create(kQuantileEpsilon).value();
  FMSketch fm = FMSketch::Create(kFmBitmaps).value();
  m.Add("core.agglomerative.append_ns", per_value([&](const std::vector<double>& b) {
          for (double v : b) agg.Append(v);
        }));
  m.Add("stream.sliding_window.append_ns", per_value([&](const std::vector<double>& b) {
          for (double v : b) window.Append(v);
        }));
  m.Add("quantile.gk.insert_ns", per_value([&](const std::vector<double>& b) {
          for (double v : b) gk.Insert(v);
        }));
  m.Add("sketch.fm.add_ns", per_value([&](const std::vector<double>& b) {
          for (double v : b) fm.AddValue(v);
        }));
}

int64_t PublishCount(QueryEngine& engine, const std::string& stream) {
  const Result<std::string> stats = engine.Execute("STATS " + stream);
  if (!stats.ok()) return -1;
  const size_t at = stats.value().find("publish count=");
  return at == std::string::npos ? -1 : std::atoll(stats.value().c_str() + at + 14);
}

/// engine: QueryEngine::Execute / ExecuteBatchAppend in process, no WAL.
double TraceEngine(const WorkloadSpec& spec, uint64_t seed,
                   const std::vector<std::string>& mix, double budget_s,
                   LayerMetrics& m) {
  std::deque<StreamModel> streams = MakeStreams(spec, seed);
  QueryEngine engine;
  for (StreamModel& model : streams) {
    std::string create = CreateStatement(model.name);
    create.pop_back();
    if (!engine.Execute(create).ok()) m.errors.push_back("engine: " + create);
    for (int64_t done = 0; done < spec.fill_values; done += spec.fill_batch) {
      const std::vector<double> values = model.Next(spec.fill_batch);
      (void)engine.ExecuteBatchAppend(model.name, values);
    }
    (void)engine.Execute("SUM " + model.name + " 0 " + std::to_string(kWindow));
  }
  std::vector<double> read;
  RunFor(budget_s, 256, static_cast<int64_t>(mix.size()) * 64, [&](int64_t i) {
    const std::string& s = mix[i % mix.size()];
    const int64_t t = NowNs();
    const Result<std::string> r = engine.Execute(s.substr(0, s.size() - 1));
    read.push_back(ElapsedUs(t));
    if (!r.ok()) m.errors.push_back("engine read failed: " + s);
  });
  const double read_us = Median(read);
  m.Add("engine.read_us", read_us);

  // A write, then the read that follows it: the read pays any lazy work
  // the write left behind.
  std::vector<double> raw;
  Rng rng(SubSeed(seed, 4));
  RunFor(budget_s * 1.5, 16, kRebuilds, [&](int64_t i) {
    StreamModel& target = streams[i % streams.size()];
    (void)engine.ExecuteBatchAppend(target.name, target.Next(WriteSize(spec)));
    int16_t a = 0, b = 0;
    std::string s = ReadStatement(spec.reads[i % spec.reads.size()], target.name, rng, &a, &b);
    s.pop_back();
    const int64_t t = NowNs();
    (void)engine.Execute(s);
    raw.push_back(ElapsedUs(t));
  });
  m.Add("engine.read_after_write_us", Median(raw));

  std::vector<double> append;
  StreamModel& sink = streams[streams.size() - 1];
  const int64_t publishes0 = PublishCount(engine, sink.name);
  int64_t batches = 0;
  RunFor(budget_s * 0.5, 64, 1 << 20, [&](int64_t) {
    const std::vector<double> values = sink.Next(WriteSize(spec));
    const int64_t t = NowNs();
    (void)engine.ExecuteBatchAppend(sink.name, values);
    append.push_back(ElapsedUs(t));
    ++batches;
  });
  m.Add("engine.append_batch_us", Median(append));
  m.Add("engine.publishes_per_batch",
        static_cast<double>(PublishCount(engine, sink.name) - publishes0) /
            static_cast<double>(batches));
  return read_us;
}

/// util/wal: Append + WaitDurable under "always", with the workload's record
/// size and writer count (read_only: its set-up fill).
void TraceWal(const WorkloadSpec& spec, const RunConfig& config,
              double budget_s, LayerMetrics& m) {
  const std::string dir = config.workdir + "/trace-wal";
  wal::Options options;
  options.policy = wal::SyncPolicy::kAlways;
  Result<std::unique_ptr<wal::Wal>> opened = wal::Wal::Open(dir, options, nullptr);
  if (!opened.ok()) {
    m.errors.push_back("wal open: " + opened.status().ToString());
    return;
  }
  wal::Wal& log = *opened.value();
  const int writers = std::max(1, spec.writer_conns);
  std::vector<std::vector<double>> lat(writers);
  std::vector<int64_t> values_logged(writers, 0);
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> pool;
  for (int w = 0; w < writers; ++w) {
    pool.emplace_back([&, w] {
      StreamModel model(std::string("s").append(std::to_string(w)),
                        SubSeed(config.seed, 1, w));
      RunFor(budget_s, 32, 1 << 20, [&](int64_t) {
        const std::string record =
            walrec::EncodeAppend(model.name, model.Next(WriteSize(spec)));
        const int64_t t = NowNs();
        const Result<int64_t> lsn = log.Append(record);
        if (!lsn.ok() || !log.WaitDurable(lsn.value(), 10000)) ++failures;
        lat[w].push_back(ElapsedUs(t));
        values_logged[w] += WriteSize(spec);
      });
    });
  }
  for (std::thread& t : pool) t.join();
  if (failures.load() > 0) m.errors.push_back("wal: appends failed");
  std::vector<double> all;
  int64_t values = 0;
  for (int w = 0; w < writers; ++w) {
    all.insert(all.end(), lat[w].begin(), lat[w].end());
    values += values_logged[w];
  }
  const wal::StatsSnapshot stats = log.stats();
  m.Add("wal.append_durable_us", Median(all));
  m.Add("wal.fsyncs_per_record",
        static_cast<double>(stats.fsyncs) / static_cast<double>(stats.records));
  m.Add("wal.bytes_per_value",
        static_cast<double>(stats.bytes) / static_cast<double>(values));
}

/// server/wire: batch-frame scan + decode, per frame.
void TraceWire(const WorkloadSpec& spec, uint64_t seed, double budget_s,
               LayerMetrics& m) {
  std::deque<StreamModel> streams = MakeStreams(spec, seed);
  std::vector<std::string> frames;
  for (int i = 0; i < 1024; ++i) {
    StreamModel& model = streams[i % streams.size()];
    frames.push_back(net::EncodeBatchAppend(model.name, model.Next(WriteSize(spec))));
  }
  std::vector<double> ns;
  RunFor(budget_s, 1024, 1 << 22, [&](int64_t i) {
    const std::string& f = frames[i % frames.size()];
    const int64_t t = NowNs();
    const net::FrameScan scan = net::ScanBatchFrame(f, 4 << 20);
    const Result<net::BatchAppend> decoded = net::DecodeBatchAppend(f);
    ns.push_back(static_cast<double>(NowNs() - t));
    if (scan.state != net::FrameScan::State::kFrame || !decoded.ok()) {
      m.errors.push_back("wire: frame did not decode");
    }
  });
  m.Add("server.wire.decode_batch_ns", Median(ns));
}

/// Starts a server of this workload's shape and creates + fills its
/// streams over `conn`.
bool StartFilled(const WorkloadSpec& spec, const RunConfig& config,
                 const std::string& name, bool wal, int threads, ServerProcess& server,
                 Connection& conn, std::deque<StreamModel>& streams,
                 std::string* error) {
  const std::string dir = config.workdir + "/" + name;
  mkdir(dir.c_str(), 0755);
  ServerProcess::Options options;
  options.tool = config.tool;
  options.workdir = dir;
  options.threads = threads;
  if (wal) options.wal_dir = dir + "/wal";
  if (!server.Start(options, error) || !conn.Connect(server.port(), error)) {
    return false;
  }
  Reply reply;
  for (StreamModel& model : streams) {
    bool ok = conn.Call(CreateStatement(model.name), &reply) && reply.ok;
    for (int64_t done = 0; ok && done < spec.fill_values; done += spec.fill_batch) {
      const std::vector<double> values = model.Next(spec.fill_batch);
      ok = conn.Call(net::EncodeBatchAppend(model.name, values), &reply) && reply.ok;
      model.sent.store(static_cast<int64_t>(model.cents.size()));
      model.acked.store(static_cast<int64_t>(model.cents.size()));
    }
    ok = ok && conn.Call("SUM " + model.name + " 0 " + std::to_string(kWindow) + "\n",
                         &reply);
    if (!ok) {
      *error = "traced set-up failed: " + reply.payload;
      return false;
    }
  }
  return true;
}

std::vector<double> RoundTrips(Connection& conn, const std::vector<std::string>& mix,
                               double budget_s, int64_t min_calls, bool* ok) {
  std::vector<double> us;
  Reply reply;
  RunFor(budget_s, min_calls, 1 << 22, [&](int64_t i) {
    const int64_t t = NowNs();
    if (!conn.Call(mix[i % mix.size()], &reply) || !reply.ok) *ok = false;
    us.push_back(ElapsedUs(t));
  });
  return us;
}

/// server: the TCP round trip of the same read mix minus the engine's time
/// for it; and the traced run's own overhead, per-call clock reads against
/// one clock read per block of calls.
void TraceServerReads(const WorkloadSpec& spec, const RunConfig& config,
                      const std::vector<std::string>& mix, double engine_read_us,
                      double budget_s, LayerMetrics& m) {
  ServerProcess server;
  Connection conn;
  std::deque<StreamModel> streams = MakeStreams(spec, config.seed);
  std::string error;
  if (!StartFilled(spec, config, "trace-read", false, spec.server_threads, server,
                   conn, streams, &error)) {
    m.errors.push_back(error);
    return;
  }
  bool ok = true;
  const std::vector<double> rtt = RoundTrips(conn, mix, budget_s, 512, &ok);
  m.Add("server.read_self_us", Median(rtt) - engine_read_us);
  // Overhead: alternate blocks timed per call and timed as a whole.
  constexpr int kBlock = 256;
  std::vector<double> per_call_mean, block_mean;
  Reply reply;
  for (int round = 0; round < 6; ++round) {
    double sum = 0.0;
    for (int i = 0; i < kBlock; ++i) {
      const int64_t t = NowNs();
      ok = conn.Call(mix[i % mix.size()], &reply) && reply.ok && ok;
      sum += ElapsedUs(t);
    }
    per_call_mean.push_back(sum / kBlock);
    const int64_t t = NowNs();
    for (int i = 0; i < kBlock; ++i) {
      ok = conn.Call(mix[i % mix.size()], &reply) && reply.ok && ok;
    }
    block_mean.push_back(ElapsedUs(t) / kBlock);
  }
  m.Add("trace.read_rtt_us", Median(rtt));
  m.Add("trace.overhead_us", Median(per_call_mean) - Median(block_mean));
  if (!ok) m.errors.push_back("traced TCP reads failed");
}

/// server: how long COUNT/QUANTILE/DISTINCT wait when writers share the
/// workers under WAL "always", against the same reads with writers idle.
void TraceReadWait(const WorkloadSpec& spec, const RunConfig& config,
                   double budget_s, LayerMetrics& m) {
  ServerProcess server;
  Connection setup;
  std::deque<StreamModel> streams = MakeStreams(spec, config.seed);
  std::string error;
  const WorkloadSpec& dm = *FindWorkload("durable_mixed");
  if (!StartFilled(spec, config, "trace-wait", true, dm.server_threads, server, setup,
                   streams, &error)) {
    m.errors.push_back(error);
    return;
  }
  // durable_mixed's layout: its writers, then its reader, dealt
  // round-robin onto its workers after the set-up connection.
  const int kWriters = dm.writer_conns;
  std::vector<Connection> wconns(kWriters);
  Connection reader;
  for (Connection& c : wconns) {
    if (!c.Connect(server.port(), &error)) m.errors.push_back(error);
  }
  if (!reader.Connect(server.port(), &error)) m.errors.push_back(error);
  std::vector<std::string> mix;
  const Verb verbs[] = {Verb::kCount, Verb::kQuantile, Verb::kDistinct};
  Rng rng(SubSeed(config.seed, 5));
  int16_t a = 0, b = 0;
  for (int i = 0; i < 300; ++i) {
    mix.push_back(ReadStatement(verbs[i % 3], streams[i % streams.size()].name, rng, &a, &b));
  }
  bool ok = true;
  const std::vector<double> idle = RoundTrips(reader, mix, budget_s * 0.4, 300, &ok);
  // One thread keeps a 64-value batch frame in flight on each writer.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto send = [&](int w) {
      StreamModel& model = streams[w % streams.size()];
      return wconns[w].Send(net::EncodeBatchAppend(model.name, model.Next(64)));
    };
    std::vector<pollfd> fds;
    for (int w = 0; w < kWriters; ++w) {
      if (!send(w)) return;
      fds.push_back({wconns[w].fd(), POLLIN, 0});
    }
    Reply reply;
    while (!stop.load()) {
      if (poll(fds.data(), fds.size(), 100) <= 0) continue;
      for (int w = 0; w < kWriters; ++w) {
        bool dead = false;
        if (fds[w].revents == 0) continue;
        if (wconns[w].TryReceive(&reply, &dead) && !send(w)) return;
        if (dead) return;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::vector<double> mixed = RoundTrips(reader, mix, budget_s * 0.6, 300, &ok);
  stop.store(true);
  writer.join();
  m.Add("server.read_wait_us", Median(mixed) - Median(idle));
  if (!ok) m.errors.push_back("read-wait reads failed");
}

}  // namespace

Outcome RunTraced(const WorkloadSpec& spec, const RunConfig& config) {
  Outcome out;
  LayerMetrics m;
  const double s = config.seconds;
  const int64_t t0 = NowNs();
  std::deque<StreamModel> streams = FilledStreams(spec, config.seed);
  const std::vector<std::string> mix = ReadMix(spec, streams, config.seed, 4096);

  TraceFixedWindow(spec, config.seed, m);
  TraceSynopses(spec, config.seed, s * 0.04, m);
  const double engine_read_us = TraceEngine(spec, config.seed, mix, s * 0.1, m);
  TraceWal(spec, config, s * 0.1, m);
  TraceWire(spec, config.seed, s * 0.03, m);
  TraceServerReads(spec, config, mix, engine_read_us, s * 0.1, m);
  TraceReadWait(spec, config, s * 0.15, m);

  out.metrics = m.values;
  out.attempted = static_cast<int64_t>(m.values.size());
  out.correct = m.errors.empty();
  JsonObject d;
  d.Num("traced_s", static_cast<double>(NowNs() - t0) / 1e9);
  d.Int("rebuilds_replayed", kRebuilds);
  std::string errors = "[";
  for (size_t i = 0; i < m.errors.size() && i < 8; ++i) {
    JsonObject e;
    e.Str("failure", m.errors[i]);
    errors += (i ? ", " : "") + e.Done();
  }
  d.Raw("check_failure_examples", errors + "]");
  out.details = d.Done();
  return out;
}

}  // namespace perfbench
