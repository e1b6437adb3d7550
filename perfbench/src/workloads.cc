#include "workloads.h"

#include <poll.h>
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "reference.h"
#include "src/server/wire.h"

namespace perfbench {

namespace net = streamhist::net;

std::vector<double> StreamModel::Next(int64_t k) {
  std::vector<double> values;
  values.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const int64_t c = gen.NextCents();
    cents.push_back(static_cast<int16_t>(c));
    values.push_back(CentsToValue(c));
  }
  return values;
}

std::vector<double> StreamModel::Window(int64_t n, int64_t w) const {
  std::vector<double> out;
  for (int64_t i = std::max<int64_t>(0, n - w); i < n; ++i) {
    out.push_back(CentsToValue(cents[i]));
  }
  return out;
}

int StreamCount(const WorkloadSpec& spec) {
  return spec.writer_conns * spec.streams_per_writer +
         spec.reader_conns * spec.streams_per_reader;
}

std::deque<StreamModel> MakeStreams(const WorkloadSpec& spec, uint64_t seed) {
  std::deque<StreamModel> streams;
  for (int i = 0; i < StreamCount(spec); ++i) {
    streams.emplace_back("s" + std::to_string(i), SubSeed(seed, 1, i));
  }
  return streams;
}

std::string ReadStatement(Verb verb, const std::string& stream, Rng& rng,
                          int16_t* a, int16_t* b) {
  std::string s = std::string(VerbName(verb)) + " " + stream;
  switch (verb) {
    case Verb::kSum:
    case Verb::kAvg:
    case Verb::kSumBound: {
      *a = static_cast<int16_t>(rng.Between(0, kWindow - 2));
      *b = static_cast<int16_t>(rng.Between(*a + 1, kWindow));
      s += " " + std::to_string(*a) + " " + std::to_string(*b);
      break;
    }
    case Verb::kPoint:
      *a = static_cast<int16_t>(rng.Between(0, kWindow - 1));
      s += " " + std::to_string(*a);
      break;
    case Verb::kQuantile:
      *a = static_cast<int16_t>(rng.Between(1, 99));
      s += " 0." + std::string(*a < 10 ? "0" : "") + std::to_string(*a);
      break;
    default:
      break;
  }
  return s + "\n";
}

std::string AppendStatement(const std::string& stream,
                            const std::vector<double>& values) {
  std::string s = "APPEND " + stream;
  for (double v : values) {
    s += ' ';
    s += FormatDouble(v);
  }
  return s + "\n";
}

std::string CreateStatement(const std::string& stream) {
  return "CREATE " + stream + " " + std::to_string(kWindow) + " " +
         std::to_string(kBuckets) + "\n";
}

namespace {

// setup_s is the median of kSetupsBefore set-ups before the timed region
// (the last one serves it) and kSetupsAfter on fresh servers after it, so
// that a burst of interference around one end of the run moves fewer than
// half of them.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
constexpr int kErrorDpChecks = 48;   // ERROR reads re-derived with the exact DP

enum : uint8_t { kTimed = 1, kOk = 2, kParsed = 4 };

/// One completed operation, kept compact: read_only records ~10^6 of them.
struct OpRecord {
  int64_t latency_ns = 0;
  int64_t done_ns = 0;  // when the reply arrived (steady clock)
  double v1 = 0.0;  // the answer (estimate)
  double v2 = 0.0;  // SUMBOUND's bound
  int32_t n_lo = 0;  // values acked on the stream when the op was sent
  int32_t n_hi = 0;  // values sent on the stream when the reply arrived
  int16_t stream = 0;
  int16_t a = 0;
  int16_t b = 0;
  Verb verb = Verb::kSum;
  uint8_t flags = 0;
};

/// One closed-loop client connection.
struct Actor {
  bool writer = false;
  std::vector<int> streams;  // owned (writers, read_only) or readable
  Rng rng{1};
  Connection conn;
  int64_t step = 0;
  bool in_flight = false;
  bool dead = false;
  OpRecord cur;
  int64_t t_send = 0;
  std::vector<OpRecord> records;
};

struct Shared {
  std::atomic<int64_t> timed_start{INT64_MAX};
  std::atomic<bool> stop{false};
  bool write_phase = false;  // every actor writes to its own streams
};

struct Instance {
  std::unique_ptr<ServerProcess> server = std::make_unique<ServerProcess>();
  std::deque<StreamModel> streams;
  std::vector<std::unique_ptr<Actor>> actors;
  std::string dir;
  std::string wal_dir;
  double setup_s = 0.0;
  double start_s = 0.0;  // of which: the server's start, to its LISTENING line
};

bool ParseAnswer(OpRecord* op, const std::string& payload, int64_t expect) {
  switch (op->verb) {
    case Verb::kSumBound:
      return ParseBounded(payload, &op->v1, &op->v2);
    case Verb::kAppend:
    case Verb::kBatchAppend:
      return payload == "appended " + std::to_string(expect) + " point(s)";
    default:
      return ParseNumber(payload, &op->v1);
  }
}

/// Builds and sends the actor's next request.
void SendNext(const WorkloadSpec& spec, std::deque<StreamModel>& streams,
           Actor& actor, const Shared& shared) {
  OpRecord& op = actor.cur;
  op = OpRecord{};
  std::string request;
  bool write = false;
  int stream = 0;
  Verb read_verb = spec.reads.empty() ? Verb::kCount : spec.reads[0];
  if (shared.write_phase) {
    stream = actor.streams[actor.step % actor.streams.size()];
    write = true;
  } else if (actor.writer && spec.read_after_each_write) {
    const int64_t cycle = actor.step / 2;
    stream = actor.streams[cycle % actor.streams.size()];
    write = actor.step % 2 == 0;
    read_verb = spec.reads[cycle % spec.reads.size()];
  } else if (actor.writer) {
    stream = actor.streams[actor.step % actor.streams.size()];
    write = true;
  } else {
    stream = actor.streams[actor.rng.Between(0, actor.streams.size() - 1)];
    read_verb = spec.reads[actor.step % spec.reads.size()];
  }
  StreamModel& model = streams[stream];
  op.stream = static_cast<int16_t>(stream);
  op.n_lo = static_cast<int32_t>(model.acked.load(std::memory_order_acquire));
  if (write) {
    const std::vector<double> values = model.Next(spec.write_values);
    op.verb = spec.write_binary ? Verb::kBatchAppend : Verb::kAppend;
    op.n_hi = static_cast<int32_t>(model.cents.size());
    model.sent.store(op.n_hi, std::memory_order_release);
    request = spec.write_binary ? net::EncodeBatchAppend(model.name, values)
                                : AppendStatement(model.name, values);
  } else {
    op.verb = read_verb;
    request = ReadStatement(read_verb, model.name, actor.rng,
                            &op.a, &op.b);
  }
  ++actor.step;
  actor.t_send = NowNs();
  if (actor.t_send >= shared.timed_start.load(std::memory_order_relaxed)) {
    op.flags |= kTimed;
  }
  actor.in_flight = true;
  if (!actor.conn.Send(request)) {
    actor.dead = true;
    actor.in_flight = false;
    actor.records.push_back(op);
  }
}

void Complete(const WorkloadSpec& spec, std::deque<StreamModel>& streams,
              Actor& actor, const Reply& reply, int64_t now) {
  OpRecord& op = actor.cur;
  op.latency_ns = now - actor.t_send;
  op.done_ns = now;
  StreamModel& model = streams[op.stream];
  if (reply.ok) op.flags |= kOk;
  if (IsWrite(op.verb)) {
    if (reply.ok && ParseAnswer(&op, reply.payload, spec.write_values)) {
      op.flags |= kParsed;
      model.acked.store(op.n_hi, std::memory_order_release);
    }
  } else {
    op.n_hi = static_cast<int32_t>(model.sent.load(std::memory_order_acquire));
    if (reply.ok && ParseAnswer(&op, reply.payload, 0)) op.flags |= kParsed;
  }
  actor.records.push_back(op);
  actor.in_flight = false;
}

/// The generator: a poll loop over the actors, each closed loop. It spins
/// for up to kSpinNs before blocking in poll (see client.h).
void Drive(const WorkloadSpec& spec, std::deque<StreamModel>& streams,
           std::vector<Actor*> actors, Shared& shared) {
  for (Actor* a : actors) SendNext(spec, streams, *a, shared);
  std::vector<pollfd> fds;
  std::vector<Actor*> waiting;
  Reply reply;
  for (;;) {
    fds.clear();
    waiting.clear();
    for (Actor* a : actors) {
      if (a->in_flight) {
        fds.push_back({a->conn.fd(), POLLIN, 0});
        waiting.push_back(a);
      }
    }
    if (fds.empty()) return;
    int ready = 0;
    const int64_t spin_until = NowNs() + kSpinNs;
    while ((ready = poll(fds.data(), fds.size(), 0)) == 0 && NowNs() < spin_until) {
    }
    if (ready == 0) ready = poll(fds.data(), fds.size(), 100);
    if (ready <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Actor& a = *waiting[i];
      bool dead = false;
      if (a.conn.TryReceive(&reply, &dead)) {
        Complete(spec, streams, a, reply, NowNs());
        if (!shared.stop.load(std::memory_order_relaxed)) {
          SendNext(spec, streams, a, shared);
        }
      } else if (dead) {
        a.dead = true;
        a.in_flight = false;
        a.records.push_back(a.cur);
      }
    }
  }
}

bool CallOk(Connection& conn, const std::string& request, Reply* reply,
            std::string* error) {
  if (!conn.Call(request, reply)) {
    *error = "connection lost during set-up";
    return false;
  }
  if (!reply->ok) {
    *error = "set-up statement failed: " + reply->payload;
    return false;
  }
  return true;
}

/// Starts a server, connects the actors, creates and fills every stream
/// (and reads each window once when the workload serves materialized
/// windows). The elapsed time is this set-up's setup_s.
bool SetUp(const WorkloadSpec& spec, const RunConfig& config, int index,
           Instance* inst, std::string* error) {
  inst->dir = config.workdir + "/setup" + std::to_string(index);
  mkdir(inst->dir.c_str(), 0755);
  if (spec.wal) inst->wal_dir = inst->dir + "/wal";
  inst->streams = MakeStreams(spec, config.seed);
  const int64_t t0 = NowNs();
  ServerProcess::Options options;
  options.tool = config.tool;
  options.workdir = inst->dir;
  options.threads = spec.server_threads;
  options.wal_dir = inst->wal_dir;
  if (!inst->server->Start(options, error)) return false;
  inst->start_s = static_cast<double>(NowNs() - t0) / 1e9;
  const int writer_streams = spec.writer_conns * spec.streams_per_writer;
  for (int c = 0; c < spec.writer_conns + spec.reader_conns; ++c) {
    auto actor = std::make_unique<Actor>();
    actor->writer = c < spec.writer_conns;
    actor->rng = Rng(SubSeed(config.seed, 2, c));
    if (actor->writer) {
      for (int s = 0; s < spec.streams_per_writer; ++s) {
        actor->streams.push_back(c * spec.streams_per_writer + s);
      }
    } else if (spec.streams_per_reader > 0) {
      const int r = c - spec.writer_conns;
      for (int s = 0; s < spec.streams_per_reader; ++s) {
        actor->streams.push_back(writer_streams + r * spec.streams_per_reader + s);
      }
    } else {
      for (int s = 0; s < writer_streams; ++s) actor->streams.push_back(s);
    }
    if (!actor->conn.Connect(inst->server->port(), error)) return false;
    inst->actors.push_back(std::move(actor));
  }
  // Create every stream, then fill in rounds: each owning connection has
  // one batch in flight per round, so the workers are rarely idle.
  Reply reply;
  std::vector<Actor*> owners;
  for (auto& actor : inst->actors) {
    if (!actor->writer && spec.streams_per_reader == 0) continue;
    owners.push_back(actor.get());
    for (int s : actor->streams) {
      if (!CallOk(actor->conn, CreateStatement(inst->streams[s].name),
                  &reply, error)) {
        return false;
      }
    }
  }
  const int64_t rounds =
      spec.fill_values / spec.fill_batch * static_cast<int64_t>(owners[0]->streams.size());
  for (int64_t round = 0; round < rounds; ++round) {
    for (size_t o = 0; o < owners.size(); ++o) {
      StreamModel& model =
          inst->streams[owners[o]->streams[round % owners[o]->streams.size()]];
      const std::vector<double> values = model.Next(spec.fill_batch);
      if (!owners[o]->conn.Send(spec.fill_binary
                                    ? net::EncodeBatchAppend(model.name, values)
                                    : AppendStatement(model.name, values))) {
        *error = "connection lost during set-up";
        return false;
      }
    }
    for (size_t o = 0; o < owners.size(); ++o) {
      StreamModel& model =
          inst->streams[owners[o]->streams[round % owners[o]->streams.size()]];
      if (!owners[o]->conn.Receive(&reply) || !reply.ok) {
        *error = "set-up fill failed: " + reply.payload;
        return false;
      }
      model.sent.store(static_cast<int64_t>(model.cents.size()));
      model.acked.store(static_cast<int64_t>(model.cents.size()));
    }
  }
  if (spec.materialize) {
    for (auto& actor : inst->actors) {
      for (int s : actor->streams) {
        const std::string request = "SUM " + inst->streams[s].name + " 0 " +
                                    std::to_string(kWindow) + "\n";
        if (!CallOk(actor->conn, request, &reply, error)) return false;
      }
    }
  }
  inst->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

/// Exact facts about one window a read saw, computed once per (stream, n).
struct WindowFacts {
  std::vector<double> values;
  std::vector<int64_t> prefix_cents;
  double equi_width_sse = 0.0;
  double opt = -1.0;  // exact DP, on demand
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t checked = 0;
  int64_t check_failures = 0;
};

class Checker {
 public:
  void Fail(const std::string& what) {
    ++failures_;
    if (examples_.size() < 8) examples_.push_back(what);
  }
  int64_t failures() const { return failures_; }
  std::string ExamplesJson() const {
    std::string out = "[";
    for (size_t i = 0; i < examples_.size(); ++i) {
      JsonObject o;
      o.Str("failure", examples_[i]);
      out += (i ? ", " : "") + o.Done();
    }
    return out + "]";
  }

 private:
  int64_t failures_ = 0;
  std::vector<std::string> examples_;
};

/// Fenwick tree over the cents domain, for ranks in a growing prefix.
class RankCounter {
 public:
  RankCounter() : tree_(kDomain + 1, 0) {}
  void Add(int64_t cents) {
    for (int64_t i = cents + 1; i <= kDomain; i += i & -i) ++tree_[i];
  }
  /// Number of added values with cents < c.
  int64_t Below(int64_t c) const {
    int64_t total = 0;
    for (int64_t i = std::clamp<int64_t>(c, 0, kDomain); i > 0; i -= i & -i) {
      total += tree_[i];
    }
    return total;
  }

 private:
  std::vector<int64_t> tree_;
};

/// Answers "values < c", "values <= c" and "distinct values" over the
/// first n values of each stream, offline: queries sorted by n, one sweep.
struct PrefixQuery {
  int64_t n = 0;
  int64_t below = 0;  // count values with cents < below
  int64_t* out_count = nullptr;
  int64_t* out_distinct = nullptr;
};

void AnswerPrefixQueries(const StreamModel& model,
                         std::vector<PrefixQuery>& queries) {
  std::sort(queries.begin(), queries.end(),
            [](const PrefixQuery& x, const PrefixQuery& y) { return x.n < y.n; });
  RankCounter ranks;
  std::vector<bool> seen(kDomain, false);
  int64_t distinct = 0;
  int64_t i = 0;
  for (PrefixQuery& q : queries) {
    for (; i < q.n && i < static_cast<int64_t>(model.cents.size()); ++i) {
      const int64_t c = model.cents[i];
      ranks.Add(c);
      if (!seen[c]) {
        seen[c] = true;
        ++distinct;
      }
    }
    if (q.out_count != nullptr) *q.out_count = ranks.Below(q.below);
    if (q.out_distinct != nullptr) *q.out_distinct = distinct;
  }
}

/// Re-derives every recorded answer from the values the generator sent.
void CheckRecords(Instance& inst,
                  std::map<std::string, Tally>& tallies, Checker& checker) {
  std::unordered_map<int64_t, WindowFacts> windows;
  auto facts = [&](int stream, int64_t n) -> WindowFacts& {
    WindowFacts& f = windows[(static_cast<int64_t>(stream) << 32) | n];
    if (f.values.empty()) {
      f.values = inst.streams[stream].Window(n, kWindow);
      f.prefix_cents.assign(1, 0);
      for (double v : f.values) {
        f.prefix_cents.push_back(f.prefix_cents.back() + ValueToCents(v));
      }
      f.equi_width_sse = EquiWidthSse(f.values, kBuckets);
    }
    return f;
  };
  const double eps = kEpsilon;
  int64_t dp_checks = 0;
  // Ranks and distinct counts are answered after the pass, in one sweep.
  struct Deferred {
    const OpRecord* op;
    int64_t less = 0, leq = 0, d_lo = 0, d_hi = 0;
  };
  std::deque<Deferred> deferred;
  std::vector<std::vector<PrefixQuery>> queries(inst.streams.size());

  for (auto& actor : inst.actors) {
    for (const OpRecord& op : actor->records) {
      Tally& t = tallies[VerbName(op.verb)];
      if (op.flags & kTimed) {
        ++t.attempted;
        if (!(op.flags & kOk)) ++t.failed;
      }
      if (!(op.flags & kOk)) continue;  // failed, not wrong: counted above
      ++t.checked;
      std::string why;
      if (!(op.flags & kParsed)) {
        why = "unparseable reply";
      } else if (op.verb == Verb::kCount) {
        why = CheckCount(op.n_lo, op.n_hi, op.v1);
      } else if (op.verb == Verb::kQuantile || op.verb == Verb::kDistinct) {
        Deferred& d = deferred.emplace_back();
        d.op = &op;
        auto& q = queries[op.stream];
        if (op.verb == Verb::kQuantile) {
          // less: values < answer in the n_lo prefix; leq: values <= answer
          // in the n_hi prefix.
          const int64_t c_lo = static_cast<int64_t>(std::ceil(op.v1 * 100 - 1e-7));
          const int64_t c_hi = static_cast<int64_t>(std::floor(op.v1 * 100 + 1e-7));
          q.push_back({op.n_lo, c_lo, &d.less, nullptr});
          q.push_back({op.n_hi, c_hi + 1, &d.leq, nullptr});
        } else {
          q.push_back({op.n_lo, 0, nullptr, &d.d_lo});
          q.push_back({op.n_hi, 0, nullptr, &d.d_hi});
        }
      } else if (!IsWrite(op.verb)) {
        WindowFacts& f = facts(op.stream, op.n_lo);
        const double cap = (1.0 + eps) * f.equi_width_sse;
        const auto range_sum = [&](int64_t lo, int64_t hi) {
          return static_cast<double>(f.prefix_cents[hi] - f.prefix_cents[lo]) / 100.0;
        };
        const double len = op.b - op.a;
        switch (op.verb) {
          case Verb::kSum:
            why = CheckRangeEstimate(range_sum(op.a, op.b), op.v1, len, cap);
            break;
          case Verb::kAvg:
            why = CheckRangeEstimate(range_sum(op.a, op.b), op.v1 * len, len, cap);
            break;
          case Verb::kPoint:
            why = CheckRangeEstimate(f.values[op.a], op.v1, 1.0, cap);
            break;
          case Verb::kSumBound:
            why = CheckBounded(range_sum(op.a, op.b), op.v1, op.v2);
            break;
          case Verb::kError:
            if (f.opt < 0.0 && dp_checks < kErrorDpChecks) {
              ++dp_checks;
              f.opt = ExactVoptSse(f.values, kBuckets);
            }
            why = f.opt >= 0.0 ? CheckErrorBound(f.opt, eps, op.v1)
                               : (op.v1 <= cap * (1 + 1e-9) + 1e-6
                                      ? ""
                                      : "ERROR above (1+eps) equi-width SSE");
            break;
          default:
            break;
        }
      }
      if (!why.empty()) {
        ++t.check_failures;
        checker.Fail(std::string(VerbName(op.verb)) + " on " +
                     inst.streams[op.stream].name + ": " + why);
      }
    }
  }
  for (size_t s = 0; s < queries.size(); ++s) {
    AnswerPrefixQueries(inst.streams[s], queries[s]);
  }
  const double distinct_tol = DistinctTolerance(kFmBitmaps);
  for (const Deferred& d : deferred) {
    const OpRecord& op = *d.op;
    const std::string why =
        op.verb == Verb::kQuantile
            ? CheckQuantile(op.n_lo, op.n_hi, d.less, d.leq, op.a / 100.0,
                            kQuantileEpsilon)
            : CheckDistinct(d.d_lo, d.d_hi, op.v1, distinct_tol);
    if (!why.empty()) {
      ++tallies[VerbName(op.verb)].check_failures;
      checker.Fail(std::string(VerbName(op.verb)) + " on " +
                   inst.streams[op.stream].name + ": " + why);
    }
  }
}

/// SHOW + ERROR on every stream, checked against the exact DP; returns the
/// served-SSE / OPT ratios.
std::vector<double> ProbeWindows(const WorkloadSpec& spec, Instance& inst,
                                 Checker& checker, std::string* error) {
  std::vector<double> ratios;
  Reply show, err;
  for (auto& actor : inst.actors) {
    if (!actor->writer && spec.streams_per_reader == 0) continue;
    for (int s : actor->streams) {
      StreamModel& model = inst.streams[s];
      if (!CallOk(actor->conn, "SHOW " + model.name + "\n", &show, error) ||
          !CallOk(actor->conn, "ERROR " + model.name + "\n", &err, error)) {
        return ratios;
      }
      const std::vector<double> window =
          model.Window(model.acked.load(), kWindow);
      const double opt = ExactVoptSse(window, kBuckets);
      std::vector<ShownBucket> buckets;
      double bound = 0.0, sse = 0.0;
      std::string why;
      if (!ParseShow(show.payload, static_cast<int64_t>(window.size()), &buckets) ||
          !ParseNumber(err.payload, &bound)) {
        why = "unparseable SHOW/ERROR reply";
      } else {
        why = CheckShow(window, buckets, bound, opt, kEpsilon, &sse);
        if (why.empty()) why = CheckErrorBound(opt, kEpsilon, bound);
      }
      if (!why.empty()) {
        checker.Fail("SHOW on " + model.name + ": " + why);
      } else {
        ratios.push_back(sse / opt);
      }
    }
  }
  return ratios;
}

/// The timed region is cut into slices of kSliceS, and every time metric is
/// the median of its per-slice values. On a shared host, interference (CPU
/// time stolen by the hypervisor, a busy neighbour on the same physical
/// core) comes in bursts of seconds; a burst moves the slices it covers,
/// not the median, as long as it covers fewer than half of them. (The
/// better quartile of the slices spread wider over ten runs than the
/// median did.) Every slice holds every kind of operation its workload
/// times (read_after_write completes ~150 reads a second).
constexpr double kSliceS = 1.0;
constexpr int64_t kSliceNs = 1000000000;

struct Slice {
  std::vector<double> read_us;
  std::vector<double> write_us;
  double values = 0.0;  // values acknowledged
  int64_t ops = 0;      // operations completed
  double cpu_us = 0.0;  // server CPU time
  double steal = 0.0;   // share of all CPUs' time stolen by the hypervisor
};

template <typename Fn>
double SliceMedian(const std::vector<Slice>& slices, Fn per_slice) {
  std::vector<double> values;
  for (const Slice& s : slices) {
    const double v = per_slice(s);
    if (!std::isnan(v)) values.push_back(v);
  }
  return Median(std::move(values));
}

/// (stolen, total) jiffies over all CPUs, from the first line of /proc/stat.
std::pair<int64_t, int64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0, stolen = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) stolen = v;
  }
  return {stolen, total};
}

/// Sleeps through `n` slices from `t0`, recording in each the server CPU
/// time spent and the share of the host's CPU time the hypervisor stole.
void SampleSlices(const ServerProcess& server, int64_t t0, std::vector<Slice>& slices) {
  double last = server.CpuMicros();
  auto ticks = CpuTicks();
  for (size_t i = 0; i < slices.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<int64_t>(0, t0 + static_cast<int64_t>(i + 1) * kSliceNs - NowNs())));
    const double now = server.CpuMicros();
    const auto t = CpuTicks();
    slices[i].cpu_us = now - last;
    slices[i].steal = t.second > ticks.second
                          ? static_cast<double>(t.first - ticks.first) /
                                static_cast<double>(t.second - ticks.second)
                          : 0.0;
    last = now;
    ticks = t;
  }
}

std::string TalliesJson(const std::map<std::string, Tally>& tallies) {
  JsonObject o;
  for (const auto& [verb, t] : tallies) {
    JsonObject v;
    v.Int("attempted", t.attempted);
    v.Int("failed", t.failed);
    v.Int("checked", t.checked);
    v.Int("check_failures", t.check_failures);
    o.Raw(verb, v.Done());
  }
  return o.Done();
}

}  // namespace

Outcome RunEndToEnd(const WorkloadSpec& spec, const RunConfig& config) {
  Outcome out;
  const bool split = SplitCpus();
  std::string error;
  std::vector<double> setup_times, start_times;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < kSetupsBefore; ++k) {
    if (inst != nullptr) inst->server->Stop();
    inst = std::make_unique<Instance>();
    if (!SetUp(spec, config, k, inst.get(), &error)) {
      out.error = error;
      return out;
    }
    setup_times.push_back(inst->setup_s);
    start_times.push_back(inst->start_s);
  }
  Checker checker;
  const std::vector<double> ratios = ProbeWindows(spec, *inst, checker, &error);
  if (!error.empty()) {
    out.error = error;
    return out;
  }

  // Warm-up, then the timed region: one generator thread drives every
  // connection, so generator plus server threads stay within 4 cores. The
  // server's CPU time is sampled at every slice boundary.
  Shared shared;
  std::vector<Actor*> actors;
  for (auto& actor : inst->actors) actors.push_back(actor.get());
  std::thread generator(Drive, std::cref(spec), std::ref(inst->streams),
                        actors, std::ref(shared));
  const double warmup_s = std::min(2.0, std::max(0.5, config.seconds / 10.0));
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const int64_t read_slices =
      std::max<int64_t>(2, static_cast<int64_t>(config.seconds / kSliceS));
  const int64_t t0 = NowNs();
  shared.timed_start.store(t0);
  std::vector<Slice> slices(read_slices), write_phase;
  SampleSlices(*inst->server, t0, slices);
  shared.stop.store(true);
  generator.join();
  const int64_t t_end = t0 + read_slices * kSliceNs;
  const double peak_mib = static_cast<double>(inst->server->PeakRssKib()) / 1024.0;

  // read_only: its writes, timed on the warm server after the reads.
  int64_t write_t0 = t0;
  int64_t write_slices = read_slices;
  if (spec.write_phase_after_reads) {
    Shared writes;
    writes.write_phase = true;
    write_slices = std::max<int64_t>(4, read_slices / 5);
    write_t0 = NowNs();
    writes.timed_start.store(write_t0);
    std::thread writer(Drive, std::cref(spec), std::ref(inst->streams), actors,
                       std::ref(writes));
    std::this_thread::sleep_for(std::chrono::nanoseconds(write_slices * kSliceNs));
    writes.stop.store(true);
    writer.join();
  }

  // Restart on the log: every acknowledged value must come back.
  JsonObject restart;
  if (spec.wal) {
    const bool clean = inst->server->Stop();
    const int64_t r0 = NowNs();
    ServerProcess again;
    ServerProcess::Options options;
    options.tool = config.tool;
    options.workdir = inst->dir;
    options.threads = spec.server_threads;
    options.wal_dir = inst->wal_dir;
    Connection conn;
    Reply reply;
    if (!again.Start(options, &error) || !conn.Connect(again.port(), &error)) {
      out.error = "restart: " + error;
      return out;
    }
    int64_t mismatched = 0;
    for (const StreamModel& model : inst->streams) {
      double count = -1;
      if (!conn.Call("COUNT " + model.name + "\n", &reply) || !reply.ok ||
          !ParseNumber(reply.payload, &count) ||
          count != static_cast<double>(model.acked.load())) {
        ++mismatched;
        checker.Fail("restart: COUNT " + model.name + " = " + reply.payload +
                     ", acknowledged " + std::to_string(model.acked.load()));
      }
    }
    restart.Bool("clean_shutdown", clean);
    restart.Num("restart_s", static_cast<double>(NowNs() - r0) / 1e9);
    restart.Int("streams_mismatched", mismatched);
    if (!clean) checker.Fail("server did not shut down cleanly");
    again.Stop();
  }
  inst->server->Stop();
  for (int k = 0; k < kSetupsAfter; ++k) {
    Instance again;
    if (!SetUp(spec, config, kSetupsBefore + k, &again, &error)) {
      out.error = error;
      return out;
    }
    again.server->Stop();
    setup_times.push_back(again.setup_s);
    start_times.push_back(again.start_s);
  }

  std::map<std::string, Tally> tallies;
  CheckRecords(*inst, tallies, checker);

  // Each operation counts in the slice in which its reply arrived.
  write_phase.resize(write_slices);
  auto slice_of = [](std::vector<Slice>& v, int64_t from, int64_t at) -> Slice* {
    const int64_t i = (at - from) / kSliceNs;
    return i >= 0 && i < static_cast<int64_t>(v.size()) ? &v[i] : nullptr;
  };
  std::vector<double> read_us, write_us;
  for (auto& actor : inst->actors) {
    if (actor->dead) checker.Fail("a client connection died");
    for (const OpRecord& op : actor->records) {
      if (!(op.flags & kTimed)) continue;
      ++out.attempted;
      if (!(op.flags & kOk)) {
        ++out.failed;
        continue;
      }
      const double us = static_cast<double>(op.latency_ns) / 1e3;
      if (Slice* s = slice_of(slices, t0, op.done_ns)) ++s->ops;
      if (IsWrite(op.verb)) {
        write_us.push_back(us);
        Slice* s = spec.write_phase_after_reads
                       ? slice_of(write_phase, write_t0, op.done_ns)
                       : slice_of(slices, t0, op.done_ns);
        if (s != nullptr) {
          s->write_us.push_back(us);
          s->values += static_cast<double>(spec.write_values);
        }
      } else {
        read_us.push_back(us);
        if (Slice* s = slice_of(slices, t0, op.done_ns)) s->read_us.push_back(us);
      }
    }
  }
  const std::vector<Slice>& writes =
      spec.write_phase_after_reads ? write_phase : slices;
  double ratio_sum = 0.0;
  for (double r : ratios) ratio_sum += r;
  out.metrics = {
      {"setup_s", Median(setup_times)},
      {"read_ops_s", SliceMedian(slices, [](const Slice& s) {
         return static_cast<double>(s.read_us.size()) / kSliceS;
       })},
      {"read_p50_us", SliceMedian(slices, [](const Slice& s) {
         return Quantile(s.read_us, 0.5);
       })},
      {"write_ack_p50_us", SliceMedian(writes, [](const Slice& s) {
         return Quantile(s.write_us, 0.5);
       })},
      {"ingest_values_s", SliceMedian(writes, [](const Slice& s) {
         return s.values / kSliceS;
       })},
      {"peak_rss_mb", peak_mib},
      {"server_cpu_us_per_op", SliceMedian(slices, [](const Slice& s) {
         return s.ops > 0 ? s.cpu_us / static_cast<double>(s.ops) : std::nan("");
       })},
      {"window_sse_ratio", ratios.empty() ? std::nan("") : ratio_sum / ratios.size()},
  };
  out.correct = checker.failures() == 0;

  JsonObject d;
  d.Num("timed_s", static_cast<double>(t_end - t0) / 1e9);
  d.Num("warmup_s", warmup_s);
  d.Num("slice_s", kSliceS);
  d.Int("read_slices", read_slices);
  d.Int("write_slices", write_slices);
  d.Str("writes_timed_in", spec.write_phase_after_reads ? "a phase after the reads"
                                                        : "the timed region");
  // Whole-region figures, for comparison with the slice quartiles above.
  JsonObject whole;
  whole.Num("read_ops_s", static_cast<double>(read_us.size()) * 1e9 /
                              static_cast<double>(t_end - t0));
  whole.Num("read_p50_us", Quantile(read_us, 0.5));
  whole.Num("write_ack_p50_us", Quantile(write_us, 0.5));
  double cpu_total = 0.0;
  int64_t ops_total = 0;
  for (const Slice& s : slices) {
    cpu_total += s.cpu_us;
    ops_total += s.ops;
  }
  whole.Num("server_cpu_us_per_op",
            cpu_total / static_cast<double>(std::max<int64_t>(1, ops_total)));
  d.Raw("whole_region", whole.Done());
  std::string per_slice = "[";
  for (const Slice& x : slices) {
    JsonObject o;
    o.Int("reads", static_cast<int64_t>(x.read_us.size()));
    o.Num("read_p50_us", Quantile(x.read_us, 0.5));
    o.Int("writes", static_cast<int64_t>(x.write_us.size()));
    o.Num("write_p50_us", Quantile(x.write_us, 0.5));
    o.Num("cpu_us", x.cpu_us);
    o.Int("ops", x.ops);
    o.Num("steal", x.steal);
    per_slice += (per_slice.size() > 1 ? ", " : "") + o.Done();
  }
  d.Raw("slices", per_slice + "]");
  d.Int("reads_timed", static_cast<int64_t>(read_us.size()));
  d.Int("writes_timed", static_cast<int64_t>(write_us.size()));
  // The tail, p90 and beyond, is kept here, not among the metrics: on a
  // shared virtual machine it follows the share of CPU time the hypervisor
  // steals and the host's load, not the program.
  JsonObject tail;
  for (double q : {0.9, 0.95, 0.98, 0.99, 0.995, 1.0}) {
    tail.Num("read_p" + FormatDouble(q * 100), Quantile(read_us, q));
    tail.Num("write_p" + FormatDouble(q * 100), Quantile(write_us, q));
  }
  d.Raw("tail_us", tail.Done());
  std::string setups = "[";
  for (size_t i = 0; i < setup_times.size(); ++i) {
    setups += (i ? ", " : "") + FormatDouble(setup_times[i]);
  }
  d.Raw("setup_s_each", setups + "]");
  d.Num("setup_server_start_s", Median(start_times));
  d.Int("window_probes", static_cast<int64_t>(ratios.size()));
  d.Num("server_cpu_us", cpu_total);
  d.Int("server_threads", spec.server_threads);
  d.Int("generator_threads", 1);
  d.Bool("generator_and_server_on_separate_cpus", split);
  d.Int("connections", spec.writer_conns + spec.reader_conns);
  d.Raw("ops", TalliesJson(tallies));
  if (spec.wal) d.Raw("restart", restart.Done());
  d.Int("check_failures", checker.failures());
  d.Raw("check_failure_examples", checker.ExamplesJson());
  out.details = d.Done();
  return out;
}

}  // namespace perfbench
