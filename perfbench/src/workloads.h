#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "client.h"
#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string tool;     // streamhist_tool
  std::string workdir;  // scratch space of this run (logs, WAL)
  uint64_t seed = 1;
  double seconds = 10.0;
};

/// What one run prints: the summary fields, the metrics by name, and a
/// JSON object of details (per-verb tallies, sample counts, server facts).
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::string details = "{}";
  std::string error;  // set when the run could not complete at all
};

/// One stream as the generator sees it: the values sent so far, in order.
/// The owner (single writer) appends; `sent`/`acked` are published for
/// readers on other threads.
struct StreamModel {
  StreamModel(std::string stream_name, uint64_t seed)
      : name(std::move(stream_name)), gen(seed) {}
  /// Draws k more values (recorded in `cents`) and returns them.
  std::vector<double> Next(int64_t k);
  /// The last `w` values among the first `n` sent (fewer when n < w).
  std::vector<double> Window(int64_t n, int64_t w) const;

  std::string name;
  SignalGen gen;
  std::vector<int16_t> cents;
  std::atomic<int64_t> sent{0};
  std::atomic<int64_t> acked{0};
};

/// The streams of a workload instance, named s0..s{k-1}, seeded from the
/// workload seed.
std::deque<StreamModel> MakeStreams(const WorkloadSpec& spec, uint64_t seed);
int StreamCount(const WorkloadSpec& spec);

/// A read statement (with trailing newline) on `stream`, its arguments
/// drawn from `rng`; `a`/`b` receive the range, point index or phi*100.
std::string ReadStatement(Verb verb, const std::string& stream, Rng& rng,
                          int16_t* a, int16_t* b);
/// "APPEND <stream> v1 v2 ...\n".
std::string AppendStatement(const std::string& stream,
                            const std::vector<double>& values);
/// "CREATE <stream> <window> <buckets>\n".
std::string CreateStatement(const std::string& stream);

/// Runs one workload end to end over TCP: set-up (repeated, median
/// reported), warm-up, the timed closed loop, the reference checks, and for
/// durable_mixed the restart check.
Outcome RunEndToEnd(const WorkloadSpec& spec, const RunConfig& config);

/// The traced run: the workload's operations replayed one layer down at a
/// time, in process (layers.cc).
Outcome RunTraced(const WorkloadSpec& spec, const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
