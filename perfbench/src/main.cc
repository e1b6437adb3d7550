// perfbench_harness: one benchmark run against streamhist_tool.
//
//   perfbench_harness --tool PATH --workdir DIR --workload NAME --seed N
//                    --seconds S --trace 0|1
//
// Prints one JSON object: {"correct", "attempted", "failed", "metrics":
// {name: value}, "details": {...}}. perfbench/run.py builds this binary,
// runs it and turns its output into the benchmark's result line.

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "reference.h"
#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --tool PATH --workdir DIR --workload "
               "NAME --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"tool", "workdir", "workload", "seed", "seconds", "trace"}) {
    if (!flags.contains(required)) return Usage(std::string("missing --") + required);
  }
  const WorkloadSpec* spec = FindWorkload(flags["workload"]);
  if (spec == nullptr) return Usage("unknown workload " + flags["workload"]);
  RunConfig config;
  config.tool = flags["tool"];
  config.workdir = flags["workdir"];
  config.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(flags["seconds"].c_str());
  if (config.seconds <= 0) return Usage("--seconds must be positive");

  // The reference and the checks are themselves checked on every run: the
  // DP against brute force, and each check against a corrupted answer.
  std::string why;
  if (!SelfTestReference(&why)) {
    std::cerr << "reference self-test failed: " << why << "\n";
    return 3;
  }
  for (const std::string& check : MisjudgedChecks()) {
    std::cerr << "check misjudged a planted answer: " << check << "\n";
    return 3;
  }

  const Outcome out = flags["trace"] == "1" ? RunTraced(*spec, config)
                                            : RunEndToEnd(*spec, config);
  if (!out.error.empty()) {
    std::cerr << "perfbench_harness: " << out.error << "\n";
    return 1;
  }
  JsonObject metrics;
  for (const auto& [name, value] : out.metrics) metrics.Num(name, value);
  JsonObject result;
  result.Bool("correct", out.correct);
  result.Int("attempted", out.attempted);
  result.Int("failed", out.failed);
  result.Raw("metrics", metrics.Done());
  result.Raw("details", out.details);
  std::cout << result.Done() << std::endl;
  return 0;
}
