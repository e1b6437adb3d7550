#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: a small, fully specified generator, so a seed gives the same
/// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Seed of an independent sub-stream (stream i of workload seed s, ...).
inline uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  Rng r(seed * 0x100000001B3ULL ^ (a + 1) * 0x9E3779B97F4A7C15ULL ^
        (b + 7) * 0xC2B2AE3D27D4EB4FULL);
  return r.Next();
}

/// The value domain: whole cents in [0, kDomain) / 100, so every value has
/// an exact short decimal form and the checks can count ranks and distinct
/// values over a small integer domain.
inline constexpr int64_t kDomain = 10000;
inline double CentsToValue(int64_t cents) {
  return static_cast<double>(cents) / 100.0;
}
inline int64_t ValueToCents(double v) { return std::llround(v * 100.0); }

/// A utilization-like signal: levels held for 60..180 points, plus uniform
/// noise of +-2.50. Levels and segment lengths come from the stream's seed;
/// the noise width is fixed, because it sets how many intervals the window
/// histogram keeps, and so the rebuild cost, and a seed should change the
/// values without changing that cost much.
class SignalGen {
 public:
  explicit SignalGen(uint64_t seed) : rng_(seed) {}
  int64_t NextCents() {
    if (left_ <= 0) {
      left_ = rng_.Between(60, 180);
      level_ = rng_.Between(1000, 9000);
    }
    --left_;
    const int64_t v = level_ + rng_.Between(-kNoise, kNoise);
    return std::clamp<int64_t>(v, 0, kDomain - 1);
  }

 private:
  static constexpr int64_t kNoise = 250;
  Rng rng_;
  int64_t left_ = 0;
  int64_t level_ = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; NaN
/// for an empty one.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Shortest decimal form that parses back to the same double.
std::string FormatDouble(double v);

/// Minimal JSON object writer (flat keys, numbers/strings/raw values).
class JsonObject {
 public:
  void Num(std::string_view key, double v) { Raw(key, FormatDouble(v)); }
  void Int(std::string_view key, int64_t v) { Raw(key, std::to_string(v)); }
  void Bool(std::string_view key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(std::string_view key, std::string_view v);
  void Raw(std::string_view key, std::string_view json);
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The verbs a workload's clients send.
enum class Verb : uint8_t {
  kSum, kAvg, kPoint, kSumBound, kError, kQuantile, kDistinct, kCount,
  kAppend, kBatchAppend,
};
const char* VerbName(Verb v);
inline bool IsWrite(Verb v) {
  return v == Verb::kAppend || v == Verb::kBatchAppend;
}

/// Every workload's streams are CREATEd as `CREATE <name> kWindow kBuckets`;
/// the server's defaults supply the rest (fm_sketch: 256 bitmaps).
inline constexpr int64_t kWindow = 1024;
inline constexpr int64_t kBuckets = 16;
inline constexpr double kEpsilon = 0.1;           // the CREATE default
inline constexpr double kQuantileEpsilon = 0.01;  // the CREATE default
inline constexpr int64_t kFmBitmaps = 256;

/// One workload's fixed shape: everything but the seed and the run length.
struct WorkloadSpec {
  std::string name;
  int server_threads = 2;      // serve --threads; plus the one generator
                               // thread, within 4 cores
  int writer_conns = 0;        // connections that write (own their streams)
  int reader_conns = 0;        // connections that only read
  int streams_per_writer = 0;  // streams each writer connection owns
  int streams_per_reader = 0;  // streams each reader owns; 0: it reads
                               // every writer's streams
  int64_t fill_values = 1536;  // per stream, at set-up
  int64_t fill_batch = 16;     // values per set-up APPEND
  bool fill_binary = false;    // set-up through batch frames
  int64_t write_values = 0;    // values per timed write
  bool write_binary = false;   // timed writes as batch frames
  bool read_after_each_write = false;  // read_after_write's alternation
  /// read_only: no writes among the timed reads; the write metrics come
  /// from a write phase on the warm server after them.
  bool write_phase_after_reads = false;
  bool wal = false;            // serve with --wal-policy always
  bool materialize = false;    // read each window once during set-up
  std::vector<Verb> reads;     // the read mix, cycled in order
};

const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
