#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// --- Reference computations, independent of the program under test ---

/// Optimal B-bucket SSE of `x` (V-optimal histogram, bucket value = mean):
/// the textbook O(n^2 B) dynamic program over prefix sums.
double ExactVoptSse(std::span<const double> x, int64_t buckets);

/// The same optimum by enumerating every partition into at most `buckets`
/// contiguous buckets; exponential, for tiny inputs only.
double BruteForceVoptSse(std::span<const double> x, int64_t buckets);

/// SSE of `x` against the partition whose buckets start at `starts`
/// (ascending, starts[0] == 0), each bucket represented by its exact mean.
double PartitionSse(std::span<const double> x, std::span<const int64_t> starts);

/// SSE of the equi-width B-bucket partition: a cheap upper bound on OPT.
double EquiWidthSse(std::span<const double> x, int64_t buckets);

/// Checks ExactVoptSse against BruteForceVoptSse on random tiny inputs;
/// false (with the first mismatch in `why`) if they disagree.
bool SelfTestReference(std::string* why);

/// --- Reply parsing ---

/// Whole-string decimal number; false on anything else.
bool ParseNumber(std::string_view s, double* out);
/// "<estimate> +- <bound>" (SUMBOUND / AVGBOUND replies).
bool ParseBounded(std::string_view s, double* estimate, double* bound);
/// One served bucket of a SHOW reply.
struct ShownBucket {
  int64_t begin = 0;
  int64_t end = 0;
  double value = 0.0;
};
/// "[b,e)=v [b,e)=v ..." covering [0, n) contiguously; false otherwise.
bool ParseShow(std::string_view s, int64_t n, std::vector<ShownBucket>* out);

/// --- Checks of one answer against the reference; each returns an empty
/// string when the answer passes, else why it fails ---

/// A range estimate from a histogram whose buckets are exact means and whose
/// total SSE is at most `sse_cap`: by Cauchy-Schwarz the error over `len`
/// points is at most sqrt(len * sse_cap).
std::string CheckRangeEstimate(double exact, double estimate, double len,
                               double sse_cap);
/// SUMBOUND: |exact - estimate| <= bound.
std::string CheckBounded(double exact, double estimate, double bound);
/// COUNT: in [lo, hi] (lo == hi when no write is in flight).
std::string CheckCount(int64_t lo, int64_t hi, double got);
/// QUANTILE phi with rank slack eps*N, for N somewhere in [n_lo, n_hi]:
/// `less` counts values < answer in the n_lo prefix, `leq` values <= answer
/// in the n_hi prefix (ranks only grow with N, so this is sound).
std::string CheckQuantile(int64_t n_lo, int64_t n_hi, int64_t less,
                          int64_t leq, double phi, double eps);
/// DISTINCT within `rel_tol` of the exact distinct count, which lies in
/// [d_lo, d_hi] for the prefix the read saw.
std::string CheckDistinct(int64_t d_lo, int64_t d_hi, double estimate,
                          double rel_tol);
/// ERROR (the certified HERROR bound): OPT <= reported <= (1+eps) OPT.
std::string CheckErrorBound(double opt, double eps, double reported);
/// SHOW: buckets cover the window, values are the exact bucket means, the
/// served SSE is at most the ERROR bound and at most (1+eps) OPT. `sse`
/// receives the served SSE.
std::string CheckShow(std::span<const double> window,
                      std::span<const ShownBucket> buckets, double error_bound,
                      double opt, double eps, double* sse);

/// The distinct-count tolerance checked: four standard errors of PCSA with
/// `bitmaps` bitmaps (standard error 0.78 / sqrt(m), fm_sketch.h).
double DistinctTolerance(int64_t bitmaps);

/// Feeds each check above one correct and one deliberately corrupted
/// answer; returns the names of checks that rejected the correct one or
/// accepted the corrupted one (empty: every check judged both right).
std::vector<std::string> MisjudgedChecks();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
