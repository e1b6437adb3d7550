#include "reference.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "common.h"

namespace perfbench {
namespace {

// Relative slack for values that crossed the wire as 12-significant-digit
// text, plus an absolute floor for answers near zero.
constexpr double kRel = 1e-9;
constexpr double kAbs = 1e-6;

bool Within(double value, double cap) {
  return value <= cap * (1.0 + kRel) + kAbs;
}

std::string Fmt(const char* what, double a, double b) {
  std::ostringstream os;
  os.precision(12);
  os << what << ": " << a << " vs " << b;
  return os.str();
}

void BruteForce(std::span<const double> x, int64_t from, int64_t left,
                std::vector<int64_t>* starts, double* best) {
  const int64_t n = static_cast<int64_t>(x.size());
  if (from == n) {
    *best = std::min(*best, PartitionSse(x, *starts));
    return;
  }
  if (left == 0) return;
  for (int64_t end = from + 1; end <= n; ++end) {
    starts->push_back(from);  // the bucket [from, end)
    BruteForce(x, end, left - 1, starts, best);
    starts->pop_back();
  }
}

}  // namespace

double ExactVoptSse(std::span<const double> x, int64_t buckets) {
  const int64_t n = static_cast<int64_t>(x.size());
  if (n == 0) return 0.0;
  const int64_t b_max = std::min(buckets, n);
  // Centre the values so the prefix sums of squares stay small.
  long double mean = 0.0L;
  for (double v : x) mean += v;
  mean /= static_cast<long double>(n);
  std::vector<double> s(n + 1, 0.0), q(n + 1, 0.0);
  long double acc = 0.0L, acc_sq = 0.0L;
  for (int64_t i = 0; i < n; ++i) {
    const long double c = x[i] - mean;
    acc += c;
    acc_sq += c * c;
    s[i + 1] = static_cast<double>(acc);
    q[i + 1] = static_cast<double>(acc_sq);
  }
  auto cost = [&](int64_t i, int64_t j) {
    const double d = s[j] - s[i];
    return std::max(0.0, q[j] - q[i] - d * d / static_cast<double>(j - i));
  };
  std::vector<double> prev(n + 1), cur(n + 1);
  for (int64_t j = 1; j <= n; ++j) prev[j] = cost(0, j);
  for (int64_t k = 2; k <= b_max; ++k) {
    for (int64_t j = 1; j <= n; ++j) {
      double best = prev[j];  // at most k buckets: k-1 is allowed too
      for (int64_t i = k - 1; i < j; ++i) {
        best = std::min(best, prev[i] + cost(i, j));
      }
      cur[j] = best;
    }
    std::swap(prev, cur);
  }
  return prev[n];
}

double BruteForceVoptSse(std::span<const double> x, int64_t buckets) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int64_t> starts;
  BruteForce(x, 0, buckets, &starts, &best);
  return x.empty() ? 0.0 : best;
}

double PartitionSse(std::span<const double> x,
                    std::span<const int64_t> starts) {
  long double total = 0.0L;
  const int64_t n = static_cast<int64_t>(x.size());
  for (size_t b = 0; b < starts.size(); ++b) {
    const int64_t lo = starts[b];
    const int64_t hi = b + 1 < starts.size() ? starts[b + 1] : n;
    long double mean = 0.0L;
    for (int64_t i = lo; i < hi; ++i) mean += x[i];
    mean /= static_cast<long double>(hi - lo);
    for (int64_t i = lo; i < hi; ++i) total += (x[i] - mean) * (x[i] - mean);
  }
  return static_cast<double>(total);
}

double EquiWidthSse(std::span<const double> x, int64_t buckets) {
  const int64_t n = static_cast<int64_t>(x.size());
  const int64_t width = std::max<int64_t>(1, (n + buckets - 1) / buckets);
  std::vector<int64_t> starts;
  for (int64_t i = 0; i < n; i += width) starts.push_back(i);
  return PartitionSse(x, starts);
}

bool SelfTestReference(std::string* why) {
  Rng rng(20020226);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t n = rng.Between(1, 9);
    const int64_t b = rng.Between(1, 4);
    std::vector<double> x(n);
    for (double& v : x) v = CentsToValue(rng.Between(0, 2000));
    const double dp = ExactVoptSse(x, b);
    const double brute = BruteForceVoptSse(x, b);
    if (std::abs(dp - brute) > 1e-7 * (1.0 + brute)) {
      *why = Fmt("exact DP disagrees with brute force", dp, brute);
      return false;
    }
  }
  return true;
}

bool ParseNumber(std::string_view s, double* out) {
  if (s.empty()) return false;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

bool ParseBounded(std::string_view s, double* estimate, double* bound) {
  const size_t sep = s.find(" +- ");
  if (sep == std::string_view::npos) return false;
  return ParseNumber(s.substr(0, sep), estimate) &&
         ParseNumber(s.substr(sep + 4), bound) && *bound >= 0.0;
}

bool ParseShow(std::string_view s, int64_t n, std::vector<ShownBucket>* out) {
  out->clear();
  int64_t next = 0;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t end = std::min(s.find(' ', pos), s.size());
    const std::string_view tok = s.substr(pos, end - pos);
    pos = end + 1;
    const size_t comma = tok.find(',');
    const size_t close = tok.find(")=");
    if (tok.empty() || tok[0] != '[' || comma == std::string_view::npos ||
        close == std::string_view::npos || close < comma) {
      return false;
    }
    ShownBucket b;
    double begin = 0, stop = 0;
    if (!ParseNumber(tok.substr(1, comma - 1), &begin) ||
        !ParseNumber(tok.substr(comma + 1, close - comma - 1), &stop) ||
        !ParseNumber(tok.substr(close + 2), &b.value)) {
      return false;
    }
    b.begin = static_cast<int64_t>(begin);
    b.end = static_cast<int64_t>(stop);
    if (b.begin != next || b.end <= b.begin) return false;
    next = b.end;
    out->push_back(b);
  }
  return next == n && !out->empty();
}

std::string CheckRangeEstimate(double exact, double estimate, double len,
                               double sse_cap) {
  const double err = std::abs(exact - estimate);
  const double cap = std::sqrt(len * sse_cap) + kRel * std::abs(exact);
  return Within(err, cap) ? "" : Fmt("range estimate error over cap", err, cap);
}

std::string CheckBounded(double exact, double estimate, double bound) {
  const double err = std::abs(exact - estimate);
  return Within(err, bound + kRel * std::abs(exact))
             ? ""
             : Fmt("error outside certified bound", err, bound);
}

std::string CheckCount(int64_t lo, int64_t hi, double got) {
  if (got >= static_cast<double>(lo) && got <= static_cast<double>(hi) &&
      got == std::floor(got)) {
    return "";
  }
  return Fmt("count outside [acked, sent]", got, static_cast<double>(lo));
}

std::string CheckQuantile(int64_t n_lo, int64_t n_hi, int64_t less,
                          int64_t leq, double phi, double eps) {
  // The answer holds ranks (less, leq]; GKSummary promises one of them
  // within eps*N of ceil(phi*N).
  const double lo_target = std::ceil(phi * static_cast<double>(n_lo)) -
                           eps * static_cast<double>(n_lo) - 1.0;
  const double hi_target = std::ceil(phi * static_cast<double>(n_hi)) +
                           eps * static_cast<double>(n_hi) + 1.0;
  if (static_cast<double>(leq) >= lo_target &&
      static_cast<double>(less) + 1.0 <= hi_target) {
    return "";
  }
  return Fmt("quantile rank outside eps*N", static_cast<double>(less),
             phi * static_cast<double>(n_hi));
}

std::string CheckDistinct(int64_t d_lo, int64_t d_hi, double estimate,
                          double rel_tol) {
  if (estimate >= static_cast<double>(d_lo) * (1.0 - rel_tol) &&
      estimate <= static_cast<double>(d_hi) * (1.0 + rel_tol)) {
    return "";
  }
  return Fmt("distinct estimate off", estimate, static_cast<double>(d_hi));
}

std::string CheckErrorBound(double opt, double eps, double reported) {
  if (!Within(opt, reported)) return Fmt("ERROR below OPT", reported, opt);
  if (!Within(reported, (1.0 + eps) * opt)) {
    return Fmt("ERROR above (1+eps) OPT", reported, opt);
  }
  return "";
}

std::string CheckShow(std::span<const double> window,
                      std::span<const ShownBucket> buckets, double error_bound,
                      double opt, double eps, double* sse) {
  std::vector<int64_t> starts;
  for (const ShownBucket& b : buckets) {
    long double mean = 0.0L;
    for (int64_t i = b.begin; i < b.end; ++i) mean += window[i];
    mean /= static_cast<long double>(b.end - b.begin);
    // SHOW prints six significant digits.
    const double m = static_cast<double>(mean);
    if (std::abs(b.value - m) > 1e-5 * std::max(1.0, std::abs(m))) {
      return Fmt("bucket value is not its mean", b.value, m);
    }
    starts.push_back(b.begin);
  }
  *sse = PartitionSse(window, starts);
  if (!Within(*sse, error_bound)) {
    return Fmt("served SSE over the ERROR bound", *sse, error_bound);
  }
  if (!Within(*sse, (1.0 + eps) * opt)) {
    return Fmt("served SSE over (1+eps) OPT", *sse, opt);
  }
  return "";
}

double DistinctTolerance(int64_t bitmaps) {
  return 4.0 * 0.78 / std::sqrt(static_cast<double>(bitmaps));
}

std::vector<std::string> MisjudgedChecks() {
  std::vector<std::string> wrong;
  auto expect = [&](const char* name, const std::string& good,
                    const std::string& bad) {
    if (!good.empty() || bad.empty()) wrong.push_back(name);
  };
  // A small window with two levels; its 2-bucket optimum is the split.
  std::vector<double> window;
  for (int i = 0; i < 32; ++i) window.push_back(10.0 + (i % 3) * 0.5);
  for (int i = 0; i < 32; ++i) window.push_back(50.0 + (i % 2) * 0.25);
  const double opt = ExactVoptSse(window, 2);
  std::vector<ShownBucket> shown = {{0, 32, 0.0}, {32, 64, 0.0}};
  for (ShownBucket& b : shown) {
    double s = 0.0;
    for (int64_t i = b.begin; i < b.end; ++i) s += window[i];
    b.value = s / static_cast<double>(b.end - b.begin);
  }
  double exact_sum = 0.0;
  for (int i = 20; i < 40; ++i) exact_sum += window[i];
  double histogram_sum = 0.0;
  for (int i = 20; i < 40; ++i) histogram_sum += shown[i < 32 ? 0 : 1].value;
  double sse = 0.0;

  expect("SUM", CheckRangeEstimate(exact_sum, histogram_sum, 20, opt),
         CheckRangeEstimate(exact_sum, histogram_sum + 50.0, 20, opt));
  expect("SUMBOUND", CheckBounded(exact_sum, exact_sum + 1.0, 1.5),
         CheckBounded(exact_sum, exact_sum + 2.0, 1.5));
  expect("COUNT", CheckCount(64, 64, 64), CheckCount(64, 64, 63));
  // Ranks of 10.0 among the window: 11 values equal it, none below.
  expect("QUANTILE", CheckQuantile(64, 64, 0, 11, 0.1, 0.01),
         CheckQuantile(64, 64, 0, 11, 0.9, 0.01));
  expect("DISTINCT", CheckDistinct(5, 5, 5.2, DistinctTolerance(256)),
         CheckDistinct(5, 5, 10.0, DistinctTolerance(256)));
  expect("ERROR", CheckErrorBound(opt, 0.1, opt * 1.05),
         CheckErrorBound(opt, 0.1, opt * 0.5));
  std::vector<ShownBucket> moved = shown;
  moved[0].end = moved[1].begin = 16;  // a split far from the optimum
  expect("SHOW", CheckShow(window, shown, opt * 1.05, opt, 0.1, &sse),
         CheckShow(window, moved, 1e9, opt, 0.1, &sse));
  std::vector<ShownBucket> parsed;
  if (!ParseShow("[0,32)=10.5 [32,64)=50.125", 64, &parsed) ||
      ParseShow("[0,32)=10.5 [33,64)=50.125", 64, &parsed) ||
      ParseShow("ERR INTERNAL boom", 64, &parsed)) {
    wrong.push_back("SHOW parse");
  }
  double a = 0, b = 0;
  if (!ParseBounded("1.5 +- 0.25", &a, &b) || ParseBounded("1.5", &a, &b) ||
      ParseNumber("12x", &a) || ParseNumber("", &a)) {
    wrong.push_back("number parse");
  }
  return wrong;
}

}  // namespace perfbench
