#ifndef STREAMHIST_STREAM_PREFIX_SUMS_H_
#define STREAMHIST_STREAM_PREFIX_SUMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/logging.h"

namespace streamhist {

/// SQERROR of the half-open bucket between two prefix positions, from the
/// shifted prefix sums at its begin and end: SQSUM - SUM^2 / width, clamped
/// at zero, and 0 for width <= 1. Every long-double SQERROR in the library —
/// PrefixSums, SlidingWindow, the agglomerative and fixed-window scans —
/// goes through this one definition, so equal operands round identically
/// wherever they are evaluated.
inline double SqErrorFromPrefixes(long double sum_begin,
                                  long double sqsum_begin, long double sum_end,
                                  long double sqsum_end, int64_t width) {
  if (width <= 1) return 0.0;
  const long double s = sum_end - sum_begin;
  const long double q = sqsum_end - sqsum_begin;
  const long double err = q - s * s / static_cast<long double>(width);
  return err > 0.0L ? static_cast<double>(err) : 0.0;
}

/// Prefix sums and sums-of-squares over a finite sequence, supporting O(1)
/// bucket statistics. This is the paper's SUM / SQSUM pair (equation 3):
/// for a bucket the squared error under the mean representative is
///
///   SQERROR(i, j) = SQSUM(i, j) - SUM(i, j)^2 / (j - i)
///
/// (half-open [i, j) in this codebase). Accumulation uses long double over
/// values *shifted by the sequence mean* — SQERROR is shift-invariant, and
/// shifting keeps the catastrophic-cancellation term SUM^2/(j-i) small even
/// when the data rides a large offset (e.g. values near 1e9 with tiny
/// variance). Results are clamped at zero so rounding can never produce a
/// negative bucket error.
///
/// The query methods are defined inline: they sit in the inner loop of the
/// V-optimal DP kernels (core/vopt_kernel.h), where a cross-TU call per
/// candidate would dominate the sweep.
class PrefixSums {
 public:
  /// Builds prefix sums over `values` in O(n).
  explicit PrefixSums(std::span<const double> values);

  /// Number of underlying values.
  int64_t size() const { return static_cast<int64_t>(sum_.size()) - 1; }

  /// Sum of values[i..j). Requires 0 <= i <= j <= size().
  double Sum(int64_t i, int64_t j) const {
    STREAMHIST_DCHECK(0 <= i && i <= j && j <= size());
    const long double shifted =
        sum_[static_cast<size_t>(j)] - sum_[static_cast<size_t>(i)];
    return static_cast<double>(shifted +
                               offset_ * static_cast<long double>(j - i));
  }

  /// Sum of squared values over [i, j). Requires 0 <= i <= j <= size().
  double SumSquares(int64_t i, int64_t j) const {
    STREAMHIST_DCHECK(0 <= i && i <= j && j <= size());
    // sum v^2 = sum (d + o)^2 = sum d^2 + 2 o sum d + o^2 w.
    const long double d2 =
        sqsum_[static_cast<size_t>(j)] - sqsum_[static_cast<size_t>(i)];
    const long double d1 =
        sum_[static_cast<size_t>(j)] - sum_[static_cast<size_t>(i)];
    const long double w = static_cast<long double>(j - i);
    return static_cast<double>(d2 + 2.0L * offset_ * d1 + offset_ * offset_ * w);
  }

  /// Mean of values[i..j). Requires i < j.
  double Mean(int64_t i, int64_t j) const {
    STREAMHIST_DCHECK(i < j);
    return Sum(i, j) / static_cast<double>(j - i);
  }

  /// SSE of representing values[i..j) by their mean; 0 for empty ranges.
  double SqError(int64_t i, int64_t j) const {
    STREAMHIST_DCHECK(0 <= i && i <= j && j <= size());
    // Shift-invariant: evaluate on the shifted values directly.
    return SqErrorFromPrefixes(
        sum_[static_cast<size_t>(i)], sqsum_[static_cast<size_t>(i)],
        sum_[static_cast<size_t>(j)], sqsum_[static_cast<size_t>(j)], j - i);
  }

 private:
  long double offset_ = 0.0L;       // sequence mean, subtracted before summing
  std::vector<long double> sum_;    // sum_[k] = sum of shifted values[0..k)
  std::vector<long double> sqsum_;  // sqsum_[k] = shifted sum of squares
};

}  // namespace streamhist

#endif  // STREAMHIST_STREAM_PREFIX_SUMS_H_
