#ifndef STREAMHIST_CORE_AGGLOMERATIVE_H_
#define STREAMHIST_CORE_AGGLOMERATIVE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/histogram.h"
#include "src/util/deadline.h"
#include "src/util/result.h"

namespace streamhist {

/// Options shared by the (1+eps)-approximate streaming builders.
struct ApproxHistogramOptions {
  /// Target number of buckets B (>= 1).
  int64_t num_buckets = 8;
  /// Overall approximation slack: extracted histograms have SSE within a
  /// (1+epsilon) factor of the optimal B-bucket histogram. Must be > 0.
  /// Internally the per-level slack is delta = epsilon / (2B), per the paper.
  double epsilon = 0.1;
};

/// One-pass (1+eps)-approximate V-optimal histogram over an *agglomerative*
/// stream (all points since time 0) — algorithm AgglomerativeHistogram of
/// the paper (section 4.3, figure 3; originally [GKS01]).
///
/// For each level k < B the algorithm covers the seen prefix lengths with
/// intervals (a, b] such that HERROR[b, k] <= (1+delta) HERROR[a, k]; the
/// dynamic-programming minimization for each new point is restricted to the
/// interval *endpoints*, of which there are only O((1/delta) log n). Prefix
/// sums are snapshotted only when an interval closes, so total space is
/// O((B^2/eps) log n) and total time O((n B^2/eps) log n).
///
/// Append() maintains the structure; Extract() runs a sparse DP over the
/// snapshotted endpoints and returns a histogram whose SSE is within
/// (1+eps) of optimal. ApproxError() returns the streamed HERROR[N, B]
/// estimate without extracting.
class AgglomerativeHistogram {
 public:
  /// Validates options; epsilon must be > 0 and num_buckets >= 1.
  static Result<AgglomerativeHistogram> Create(
      const ApproxHistogramOptions& options);

  /// Appends one stream point (amortized O((B^2/eps) log n)).
  void Append(double value);

  /// Convenience for batched arrivals (paper footnote 2).
  void AppendBatch(std::span<const double> values) {
    for (double v : values) Append(v);
  }

  /// Number of points seen (N).
  int64_t size() const { return count_; }

  /// Streamed approximation of HERROR[N, B] (0 when N <= B).
  double ApproxError() const;

  /// Extracts a histogram over [0, N) with at most B buckets by a sparse DP
  /// over the snapshotted interval endpoints.
  Histogram Extract() const;

  /// Cancellable variant: consults `ctx` (util/deadline.h) at grain
  /// boundaries of the sparse-DP merge sweep and between levels; a stop
  /// request abandons the extraction with Status::Cancelled. With a context
  /// that never fires the result is bit-identical to Extract().
  Result<Histogram> ExtractCancellable(const ExecContext& ctx) const;

  /// Total snapshotted endpoints across all queues (space diagnostic).
  int64_t total_stored_entries() const;

  /// Approximate heap footprint in bytes (for the memory governor).
  int64_t MemoryBytes() const;

  /// The per-level slack delta = epsilon / (2B).
  double delta() const { return delta_; }

  /// Serializes the complete streaming state — interval-endpoint snapshots,
  /// open-interval thresholds, running totals — as a framed, CRC-protected
  /// blob. A round-trip restores a bit-identical builder: Extract() and all
  /// future Append()s behave exactly as on the original.
  std::string Serialize() const;

  /// Inverse of Serialize; validates structure and invariants and never
  /// aborts on hostile bytes.
  static Result<AgglomerativeHistogram> Deserialize(std::string_view bytes);

  int64_t num_buckets() const { return num_buckets_; }
  double epsilon() const { return epsilon_; }

 private:
  AgglomerativeHistogram(int64_t num_buckets, double epsilon);

  /// A snapshotted closed-interval endpoint's exact prefix sums; its prefix
  /// length p and (approximate) HERROR[p, k] at close time live in the
  /// queue's scan columns.
  struct Entry {
    long double sum;
    long double sqsum;
  };

  /// One level's interval endpoints in increasing p, struct-of-arrays. The
  /// per-append DP scan touches thousands of endpoints; reading dense double
  /// columns instead of long-double records keeps that scan a tight,
  /// vectorizable loop. p (exact: p < 2^53) and herror are stored only
  /// here; the sums are kept exactly in `exact` for Extract and Serialize
  /// and rounded to double in `sum`/`sqsum` for the scan.
  struct EndpointQueue {
    std::vector<double> p, herror, sum, sqsum;
    std::vector<Entry> exact;
    // Derived, never serialized: the minimum herror of each fixed 64-entry
    // block [64j, 64j + 64), so the scan can skip a block whose candidates
    // provably all cost at least the best so far. Rebuilt by Push on
    // Deserialize.
    std::vector<double> block_min_herror;

    void Push(int64_t at, double h, long double s, long double q);
    size_t size() const { return p.size(); }
    size_t MemoryBytes() const;
  };

  // SSE of the bucket spanning prefix snapshots (from -> to].
  static double SpanError(int64_t from_p, long double from_sum,
                          long double from_sqsum, int64_t to_p,
                          long double to_sum, long double to_sqsum);

  // Shared sparse-DP extraction; ctx may be null (never cancels).
  Result<Histogram> ExtractImpl(const ExecContext* ctx) const;

  int64_t num_buckets_;
  double epsilon_;
  double delta_;

  // queues_[k-1] holds level-k snapshots, k in [1, B-1], in increasing p.
  std::vector<EndpointQueue> queues_;
  // Per level k in [1, B-1]: HERROR at the start of the currently open
  // interval (the trigger threshold).
  std::vector<double> open_start_herror_;
  std::vector<bool> has_open_;

  // HERROR[N][k] and HERROR[N-1][k] for k in [1, B] (index 0 unused).
  std::vector<double> herr_cur_;
  std::vector<double> herr_prev_;

  int64_t count_ = 0;
  long double total_sum_ = 0.0L;
  long double total_sqsum_ = 0.0L;
  long double prev_sum_ = 0.0L;   // totals before the latest point
  long double prev_sqsum_ = 0.0L;
};

}  // namespace streamhist

#endif  // STREAMHIST_CORE_AGGLOMERATIVE_H_
