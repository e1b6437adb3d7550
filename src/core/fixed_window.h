#ifndef STREAMHIST_CORE_FIXED_WINDOW_H_
#define STREAMHIST_CORE_FIXED_WINDOW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/bucket_cost.h"
#include "src/core/histogram.h"
#include "src/stream/sliding_window.h"
#include "src/util/result.h"

namespace streamhist {

/// Bucket-cost family for the fixed-window algorithm. The paper's analysis
/// (footnote 3) holds for any point-wise additive error whose bucket cost is
/// monotone under widening; both families below qualify. The agglomerative
/// algorithm supports only kSse, whose bucket costs are computable from the
/// prefix-sum snapshots it retains; the fixed window buffers its points, so
/// any O(1)-evaluable cost works.
enum class WindowErrorMetric {
  /// Sum of squared deviations from the bucket mean (the paper's SQERROR,
  /// V-optimal histograms). O(1) bucket costs from sliding prefix sums.
  kSse,
  /// Maximum absolute deviation from the bucket midrange, summed over
  /// buckets (L-infinity flavored). O(1) bucket costs from sparse min/max
  /// tables rebuilt per rebuild.
  kMaxAbs,
};

/// Options for FixedWindowHistogram.
struct FixedWindowOptions {
  /// Sliding-window length n (>= 1): histograms cover the latest n points.
  int64_t window_size = 1024;
  /// Target number of buckets B (>= 1).
  int64_t num_buckets = 8;
  /// Approximation slack: total error within (1+epsilon) of the optimal
  /// B-bucket histogram of the window. Must be > 0. delta = epsilon / (2B).
  double epsilon = 0.1;
  /// When true (the paper's accounting), the interval structure is rebuilt
  /// on every Append; when false it is rebuilt lazily on the next query.
  bool rebuild_on_append = true;
  /// Bucket-cost family (see WindowErrorMetric).
  WindowErrorMetric metric = WindowErrorMetric::kSse;
};

/// The paper's primary contribution (section 4.5, figure 5): incremental
/// maintenance of a (1+eps)-approximate V-optimal histogram over a sliding
/// window of the stream.
///
/// Unlike the agglomerative algorithm — whose interval lists are anchored at
/// the stream start and are invalidated by the eviction of old points
/// (section 4.4, the "shifted function" problem) — this algorithm rebuilds
/// the per-level interval lists *on demand* after each arrival with the
/// recursive binary-search procedure CreateList, evaluating HERROR at only
/// O((1/delta) log^2 n) positions per level instead of all n. Per-arrival
/// cost is O((B^3/eps^2) log^3 n); space is O(n) for the window plus
/// O((B^2/eps) log n) for the interval lists.
class FixedWindowHistogram {
 public:
  /// Validates options (window_size >= 1, num_buckets >= 1, epsilon > 0).
  static Result<FixedWindowHistogram> Create(const FixedWindowOptions& options);

  /// Appends a point, evicting the oldest when the window is full. Rebuilds
  /// the interval structure unless options.rebuild_on_append is false.
  void Append(double value);

  /// Batched arrivals (paper footnote 2): appends every point but rebuilds
  /// the interval structure at most once, after the batch.
  void AppendBatch(std::span<const double> values);

  /// Evicts the oldest window point without appending — the primitive that
  /// lets time-based windows (core/time_window.h) shrink below capacity.
  /// Requires a non-empty window.
  void EvictOldest();

  /// The underlying sliding window (exact values, for ground-truth queries).
  const SlidingWindow& window() const { return window_; }

  /// Approximate HERROR[m, B] of the current window (rebuilds if stale).
  double ApproxError();

  /// Extracts the (1+eps)-approximate B-bucket histogram of the current
  /// window. Cached until the next Append.
  const Histogram& Extract();

  /// Estimated sum of the window values over [lo, hi) using the extracted
  /// histogram (window-relative indices).
  double RangeSum(int64_t lo, int64_t hi);

  /// Exact per-bucket SSEs of the extracted histogram against the current
  /// window, O(B) from the sliding prefix sums — feed these to
  /// RangeSumWithBound (core/error_bounds.h) for certified query error
  /// bars. Requires the SSE metric (mean representatives).
  std::vector<double> BucketErrors();

  /// True when the interval structure is current AND the extracted histogram
  /// is materialized — i.e. ApproxError()/Extract() are pure lookups right
  /// now. The publish path uses this to adopt an already-built histogram
  /// into an eager snapshot section instead of freezing the window contents
  /// for lazy materialization.
  bool HasCurrentHistogram() const {
    return !dirty_ && cached_histogram_.has_value();
  }

  /// Serializes options plus the complete sliding-window state as a framed,
  /// CRC-protected blob. The interval lists and memo table are *not*
  /// serialized: they are a deterministic function of the window contents
  /// and are rebuilt lazily on the first query after Deserialize, so a
  /// round-trip reproduces identical query answers at a fraction of the
  /// checkpoint size.
  std::string Serialize() const;

  /// Inverse of Serialize; validates structure and never aborts on hostile
  /// bytes.
  static Result<FixedWindowHistogram> Deserialize(std::string_view bytes);

  /// A window histogram whose contents are exactly `contents` (oldest
  /// first, at most options.window_size points) — the materializer behind
  /// lazily-built snapshot sections, which freeze the live window's
  /// contents at publish time and rebuild from them on first demand. The
  /// interval lists and memo are a deterministic function of the contents
  /// (the Serialize contract), so the extracted histogram matches what the
  /// live window would have produced. `options` must already be valid (they
  /// come from a live instance).
  static FixedWindowHistogram FromContents(const FixedWindowOptions& options,
                                           std::span<const double> contents);

  /// --- diagnostics for tests and benchmarks ---
  /// Number of HERROR evaluations during the most recent rebuild.
  int64_t last_herror_evals() const { return last_herror_evals_; }
  /// Total interval-list entries across all levels after the last rebuild.
  int64_t last_total_intervals() const;
  double delta() const { return delta_; }
  const FixedWindowOptions& options() const { return options_; }

  /// Approximate heap footprint in bytes — the window buffers plus the
  /// prefix snapshot, interval lists and memo table (for the memory
  /// governor).
  int64_t MemoryBytes() const;

 private:
  explicit FixedWindowHistogram(const FixedWindowOptions& options);

  struct Eval {
    double herror;
    int64_t boundary;  // start of the last bucket in the minimizing split
  };
  // One level's interval endpoints in increasing p, as parallel columns so
  // EvalHerror's backward scan reads contiguous memory. `sum`/`sqsum` hold
  // the window's prefix sums at each endpoint (SSE metric only): the scan
  // prices the bucket [p_e, p) without looking p_e up again.
  struct EndpointQueue {
    std::vector<int64_t> p;  // prefix length (interval endpoint b_l)
    std::vector<double> herror;
    std::vector<long double> sum;
    std::vector<long double> sqsum;

    void Clear();
    size_t MemoryBytes() const;
  };

  /// Bucket cost of window positions [i, j) under the configured metric.
  /// Valid only while the interval structure is current (the SSE metric
  /// reads the prefix snapshot taken by Rebuild).
  double BucketCostOf(int64_t i, int64_t j) const;
  /// Optimal representative of [i, j) under the configured metric.
  double RepresentativeOf(int64_t i, int64_t j) const;

  /// Memoized HERROR[p, k] over the current window, minimized over the
  /// level-(k-1) interval endpoints plus the recursive candidate (p-1, k-1)
  /// that covers positions inside the endpoint's own interval.
  Eval EvalHerror(int64_t p, int64_t k);

  /// Lowers `best` over the queue's endpoints below index `end`, scanning
  /// backwards until the last bucket's cost `span_cost(idx)` alone reaches
  /// it.
  template <typename SpanCost>
  static void ScanEndpoints(const EndpointQueue& queue, size_t end,
                            SpanCost span_cost, double* best,
                            int64_t* best_boundary);

  /// Builds the level-k interval list over prefix lengths [a, b] (paper's
  /// CreateList, iterative form).
  void CreateList(int64_t a, int64_t b, int64_t k);

  /// Rebuilds all interval lists and the final minimization for the current
  /// window contents.
  void Rebuild();

  /// Backtracks bucket boundaries through the memo table.
  Histogram ExtractFromState();

  FixedWindowOptions options_;
  double delta_;
  SlidingWindow window_;
  // Sparse min/max tables over the current window contents; only populated
  // (during Rebuild) when metric == kMaxAbs.
  std::optional<MaxAbsBucketCost> maxabs_cost_;
  // The window's prefix sums in logical order, entry i = totals before
  // index i (SlidingWindow::CopyPrefixSums); only populated (during
  // Rebuild) when metric == kSse.
  std::vector<long double> prefix_sum_;
  std::vector<long double> prefix_sqsum_;

  // queues_[k-1]: level-k interval endpoints, increasing p, k in [1, B-1].
  std::vector<EndpointQueue> queues_;
  // Flat memo table over (k, p), invalidated wholesale by bumping the epoch
  // instead of clearing ((B+1) * (n+1) slots, allocated by the first
  // Rebuild).
  std::vector<Eval> memo_;
  std::vector<uint32_t> memo_epoch_;
  uint32_t epoch_ = 0;
  double final_herror_ = 0.0;
  int64_t final_boundary_ = 0;
  bool dirty_ = true;
  std::optional<Histogram> cached_histogram_;
  int64_t last_herror_evals_ = 0;
};

}  // namespace streamhist

#endif  // STREAMHIST_CORE_FIXED_WINDOW_H_
