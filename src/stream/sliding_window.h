#ifndef STREAMHIST_STREAM_SLIDING_WINDOW_H_
#define STREAMHIST_STREAM_SLIDING_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace streamhist {

/// Circular buffer over the most recent `capacity` stream points, augmented
/// with the paper's cyclic prefix-sum arrays SUM' and SQSUM' (section 4.5):
/// each slot carries the running total of everything appended since the last
/// rebase, and the totals evicted from the window are tracked separately, so
/// any window-relative bucket sum or squared error is O(1). Every `capacity`
/// appends the running totals are rebuilt from the live window contents —
/// O(n) work amortized to O(1) per append, exactly as the paper prescribes.
///
/// Numerics: sums accumulate values *shifted by a per-epoch offset* (the
/// window mean at the last rebase). SqError is shift-invariant, so the
/// catastrophic-cancellation term SUM^2/(j-i) stays small even when the data
/// rides a large offset (values near 1e9 with tiny variance); the rebase
/// also bounds the accumulated magnitude between epochs.
///
/// Logical indices are window-relative: index 0 is the temporally oldest
/// point currently in the window, size()-1 the newest.
class SlidingWindow {
 public:
  /// Creates an empty window holding at most `capacity` (> 0) points.
  explicit SlidingWindow(int64_t capacity);

  /// Appends a point, evicting the oldest one if the window is full.
  void Append(double value);

  /// Evicts the oldest point without appending (for time-based windows).
  /// Requires size() > 0.
  void EvictOldest();

  /// Number of points currently held (<= capacity).
  int64_t size() const { return size_; }

  /// Maximum number of points held.
  int64_t capacity() const { return capacity_; }

  /// True once capacity() points have been appended.
  bool full() const { return size_ == capacity_; }

  /// Total number of Append calls over the stream's lifetime.
  int64_t total_appended() const { return total_appended_; }

  /// Value at window-relative index i in [0, size()).
  double operator[](int64_t i) const;

  /// Copies the current window contents oldest-first.
  std::vector<double> ToVector() const;

  /// Sum of window values over the half-open logical range [i, j).
  double Sum(int64_t i, int64_t j) const;

  /// Sum of squares of window values over [i, j).
  double SumSquares(int64_t i, int64_t j) const;

  /// Mean of window values over [i, j); requires i < j.
  double Mean(int64_t i, int64_t j) const;

  /// SSE of representing window values [i, j) by their mean (clamped >= 0).
  double SqError(int64_t i, int64_t j) const;

  /// Fills `sum` and `sqsum` with the window's shifted prefix sums in
  /// logical order: entry i (i in [0, size()]) holds the totals before
  /// logical index i, the exact long doubles Sum/SqError read. A consumer
  /// that evaluates many buckets over an unchanging window (the fixed-window
  /// CreateList) reads them without the ring's index mapping; pass the two
  /// to SqErrorFromPrefixes (stream/prefix_sums.h) to get SqError's answer.
  void CopyPrefixSums(std::vector<long double>* sum,
                      std::vector<long double>* sqsum) const;

  /// Number of O(n) rebases performed so far (exposed for tests/benches).
  int64_t rebase_count() const { return rebase_count_; }

  /// Approximate heap footprint in bytes (values plus the two cyclic
  /// prefix-sum arrays) — the input to the memory governor's accounting
  /// (util/governor.h).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(values_.capacity() * sizeof(double) +
                                cum_sum_.capacity() * sizeof(long double) +
                                cum_sqsum_.capacity() * sizeof(long double));
  }

  /// Serializes the complete window state — values, cumulative sums, shift
  /// epoch, counters — as a framed, CRC-protected blob (util/framing.h).
  /// Deserialize restores a bit-identical window, so every query answer and
  /// every future append behaves exactly as on the original.
  std::string Serialize() const;

  /// Inverse of Serialize; validates structure, bounds, and finiteness, and
  /// returns InvalidArgument (never aborts) on hostile bytes.
  static Result<SlidingWindow> Deserialize(std::string_view bytes);

 private:
  // Physical slot of logical index i.
  std::size_t Slot(int64_t i) const {
    return static_cast<std::size_t>((head_ + i) % capacity_);
  }
  // Running totals including logical index i, minus nothing: cumulative since
  // last rebase.
  long double CumSum(int64_t i) const { return cum_sum_[Slot(i)]; }
  long double CumSqSum(int64_t i) const { return cum_sqsum_[Slot(i)]; }
  // Cumulative totals strictly before logical index i.
  long double CumSumBefore(int64_t i) const {
    return i == 0 ? base_sum_ : CumSum(i - 1);
  }
  long double CumSqSumBefore(int64_t i) const {
    return i == 0 ? base_sqsum_ : CumSqSum(i - 1);
  }
  void Rebase();

  int64_t capacity_;
  int64_t size_ = 0;
  int64_t head_ = 0;  // physical slot of logical index 0
  int64_t total_appended_ = 0;
  int64_t appends_since_rebase_ = 0;
  int64_t rebase_count_ = 0;

  std::vector<double> values_;
  std::vector<long double> cum_sum_;
  std::vector<long double> cum_sqsum_;
  long double offset_ = 0.0L;         // per-epoch shift applied before summing
  long double running_sum_ = 0.0L;    // shifted totals since last rebase
  long double running_sqsum_ = 0.0L;
  long double base_sum_ = 0.0L;       // shifted totals evicted since rebase
  long double base_sqsum_ = 0.0L;
};

}  // namespace streamhist

#endif  // STREAMHIST_STREAM_SLIDING_WINDOW_H_
