#include "src/stream/sliding_window.h"

#include <algorithm>
#include <cmath>

#include "src/stream/prefix_sums.h"
#include "src/util/framing.h"
#include "src/util/logging.h"

namespace streamhist {

namespace {

constexpr uint32_t kWindowMagic = 0x53485357;  // "SHSW"
constexpr uint32_t kWindowVersion = 1;
// Guards the capacity-sized allocations against a corrupted header; a
// 128M-point window is far beyond any supported configuration.
constexpr int64_t kMaxWindowCapacity = int64_t{1} << 27;
// Per-point payload: value f64 + two long doubles as (hi, lo) pairs.
constexpr size_t kBytesPerPoint = 8 + 16 + 16;

}  // namespace

SlidingWindow::SlidingWindow(int64_t capacity) : capacity_(capacity) {
  STREAMHIST_CHECK_GT(capacity, 0);
  values_.resize(static_cast<size_t>(capacity));
  cum_sum_.resize(static_cast<size_t>(capacity));
  cum_sqsum_.resize(static_cast<size_t>(capacity));
}

void SlidingWindow::EvictOldest() {
  STREAMHIST_CHECK_GT(size_, 0);
  // Fold the departing point's cumulative totals into the base.
  const size_t old_slot = Slot(0);
  base_sum_ = cum_sum_[old_slot];
  base_sqsum_ = cum_sqsum_[old_slot];
  head_ = (head_ + 1) % capacity_;
  --size_;
}

void SlidingWindow::Append(double value) {
  if (total_appended_ == 0) offset_ = value;  // seed the shift epoch
  if (size_ == capacity_) EvictOldest();
  const size_t slot = Slot(size_);
  const long double d = value - offset_;
  running_sum_ += d;
  running_sqsum_ += d * d;
  values_[slot] = value;
  cum_sum_[slot] = running_sum_;
  cum_sqsum_[slot] = running_sqsum_;
  ++size_;
  ++total_appended_;
  if (++appends_since_rebase_ >= capacity_) Rebase();
}

void SlidingWindow::Rebase() {
  // Rebuild the cumulative arrays with the window start as the new origin
  // and the current window mean as the new shift offset.
  if (size_ > 0) {
    long double total = 0.0L;
    for (int64_t i = 0; i < size_; ++i) total += values_[Slot(i)];
    offset_ = total / static_cast<long double>(size_);
  }
  running_sum_ = 0.0L;
  running_sqsum_ = 0.0L;
  base_sum_ = 0.0L;
  base_sqsum_ = 0.0L;
  for (int64_t i = 0; i < size_; ++i) {
    const size_t slot = Slot(i);
    const long double d = values_[slot] - offset_;
    running_sum_ += d;
    running_sqsum_ += d * d;
    cum_sum_[slot] = running_sum_;
    cum_sqsum_[slot] = running_sqsum_;
  }
  appends_since_rebase_ = 0;
  ++rebase_count_;
}

double SlidingWindow::operator[](int64_t i) const {
  STREAMHIST_DCHECK(0 <= i && i < size_);
  return values_[Slot(i)];
}

std::vector<double> SlidingWindow::ToVector() const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(size_));
  for (int64_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
  return out;
}

double SlidingWindow::Sum(int64_t i, int64_t j) const {
  STREAMHIST_DCHECK(0 <= i && i <= j && j <= size_);
  if (i == j) return 0.0;
  const long double shifted = CumSum(j - 1) - CumSumBefore(i);
  return static_cast<double>(shifted +
                             offset_ * static_cast<long double>(j - i));
}

double SlidingWindow::SumSquares(int64_t i, int64_t j) const {
  STREAMHIST_DCHECK(0 <= i && i <= j && j <= size_);
  if (i == j) return 0.0;
  // sum v^2 = sum (d + o)^2 = sum d^2 + 2 o sum d + o^2 w.
  const long double d2 = CumSqSum(j - 1) - CumSqSumBefore(i);
  const long double d1 = CumSum(j - 1) - CumSumBefore(i);
  const long double w = static_cast<long double>(j - i);
  return static_cast<double>(d2 + 2.0L * offset_ * d1 + offset_ * offset_ * w);
}

double SlidingWindow::Mean(int64_t i, int64_t j) const {
  STREAMHIST_DCHECK(i < j);
  return Sum(i, j) / static_cast<double>(j - i);
}

double SlidingWindow::SqError(int64_t i, int64_t j) const {
  STREAMHIST_DCHECK(0 <= i && i <= j && j <= size_);
  return SqErrorFromPrefixes(CumSumBefore(i), CumSqSumBefore(i),
                             CumSumBefore(j), CumSqSumBefore(j), j - i);
}

void SlidingWindow::CopyPrefixSums(std::vector<long double>* sum,
                                   std::vector<long double>* sqsum) const {
  sum->resize(static_cast<size_t>(size_) + 1);
  sqsum->resize(static_cast<size_t>(size_) + 1);
  (*sum)[0] = base_sum_;
  (*sqsum)[0] = base_sqsum_;
  // CumSumBefore(i + 1) is the slot of logical index i: the live slots run
  // from head_ to the end of the ring, then wrap to slot 0.
  const int64_t first = std::min(size_, capacity_ - head_);
  const auto head = static_cast<std::ptrdiff_t>(head_);
  const auto wrapped = static_cast<std::ptrdiff_t>(size_ - first);
  std::copy_n(cum_sum_.begin() + head, first, sum->begin() + 1);
  std::copy_n(cum_sqsum_.begin() + head, first, sqsum->begin() + 1);
  std::copy_n(cum_sum_.begin(), wrapped, sum->begin() + 1 + first);
  std::copy_n(cum_sqsum_.begin(), wrapped, sqsum->begin() + 1 + first);
}

std::string SlidingWindow::Serialize() const {
  ByteWriter payload;
  payload.PutI64(capacity_);
  payload.PutI64(size_);
  payload.PutI64(total_appended_);
  payload.PutI64(appends_since_rebase_);
  payload.PutI64(rebase_count_);
  payload.PutLongDouble(offset_);
  payload.PutLongDouble(running_sum_);
  payload.PutLongDouble(running_sqsum_);
  payload.PutLongDouble(base_sum_);
  payload.PutLongDouble(base_sqsum_);
  // Live entries in logical (oldest-first) order; the restored window packs
  // them from slot 0, which preserves every logical-index query.
  for (int64_t i = 0; i < size_; ++i) {
    const size_t slot = Slot(i);
    payload.PutF64(values_[slot]);
    payload.PutLongDouble(cum_sum_[slot]);
    payload.PutLongDouble(cum_sqsum_[slot]);
  }
  return WrapFrame(kWindowMagic, kWindowVersion, payload.bytes());
}

Result<SlidingWindow> SlidingWindow::Deserialize(std::string_view bytes) {
  STREAMHIST_ASSIGN_OR_RETURN(FrameView frame,
                              UnwrapFrame(bytes, kWindowMagic, "window"));
  if (frame.version != kWindowVersion) {
    return Status::InvalidArgument("unsupported window version");
  }
  ByteReader reader(frame.payload);
  int64_t capacity = 0, size = 0, total_appended = 0, appends_since_rebase = 0,
          rebase_count = 0;
  long double offset = 0.0L, running_sum = 0.0L, running_sqsum = 0.0L,
              base_sum = 0.0L, base_sqsum = 0.0L;
  if (!reader.ReadI64(&capacity) || !reader.ReadI64(&size) ||
      !reader.ReadI64(&total_appended) ||
      !reader.ReadI64(&appends_since_rebase) ||
      !reader.ReadI64(&rebase_count) || !reader.ReadLongDouble(&offset) ||
      !reader.ReadLongDouble(&running_sum) ||
      !reader.ReadLongDouble(&running_sqsum) ||
      !reader.ReadLongDouble(&base_sum) ||
      !reader.ReadLongDouble(&base_sqsum)) {
    return Status::InvalidArgument("truncated window header");
  }
  if (capacity < 1 || capacity > kMaxWindowCapacity) {
    return Status::InvalidArgument("window capacity out of range");
  }
  if (size < 0 || size > capacity || total_appended < size ||
      appends_since_rebase < 0 || appends_since_rebase >= capacity + 1 ||
      rebase_count < 0) {
    return Status::InvalidArgument("window counters violate invariants");
  }
  if (reader.remaining() != static_cast<size_t>(size) * kBytesPerPoint) {
    return Status::InvalidArgument("window payload size mismatch");
  }
  if (!std::isfinite(static_cast<double>(offset))) {
    return Status::InvalidArgument("window offset is not finite");
  }
  SlidingWindow window(capacity);
  window.size_ = size;
  window.total_appended_ = total_appended;
  window.appends_since_rebase_ = appends_since_rebase;
  window.rebase_count_ = rebase_count;
  window.offset_ = offset;
  window.running_sum_ = running_sum;
  window.running_sqsum_ = running_sqsum;
  window.base_sum_ = base_sum;
  window.base_sqsum_ = base_sqsum;
  for (int64_t i = 0; i < size; ++i) {
    double value = 0.0;
    long double cum = 0.0L, cumsq = 0.0L;
    reader.ReadF64(&value);  // sizes pre-validated above
    reader.ReadLongDouble(&cum);
    reader.ReadLongDouble(&cumsq);
    if (!std::isfinite(value) || !std::isfinite(static_cast<double>(cum)) ||
        !std::isfinite(static_cast<double>(cumsq))) {
      return Status::InvalidArgument("window contains non-finite values");
    }
    const size_t slot = static_cast<size_t>(i);  // restored head_ is 0
    window.values_[slot] = value;
    window.cum_sum_[slot] = cum;
    window.cum_sqsum_[slot] = cumsq;
  }
  return window;
}

}  // namespace streamhist
