#include "src/core/fixed_window.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/stream/prefix_sums.h"
#include "src/util/framing.h"
#include "src/util/logging.h"

namespace streamhist {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<FixedWindowHistogram> FixedWindowHistogram::Create(
    const FixedWindowOptions& options) {
  if (options.window_size < 1) {
    return Status::InvalidArgument("window_size must be >= 1");
  }
  if (options.num_buckets < 1) {
    return Status::InvalidArgument("num_buckets must be >= 1");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  return FixedWindowHistogram(options);
}

FixedWindowHistogram::FixedWindowHistogram(const FixedWindowOptions& options)
    : options_(options),
      delta_(options.epsilon / (2.0 * static_cast<double>(options.num_buckets))),
      window_(options.window_size) {
  const size_t levels = options_.num_buckets > 1
                            ? static_cast<size_t>(options_.num_buckets - 1)
                            : 0;
  queues_.resize(levels);
}

void FixedWindowHistogram::Append(double value) {
  window_.Append(value);
  dirty_ = true;
  cached_histogram_.reset();
  if (options_.rebuild_on_append) Rebuild();
}

void FixedWindowHistogram::EndpointQueue::Clear() {
  p.clear();
  herror.clear();
  sum.clear();
  sqsum.clear();
}

size_t FixedWindowHistogram::EndpointQueue::MemoryBytes() const {
  return p.capacity() * sizeof(int64_t) + herror.capacity() * sizeof(double) +
         (sum.capacity() + sqsum.capacity()) * sizeof(long double);
}

double FixedWindowHistogram::BucketCostOf(int64_t i, int64_t j) const {
  if (options_.metric == WindowErrorMetric::kSse) {
    const auto b = static_cast<size_t>(i);
    const auto e = static_cast<size_t>(j);
    return SqErrorFromPrefixes(prefix_sum_[b], prefix_sqsum_[b],
                               prefix_sum_[e], prefix_sqsum_[e], j - i);
  }
  return maxabs_cost_->Cost(i, j);
}

double FixedWindowHistogram::RepresentativeOf(int64_t i, int64_t j) const {
  if (options_.metric == WindowErrorMetric::kSse) {
    return window_.Mean(i, j);
  }
  return maxabs_cost_->Representative(i, j);
}

void FixedWindowHistogram::AppendBatch(std::span<const double> values) {
  if (values.empty()) return;
  for (double v : values) window_.Append(v);
  dirty_ = true;
  cached_histogram_.reset();
  if (options_.rebuild_on_append) Rebuild();
}

void FixedWindowHistogram::EvictOldest() {
  window_.EvictOldest();
  dirty_ = true;
  cached_histogram_.reset();
  if (options_.rebuild_on_append) Rebuild();
}

template <typename SpanCost>
void FixedWindowHistogram::ScanEndpoints(const EndpointQueue& queue,
                                         size_t end, SpanCost span_cost,
                                         double* best,
                                         int64_t* best_boundary) {
  for (size_t idx = end; idx-- > 0;) {
    const double span = span_cost(idx);
    if (span >= *best) break;
    const double candidate = queue.herror[idx] + span;
    if (candidate < *best) {
      *best = candidate;
      *best_boundary = queue.p[idx];
    }
  }
}

FixedWindowHistogram::Eval FixedWindowHistogram::EvalHerror(int64_t p,
                                                            int64_t k) {
  STREAMHIST_DCHECK(k >= 1);
  STREAMHIST_DCHECK(0 <= p && p <= window_.size());
  const size_t key = static_cast<size_t>(k * (options_.window_size + 1) + p);
  if (memo_epoch_[key] == epoch_) return memo_[key];
  ++last_herror_evals_;

  Eval result;
  if (p <= k) {
    // Enough buckets for singletons: exact, last bucket is [p-1, p).
    result = Eval{0.0, p > 0 ? p - 1 : 0};
  } else if (k == 1) {
    result = Eval{BucketCostOf(0, p), 0};
  } else {
    // Start from the candidate p-1, which covers splits inside the endpoint
    // interval containing p-1 (its HERROR is within (1+delta) of any such
    // split's, by the interval invariant).
    const Eval inner = EvalHerror(p - 1, k - 1);
    double best = inner.herror + BucketCostOf(p - 1, p);
    int64_t best_boundary = p - 1;
    // Then minimize over the level-(k-1) interval endpoints below p,
    // scanning from the most recent endpoint backwards: the last bucket
    // [e.p, p) only widens going back, so its SQERROR is non-decreasing, and
    // once it alone reaches the best total no earlier entry can improve —
    // an exact prune that keeps the scan near the balance point.
    const EndpointQueue& queue = queues_[static_cast<size_t>(k - 2)];
    const size_t end = static_cast<size_t>(
        std::lower_bound(queue.p.begin(), queue.p.end(), p) - queue.p.begin());
    if (options_.metric == WindowErrorMetric::kSse) {
      // The endpoints carry their prefix sums inline, so pricing [e, p) is
      // two contiguous loads per endpoint (the same operands BucketCostOf
      // would read from the snapshot).
      const long double sum_p = prefix_sum_[static_cast<size_t>(p)];
      const long double sqsum_p = prefix_sqsum_[static_cast<size_t>(p)];
      ScanEndpoints(
          queue, end,
          [&](size_t idx) {
            return SqErrorFromPrefixes(queue.sum[idx], queue.sqsum[idx], sum_p,
                                       sqsum_p, p - queue.p[idx]);
          },
          &best, &best_boundary);
    } else {
      ScanEndpoints(
          queue, end,
          [&](size_t idx) { return maxabs_cost_->Cost(queue.p[idx], p); },
          &best, &best_boundary);
    }
    result = Eval{best, best_boundary};
  }
  memo_[key] = result;
  memo_epoch_[key] = epoch_;
  return result;
}

void FixedWindowHistogram::CreateList(int64_t a, int64_t b, int64_t k) {
  EndpointQueue& queue = queues_[static_cast<size_t>(k - 1)];
  const bool sse = options_.metric == WindowErrorMetric::kSse;
  auto push = [&](int64_t endpoint) {
    queue.p.push_back(endpoint);
    queue.herror.push_back(EvalHerror(endpoint, k).herror);
    if (sse) {
      queue.sum.push_back(prefix_sum_[static_cast<size_t>(endpoint)]);
      queue.sqsum.push_back(prefix_sqsum_[static_cast<size_t>(endpoint)]);
    }
  };
  while (a <= b) {
    if (a == b) {
      push(a);
      return;
    }
    const double t = EvalHerror(a, k).herror;
    const double threshold = (1.0 + delta_) * t;
    // Largest c in [a, b] with HERROR[c, k] <= threshold (HERROR is
    // non-decreasing in the prefix length, so this is a binary search; c >= a
    // always since HERROR[a, k] == t <= threshold).
    int64_t lo = a;
    int64_t hi = b;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo + 1) / 2;
      if (EvalHerror(mid, k).herror <= threshold) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    push(lo);
    a = lo + 1;
  }
}

void FixedWindowHistogram::Rebuild() {
  if (memo_.empty()) {
    // Sized on the first rebuild: a live window whose histograms are only
    // ever built from frozen copies (the engine's lazy snapshot sections)
    // never holds the (B+1) * (n+1)-slot table.
    const size_t memo_slots = static_cast<size_t>(options_.num_buckets + 1) *
                              static_cast<size_t>(options_.window_size + 1);
    memo_.resize(memo_slots);
    memo_epoch_.assign(memo_slots, 0);
  }
  if (++epoch_ == 0) {  // wrapped: every stale stamp must be invalidated
    std::fill(memo_epoch_.begin(), memo_epoch_.end(), 0u);
    epoch_ = 1;
  }
  for (auto& q : queues_) q.Clear();
  last_herror_evals_ = 0;
  dirty_ = false;

  const int64_t m = window_.size();
  if (m == 0) {
    final_herror_ = 0.0;
    final_boundary_ = 0;
    return;
  }
  if (options_.metric == WindowErrorMetric::kMaxAbs) {
    // O(n log n) sparse min/max tables over the current window, giving O(1)
    // bucket costs during the rebuild.
    maxabs_cost_.emplace(window_.ToVector());
  } else {
    // O(n) flat copy of the ring's prefix sums, so no bucket cost during
    // the rebuild maps a logical index through the ring.
    window_.CopyPrefixSums(&prefix_sum_, &prefix_sqsum_);
  }
  for (int64_t k = 1; k < options_.num_buckets; ++k) {
    CreateList(1, m, k);
  }
  const Eval final = EvalHerror(m, options_.num_buckets);
  final_herror_ = final.herror;
  final_boundary_ = final.boundary;
}

double FixedWindowHistogram::ApproxError() {
  if (dirty_) Rebuild();
  return final_herror_;
}

Histogram FixedWindowHistogram::ExtractFromState() {
  const int64_t m = window_.size();
  if (m == 0) return Histogram();

  std::vector<int64_t> boundaries;
  boundaries.push_back(m);
  int64_t boundary = final_boundary_;
  int64_t k = options_.num_buckets;
  while (true) {
    boundaries.push_back(boundary);
    if (boundary == 0) break;
    --k;
    STREAMHIST_CHECK_GE(k, 1);
    boundary = EvalHerror(boundary, k).boundary;
  }
  std::reverse(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  std::vector<Bucket> buckets;
  buckets.reserve(boundaries.size() - 1);
  for (size_t t = 0; t + 1 < boundaries.size(); ++t) {
    const int64_t begin = boundaries[t];
    const int64_t end = boundaries[t + 1];
    buckets.push_back(Bucket{begin, end, RepresentativeOf(begin, end)});
  }
  return Histogram::FromBucketsUnchecked(std::move(buckets));
}

const Histogram& FixedWindowHistogram::Extract() {
  if (dirty_) Rebuild();
  if (!cached_histogram_.has_value()) {
    cached_histogram_ = ExtractFromState();
  }
  return *cached_histogram_;
}

double FixedWindowHistogram::RangeSum(int64_t lo, int64_t hi) {
  return Extract().RangeSum(lo, hi);
}

std::vector<double> FixedWindowHistogram::BucketErrors() {
  STREAMHIST_CHECK(options_.metric == WindowErrorMetric::kSse)
      << "certified bounds need mean representatives";
  const Histogram& h = Extract();
  std::vector<double> errors;
  errors.reserve(static_cast<size_t>(h.num_buckets()));
  for (const Bucket& b : h.buckets()) {
    errors.push_back(window_.SqError(b.begin, b.end));
  }
  return errors;
}

int64_t FixedWindowHistogram::last_total_intervals() const {
  int64_t total = 0;
  for (const auto& q : queues_) total += static_cast<int64_t>(q.p.size());
  return total;
}

int64_t FixedWindowHistogram::MemoryBytes() const {
  size_t bytes = window_.MemoryBytes();
  bytes += memo_.capacity() * sizeof(Eval);
  bytes += memo_epoch_.capacity() * sizeof(uint32_t);
  bytes += (prefix_sum_.capacity() + prefix_sqsum_.capacity()) *
           sizeof(long double);
  bytes += queues_.capacity() * sizeof(EndpointQueue);
  for (const auto& q : queues_) bytes += q.MemoryBytes();
  if (cached_histogram_.has_value()) {
    bytes += static_cast<size_t>(cached_histogram_->num_buckets()) *
             sizeof(Bucket);
  }
  return static_cast<int64_t>(bytes);
}

namespace {
constexpr uint32_t kFixedWindowMagic = 0x53484657;  // "SHFW"
constexpr uint32_t kFixedWindowVersion = 1;
}  // namespace

std::string FixedWindowHistogram::Serialize() const {
  ByteWriter payload;
  payload.PutI64(options_.window_size);
  payload.PutI64(options_.num_buckets);
  payload.PutF64(options_.epsilon);
  payload.PutBool(options_.rebuild_on_append);
  payload.PutU32(static_cast<uint32_t>(options_.metric));
  payload.PutLengthPrefixed(window_.Serialize());
  return WrapFrame(kFixedWindowMagic, kFixedWindowVersion, payload.bytes());
}

Result<FixedWindowHistogram> FixedWindowHistogram::Deserialize(
    std::string_view bytes) {
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView frame,
      UnwrapFrame(bytes, kFixedWindowMagic, "fixed-window histogram"));
  if (frame.version != kFixedWindowVersion) {
    return Status::InvalidArgument("unsupported fixed-window version");
  }
  ByteReader reader(frame.payload);
  FixedWindowOptions options;
  uint32_t metric = 0;
  std::string_view window_bytes;
  if (!reader.ReadI64(&options.window_size) ||
      !reader.ReadI64(&options.num_buckets) ||
      !reader.ReadF64(&options.epsilon) ||
      !reader.ReadBool(&options.rebuild_on_append) ||
      !reader.ReadU32(&metric) ||
      !reader.ReadLengthPrefixed(&window_bytes) || !reader.AtEnd()) {
    return Status::InvalidArgument("malformed fixed-window payload");
  }
  if (metric > static_cast<uint32_t>(WindowErrorMetric::kMaxAbs)) {
    return Status::InvalidArgument("unknown fixed-window error metric");
  }
  options.metric = static_cast<WindowErrorMetric>(metric);
  if (!std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("fixed-window epsilon is not finite");
  }
  STREAMHIST_ASSIGN_OR_RETURN(FixedWindowHistogram fw, Create(options));
  STREAMHIST_ASSIGN_OR_RETURN(SlidingWindow window,
                              SlidingWindow::Deserialize(window_bytes));
  if (window.capacity() != options.window_size) {
    return Status::InvalidArgument(
        "window capacity disagrees with fixed-window options");
  }
  fw.window_ = std::move(window);
  fw.dirty_ = true;  // interval lists rebuild lazily from the window
  return fw;
}

FixedWindowHistogram FixedWindowHistogram::FromContents(
    const FixedWindowOptions& options, std::span<const double> contents) {
  FixedWindowOptions lazy_options = options;
  lazy_options.rebuild_on_append = false;  // one rebuild, on first demand
  FixedWindowHistogram fw(lazy_options);
  fw.AppendBatch(contents);
  return fw;
}

}  // namespace streamhist
