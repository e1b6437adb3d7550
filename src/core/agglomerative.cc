#include "src/core/agglomerative.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/stream/prefix_sums.h"
#include "src/util/framing.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace streamhist {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Unit roundoffs of the scan's double arithmetic and of the long-double
// running sums (the skip margin in Append).
constexpr double kUnitDouble = std::numeric_limits<double>::epsilon() / 2;
constexpr double kUnitLongDouble =
    static_cast<double>(std::numeric_limits<long double>::epsilon() / 2);
// The scan's block length, and the length of the fixed blocks whose herror
// minima EndpointQueue keeps.
constexpr size_t kScanBlock = 64;

// SSE of the bucket from a cached endpoint (p, sum, sqsum) to the current
// totals, in doubles and clamped at 0: the scan's one span formula.
inline double ScanSpan(double dn, double dsum, double dsq, double p,
                       double sum, double sqsum) {
  const double w = dn - p;
  const double sdiff = dsum - sum;
  const double qdiff = dsq - sqsum;
  const double span = qdiff - sdiff * sdiff / w;
  return span > 0.0 ? span : 0.0;
}
}  // namespace

void AgglomerativeHistogram::EndpointQueue::Push(int64_t at, double h,
                                                 long double s,
                                                 long double q) {
  if (p.size() % kScanBlock == 0) block_min_herror.push_back(kInf);
  double& block_min = block_min_herror.back();
  if (h < block_min) block_min = h;  // a NaN herror never lowers it
  p.push_back(static_cast<double>(at));
  herror.push_back(h);
  sum.push_back(static_cast<double>(s));
  sqsum.push_back(static_cast<double>(q));
  exact.push_back(Entry{.sum = s, .sqsum = q});
}

size_t AgglomerativeHistogram::EndpointQueue::MemoryBytes() const {
  return (p.capacity() + herror.capacity() + sum.capacity() +
          sqsum.capacity() + block_min_herror.capacity()) *
             sizeof(double) +
         exact.capacity() * sizeof(Entry);
}

Result<AgglomerativeHistogram> AgglomerativeHistogram::Create(
    const ApproxHistogramOptions& options) {
  if (options.num_buckets < 1) {
    return Status::InvalidArgument("num_buckets must be >= 1");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  return AgglomerativeHistogram(options.num_buckets, options.epsilon);
}

AgglomerativeHistogram::AgglomerativeHistogram(int64_t num_buckets,
                                               double epsilon)
    : num_buckets_(num_buckets),
      epsilon_(epsilon),
      delta_(epsilon / (2.0 * static_cast<double>(num_buckets))) {
  const size_t levels =
      num_buckets_ > 1 ? static_cast<size_t>(num_buckets_ - 1) : 0;
  queues_.resize(levels);
  open_start_herror_.assign(levels, 0.0);
  has_open_.assign(levels, false);
  herr_cur_.assign(static_cast<size_t>(num_buckets_) + 1, 0.0);
  herr_prev_.assign(static_cast<size_t>(num_buckets_) + 1, 0.0);
}

double AgglomerativeHistogram::SpanError(int64_t from_p, long double from_sum,
                                         long double from_sqsum, int64_t to_p,
                                         long double to_sum,
                                         long double to_sqsum) {
  STREAMHIST_DCHECK(to_p >= from_p);
  return SqErrorFromPrefixes(from_sum, from_sqsum, to_sum, to_sqsum,
                             to_p - from_p);
}

void AgglomerativeHistogram::Append(double value) {
  prev_sum_ = total_sum_;
  prev_sqsum_ = total_sqsum_;
  total_sum_ += value;
  total_sqsum_ += static_cast<long double>(value) * value;
  ++count_;
  const int64_t n = count_;

  std::swap(herr_prev_, herr_cur_);

  // HERROR[n][1] = SQERROR(0, n).
  herr_cur_[1] = SpanError(0, 0.0L, 0.0L, n, total_sum_, total_sqsum_);

  const double dn = static_cast<double>(n);
  const double dsum = static_cast<double>(total_sum_);
  const double dsq = static_cast<double>(total_sqsum_);
  // How far a computed span may fall below a newer one in the same queue
  // through rounding, doubled to cover the skip test's own rounding: the
  // scan's double arithmetic and the rounding of the cached sums
  // (256 * u_double) and the long-double running sums' accumulation
  // (16 * u_long_double * (1 + sqrt(n))), all relative to n * SQSUM.
  // Derivation in DESIGN.md §3.3. Non-finite totals make it NaN or
  // infinite, which disables skipping.
  const double skip_slack =
      dsq * dn *
      (256.0 * kUnitDouble + 16.0 * kUnitLongDouble * (1.0 + std::sqrt(dn)));

  // HERROR[n][k] minimized over snapshotted endpoints of queue k-1 plus the
  // implicit candidate p = n-1 (the open interval's right end, whose prefix
  // sums are the pre-append totals and whose HERROR is last step's value).
  for (int64_t k = 2; k <= num_buckets_; ++k) {
    if (n <= k) {
      herr_cur_[static_cast<size_t>(k)] = 0.0;
      continue;
    }
    double best = herr_prev_[static_cast<size_t>(k - 1)] +
                  SpanError(n - 1, prev_sum_, prev_sqsum_, n, total_sum_,
                            total_sqsum_);
    // Scan the queue from the most recent endpoint backwards in blocks of
    // kScanBlock anchored at the newest entry: the last bucket [e.p, n) only
    // widens, so its span is non-decreasing as we go back, and once the
    // widest span of a block alone reaches the best total no earlier entry
    // can improve — a prune that keeps the scan near the balance point.
    // This is the ingest hot loop (thousands of endpoints per append at
    // large n), so each block's candidates are computed branch-free into an
    // array and reduced by independent `a < b ? a : b` accumulators. Every
    // candidate is >= 0 or NaN (which both forms ignore), so the minimum's
    // value does not depend on the order: the result is bit-identical to a
    // sequential `if (cand < best) best = cand` scan of the same blocks.
    // A block is skipped outright when its minimum herror plus its
    // narrowest span exceeds best by more than skip_slack (DESIGN.md §3.3):
    // then no candidate in it can be below best, so a full evaluation would
    // leave best unchanged. Its widest span is still evaluated for the
    // stop, so exactly the same blocks are visited as without skipping.
    const EndpointQueue& queue = queues_[static_cast<size_t>(k - 2)];
    const double* const qp = queue.p.data();
    const double* const qsum = queue.sum.data();
    const double* const qsq = queue.sqsum.data();
    const double* const qh = queue.herror.data();
    const double* const block_min = queue.block_min_herror.data();
    size_t endi = queue.size();
    while (endi > 0) {
      const size_t begini = endi >= kScanBlock ? endi - kScanBlock : 0;
      const double widest =
          ScanSpan(dn, dsum, dsq, qp[begini], qsum[begini], qsq[begini]);
      const double narrowest = ScanSpan(dn, dsum, dsq, qp[endi - 1],
                                        qsum[endi - 1], qsq[endi - 1]);
      const double min_herror = std::min(block_min[begini / kScanBlock],
                                         block_min[(endi - 1) / kScanBlock]);
      const bool skip =
          min_herror + narrowest >
          best + (skip_slack + 8.0 * kUnitDouble * std::abs(best));
      if (!skip) {
        const size_t m = endi - begini;
        double cands[kScanBlock];
        for (size_t i = 0; i < m; ++i) {
          const size_t e = begini + i;
          cands[i] = qh[e] + ScanSpan(dn, dsum, dsq, qp[e], qsum[e], qsq[e]);
        }
        for (size_t i = m; i < kScanBlock; ++i) cands[i] = kInf;
        constexpr size_t kLanes = 8;
        double lanes[kLanes];
        for (double& lane : lanes) lane = best;
        for (size_t i = 0; i < kScanBlock; i += kLanes) {
          for (size_t j = 0; j < kLanes; ++j) {
            lanes[j] = cands[i + j] < lanes[j] ? cands[i + j] : lanes[j];
          }
        }
        for (double lane : lanes) best = lane < best ? lane : best;
      }
      if (widest >= best) break;
      endi = begini;
    }
    herr_cur_[static_cast<size_t>(k)] = best;
  }

  // Interval maintenance for levels 1..B-1 (figure 3, lines 7-10): when the
  // level's HERROR leaves the (1+delta) band of the open interval's start,
  // close the interval at p = n-1 (snapshotting the pre-append sums and last
  // step's HERROR) and open a new one at n.
  for (int64_t k = 1; k < num_buckets_; ++k) {
    const size_t ki = static_cast<size_t>(k - 1);
    const double h = herr_cur_[static_cast<size_t>(k)];
    if (!has_open_[ki]) {
      has_open_[ki] = true;
      open_start_herror_[ki] = h;
    } else if (h > (1.0 + delta_) * open_start_herror_[ki]) {
      queues_[ki].Push(n - 1, herr_prev_[static_cast<size_t>(k)], prev_sum_,
                       prev_sqsum_);
      open_start_herror_[ki] = h;
    }
  }
}

double AgglomerativeHistogram::ApproxError() const {
  if (count_ == 0) return 0.0;
  return herr_cur_[static_cast<size_t>(num_buckets_)];
}

int64_t AgglomerativeHistogram::total_stored_entries() const {
  int64_t total = 0;
  for (const auto& q : queues_) total += static_cast<int64_t>(q.size());
  return total;
}

int64_t AgglomerativeHistogram::MemoryBytes() const {
  size_t bytes = herr_cur_.capacity() * sizeof(double) +
                 herr_prev_.capacity() * sizeof(double) +
                 open_start_herror_.capacity() * sizeof(double) +
                 queues_.capacity() * sizeof(EndpointQueue);
  for (const auto& q : queues_) bytes += q.MemoryBytes();
  return static_cast<int64_t>(bytes);
}

Histogram AgglomerativeHistogram::Extract() const {
  // Null context: ExtractImpl cannot cancel, the Result always holds a value.
  return ExtractImpl(nullptr).value();
}

Result<Histogram> AgglomerativeHistogram::ExtractCancellable(
    const ExecContext& ctx) const {
  return ExtractImpl(&ctx);
}

Result<Histogram> AgglomerativeHistogram::ExtractImpl(
    const ExecContext* ctx) const {
  const auto stop_requested = [ctx] {
    return ctx != nullptr && ctx->ShouldStop();
  };
  if (count_ == 0) return Histogram();
  const int64_t n = count_;
  if (num_buckets_ == 1) {
    return Histogram::FromBucketsUnchecked(
        {Bucket{0, n, static_cast<double>(total_sum_ /
                                          static_cast<long double>(n))}});
  }

  // Sparse DP over snapshotted endpoints. cands[k] (k in [0, B-1]) are the
  // admissible positions for the boundary after bucket k; cands[0] is the
  // origin. Every level also gets the open endpoint p = n-1 so recent
  // arrivals can end a bucket.
  struct Cand {
    int64_t p;
    long double sum;
    long double sqsum;
    double f;       // best error of covering [0, p) with k buckets
    int32_t back;   // index into cands[k-1]
  };
  std::vector<std::vector<Cand>> cands(static_cast<size_t>(num_buckets_));
  cands[0].push_back(Cand{0, 0.0L, 0.0L, 0.0, -1});
  for (int64_t k = 1; k < num_buckets_; ++k) {
    auto& lvl = cands[static_cast<size_t>(k)];
    // The origin doubles as "bucket k unused".
    lvl.push_back(Cand{0, 0.0L, 0.0L, 0.0, 0});
    const EndpointQueue& queue = queues_[static_cast<size_t>(k - 1)];
    for (size_t j = 0; j < queue.size(); ++j) {
      lvl.push_back(Cand{static_cast<int64_t>(queue.p[j]), queue.exact[j].sum,
                         queue.exact[j].sqsum, kInf, -1});
    }
    if (n - 1 > 0 && (lvl.back().p < n - 1)) {
      lvl.push_back(Cand{n - 1, prev_sum_, prev_sqsum_, kInf, -1});
    }
  }

  // Levels stay sequential (level k reads level k-1's finished f values);
  // within a level each candidate minimizes over the previous level
  // independently and writes only its own slot, so the merge sweep is
  // data-parallel and bit-identical to the serial order.
  for (int64_t k = 1; k < num_buckets_; ++k) {
    auto& lvl = cands[static_cast<size_t>(k)];
    const auto& prev = cands[static_cast<size_t>(k - 1)];
    // skip the origin sentinel at ci == 0
    ParallelFor(1, static_cast<int64_t>(lvl.size()), /*grain=*/64,
                [&](int64_t ci_begin, int64_t ci_end) {
      if (stop_requested()) return;
      for (int64_t ci = ci_begin; ci < ci_end; ++ci) {
        Cand& c = lvl[static_cast<size_t>(ci)];
        for (size_t di = 0; di < prev.size(); ++di) {
          const Cand& d = prev[di];
          // d.p == c.p is allowed: a zero-width (unused) bucket, needed when
          // the optimum uses fewer than B buckets (e.g. tiny prefixes).
          if (d.p > c.p) break;  // candidates are sorted by p
          if (d.f == kInf) continue;
          const double candidate =
              d.f + SpanError(d.p, d.sum, d.sqsum, c.p, c.sum, c.sqsum);
          if (candidate < c.f) {
            c.f = candidate;
            c.back = static_cast<int32_t>(di);
          }
        }
      }
    });
    if (stop_requested()) {
      return Status::Cancelled("agglomerative extraction cancelled at level " +
                               std::to_string(k));
    }
  }

  // Final bucket ends at n with the total sums.
  const auto& last = cands[static_cast<size_t>(num_buckets_ - 1)];
  double best = kInf;
  int32_t best_d = -1;
  for (size_t di = 0; di < last.size(); ++di) {
    const Cand& d = last[di];
    if (d.p >= n || d.f == kInf) continue;
    const double candidate =
        d.f + SpanError(d.p, d.sum, d.sqsum, n, total_sum_, total_sqsum_);
    if (candidate < best) {
      best = candidate;
      best_d = static_cast<int32_t>(di);
    }
  }
  STREAMHIST_CHECK_GE(best_d, 0);

  // Backtrack boundary snapshots from level B-1 down to the origin.
  struct Snapshot {
    int64_t p;
    long double sum;
  };
  std::vector<Snapshot> bounds;
  bounds.push_back(Snapshot{n, total_sum_});
  int32_t di = best_d;
  for (int64_t k = num_buckets_ - 1; k >= 1; --k) {
    const Cand& d = cands[static_cast<size_t>(k)][static_cast<size_t>(di)];
    if (d.p == 0) break;
    bounds.push_back(Snapshot{d.p, d.sum});
    di = d.back;
  }
  bounds.push_back(Snapshot{0, 0.0L});
  std::reverse(bounds.begin(), bounds.end());

  std::vector<Bucket> buckets;
  buckets.reserve(bounds.size() - 1);
  for (size_t t = 0; t + 1 < bounds.size(); ++t) {
    const int64_t begin = bounds[t].p;
    const int64_t end = bounds[t + 1].p;
    if (begin == end) continue;
    const double mean = static_cast<double>(
        (bounds[t + 1].sum - bounds[t].sum) / static_cast<long double>(end - begin));
    buckets.push_back(Bucket{begin, end, mean});
  }
  return Histogram::FromBucketsUnchecked(std::move(buckets));
}

namespace {
constexpr uint32_t kAgglomerativeMagic = 0x53484147;  // "SHAG"
constexpr uint32_t kAgglomerativeVersion = 1;
// Entry payload: p i64 + sum/sqsum long-double pairs + herror f64.
constexpr size_t kBytesPerEntry = 8 + 16 + 16 + 8;

bool FiniteLd(long double v) { return std::isfinite(static_cast<double>(v)); }
}  // namespace

std::string AgglomerativeHistogram::Serialize() const {
  ByteWriter payload;
  payload.PutI64(num_buckets_);
  payload.PutF64(epsilon_);
  payload.PutI64(count_);
  payload.PutLongDouble(total_sum_);
  payload.PutLongDouble(total_sqsum_);
  payload.PutLongDouble(prev_sum_);
  payload.PutLongDouble(prev_sqsum_);
  for (double h : herr_cur_) payload.PutF64(h);
  for (double h : herr_prev_) payload.PutF64(h);
  for (size_t ki = 0; ki < queues_.size(); ++ki) {
    payload.PutF64(open_start_herror_[ki]);
    payload.PutBool(has_open_[ki]);
    const EndpointQueue& queue = queues_[ki];
    payload.PutU64(queue.size());
    for (size_t j = 0; j < queue.size(); ++j) {
      payload.PutI64(static_cast<int64_t>(queue.p[j]));
      payload.PutLongDouble(queue.exact[j].sum);
      payload.PutLongDouble(queue.exact[j].sqsum);
      payload.PutF64(queue.herror[j]);
    }
  }
  return WrapFrame(kAgglomerativeMagic, kAgglomerativeVersion,
                   payload.bytes());
}

Result<AgglomerativeHistogram> AgglomerativeHistogram::Deserialize(
    std::string_view bytes) {
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView frame,
      UnwrapFrame(bytes, kAgglomerativeMagic, "agglomerative histogram"));
  if (frame.version != kAgglomerativeVersion) {
    return Status::InvalidArgument("unsupported agglomerative version");
  }
  ByteReader reader(frame.payload);
  ApproxHistogramOptions options;
  int64_t count = 0;
  long double total_sum = 0.0L, total_sqsum = 0.0L, prev_sum = 0.0L,
              prev_sqsum = 0.0L;
  if (!reader.ReadI64(&options.num_buckets) ||
      !reader.ReadF64(&options.epsilon) || !reader.ReadI64(&count) ||
      !reader.ReadLongDouble(&total_sum) ||
      !reader.ReadLongDouble(&total_sqsum) ||
      !reader.ReadLongDouble(&prev_sum) ||
      !reader.ReadLongDouble(&prev_sqsum)) {
    return Status::InvalidArgument("truncated agglomerative header");
  }
  if (!std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("agglomerative epsilon is not finite");
  }
  // Beyond any plausible bucket budget; also bounds the herr vector reads.
  if (options.num_buckets > (int64_t{1} << 20)) {
    return Status::InvalidArgument("agglomerative bucket budget too large");
  }
  STREAMHIST_ASSIGN_OR_RETURN(AgglomerativeHistogram hist, Create(options));
  if (count < 0 || !FiniteLd(total_sum) || !FiniteLd(total_sqsum) ||
      !FiniteLd(prev_sum) || !FiniteLd(prev_sqsum)) {
    return Status::InvalidArgument("agglomerative totals violate invariants");
  }
  hist.count_ = count;
  hist.total_sum_ = total_sum;
  hist.total_sqsum_ = total_sqsum;
  hist.prev_sum_ = prev_sum;
  hist.prev_sqsum_ = prev_sqsum;
  for (std::vector<double>* herr : {&hist.herr_cur_, &hist.herr_prev_}) {
    for (double& h : *herr) {
      if (!reader.ReadF64(&h) || !std::isfinite(h)) {
        return Status::InvalidArgument("malformed agglomerative error table");
      }
    }
  }
  for (size_t ki = 0; ki < hist.queues_.size(); ++ki) {
    uint64_t entries = 0;
    bool has_open = false;
    if (!reader.ReadF64(&hist.open_start_herror_[ki]) ||
        !reader.ReadBool(&has_open) || !reader.ReadU64(&entries)) {
      return Status::InvalidArgument("truncated agglomerative level");
    }
    hist.has_open_[ki] = has_open;
    if (entries > reader.remaining() / kBytesPerEntry) {
      return Status::InvalidArgument(
          "agglomerative entry count exceeds payload");
    }
    EndpointQueue& queue = hist.queues_[ki];
    int64_t last_p = 0;
    for (uint64_t j = 0; j < entries; ++j) {
      int64_t p = 0;
      long double sum = 0.0L, sqsum = 0.0L;
      double herror = 0.0;
      if (!reader.ReadI64(&p) || !reader.ReadLongDouble(&sum) ||
          !reader.ReadLongDouble(&sqsum) || !reader.ReadF64(&herror)) {
        return Status::InvalidArgument("truncated agglomerative entries");
      }
      // p is stored as a double, exact up to 2^53.
      if (p <= last_p || p >= count || p > (int64_t{1} << 53) ||
          !FiniteLd(sum) || !FiniteLd(sqsum) || !std::isfinite(herror)) {
        return Status::InvalidArgument(
            "agglomerative entries violate invariants");
      }
      last_p = p;
      queue.Push(p, herror, sum, sqsum);
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after agglomerative state");
  }
  return hist;
}

}  // namespace streamhist
