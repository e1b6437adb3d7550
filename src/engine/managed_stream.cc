#include "src/engine/managed_stream.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "src/core/approx_dp.h"
#include "src/core/vopt_dp.h"
#include "src/core/vopt_kernel.h"
#include "src/util/framing.h"
#include "src/util/governor.h"
#include "src/util/logging.h"

namespace streamhist {

int64_t DefaultPublishStalenessMillis() {
  static const int64_t cached = [] {
    const char* env = std::getenv("STREAMHIST_PUBLISH_STALENESS_MS");
    if (env == nullptr) return int64_t{0};
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 0) return int64_t{0};
    return static_cast<int64_t>(parsed);
  }();
  return cached;
}

WindowSection::WindowSection(Histogram histogram,
                             std::vector<double> bucket_errors,
                             double approx_error)
    : histogram_(std::move(histogram)),
      bucket_errors_(std::move(bucket_errors)),
      approx_error_(approx_error) {
  ready_.store(true, std::memory_order_release);
}

WindowSection::WindowSection(const FixedWindowOptions& options,
                             std::vector<double> contents)
    : options_(options), frozen_(std::move(contents)) {}

void WindowSection::Materialize() const {
  if (ready_.load(std::memory_order_acquire)) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (ready_.load(std::memory_order_relaxed)) return;
  FixedWindowHistogram fw =
      FixedWindowHistogram::FromContents(options_, frozen_);
  approx_error_ = fw.ApproxError();
  histogram_ = fw.Extract();
  bucket_errors_ = fw.BucketErrors();
  frozen_.clear();
  frozen_.shrink_to_fit();
  ready_.store(true, std::memory_order_release);
}

const Histogram& WindowSection::histogram() const {
  Materialize();
  return histogram_;
}

const std::vector<double>& WindowSection::bucket_errors() const {
  Materialize();
  return bucket_errors_;
}

double WindowSection::approx_error() const {
  Materialize();
  return approx_error_;
}

const std::string& QuerySnapshot::describe() const {
  if (!describe_ready_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(describe_mu_);
    if (!describe_ready_.load(std::memory_order_relaxed)) {
      // Byte-identical to the pre-PR8 eager DESCRIBE line, composed from
      // the frozen seed instead of the live synopses.
      std::ostringstream os;
      os << total_points << " points seen; window " << window_size << "/"
         << describe_seed.window_capacity << ", B=" << describe_seed.num_buckets
         << ", eps=" << describe_seed.epsilon
         << ", window error=" << approx_error();
      if (describe_seed.build_approx) {
        os << "; build=approx(delta=" << describe_seed.build_delta << ")";
      } else {
        os << "; build=exact";
      }
      if (describe_seed.has_lifetime) {
        os << "; lifetime error=" << describe_seed.lifetime_error;
      }
      if (quantiles != nullptr && quantiles->size() > 0) {
        os << "; p50=" << quantiles->Quantile(0.5);
      }
      if (has_distinct) {
        os << "; ~" << static_cast<int64_t>(distinct_estimate)
           << " distinct values";
      }
      os << "; " << dropped_nonfinite << " non-finite dropped";
      if (describe_seed.wal_lsn > 0) {
        os << "; wal lsn=" << describe_seed.wal_lsn;
      }
      if (describe_seed.degraded_builds > 0) {
        os << "; degraded builds=" << describe_seed.degraded_builds;
        if (!describe_seed.last_degradation.empty()) {
          os << "; last build: " << describe_seed.last_degradation;
        }
      }
      describe_ = os.str();
      describe_ready_.store(true, std::memory_order_release);
    }
  }
  return describe_;
}

// Mutated only under the stream's writer mutex (PublishStats inside is
// additionally safe to read from any thread).
struct ManagedStream::PublishState {
  PublishStats stats;
  // Change tracking since the last publish: which sections must be rebuilt
  // versus shared with the previous snapshot (copy-on-write).
  bool window_changed = true;
  bool quantiles_changed = true;
  int64_t fm_mutations_at_publish = -1;
  double cached_distinct = 0.0;
  std::shared_ptr<const WindowSection> last_window;
  std::shared_ptr<const GKSummary> last_quantiles;
  // Coalescing: set when a committed batch is not yet published.
  bool dirty = false;
  std::chrono::steady_clock::time_point dirty_since{};
};

const char* BuildRungName(BuildRung rung) {
  switch (rung) {
    case BuildRung::kExact:
      return "exact";
    case BuildRung::kApprox:
      return "approx";
    case BuildRung::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

std::string DegradationReport::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) os << " -> ";
    const Attempt& a = attempts[i];
    os << BuildRungName(a.rung);
    if (a.rung == BuildRung::kApprox) {
      os << "(delta=" << a.delta << ")";
    } else if (a.rung == BuildRung::kSnapshot) {
      os << "(eps=" << a.delta << ")";
    }
    if (!a.completed) os << "[" << a.reason << "]";
  }
  return os.str();
}

Result<ManagedStream> ManagedStream::Create(const StreamConfig& config) {
  if (!std::isfinite(config.build_delta) || config.build_delta < 0.0) {
    return Status::InvalidArgument("build_delta must be finite and >= 0");
  }
  FixedWindowOptions window_options;
  window_options.window_size = config.window_size;
  window_options.num_buckets = config.num_buckets;
  window_options.epsilon = config.epsilon;
  window_options.rebuild_on_append = false;  // queries trigger rebuilds
  STREAMHIST_ASSIGN_OR_RETURN(FixedWindowHistogram window,
                              FixedWindowHistogram::Create(window_options));

  ManagedStream stream(config, std::move(window));
  if (stream.config_.publish_staleness_ms < 0) {
    stream.config_.publish_staleness_ms = DefaultPublishStalenessMillis();
  }
  if (config.keep_lifetime_histogram) {
    ApproxHistogramOptions lifetime_options;
    lifetime_options.num_buckets = config.num_buckets;
    lifetime_options.epsilon = config.epsilon;
    STREAMHIST_ASSIGN_OR_RETURN(AgglomerativeHistogram lifetime,
                                AgglomerativeHistogram::Create(lifetime_options));
    stream.lifetime_ =
        std::make_unique<AgglomerativeHistogram>(std::move(lifetime));
  }
  if (config.keep_quantiles) {
    STREAMHIST_ASSIGN_OR_RETURN(GKSummary summary,
                                GKSummary::Create(config.quantile_epsilon));
    stream.quantiles_ = std::make_unique<GKSummary>(std::move(summary));
  }
  if (config.keep_distinct) {
    STREAMHIST_ASSIGN_OR_RETURN(FMSketch sketch, FMSketch::Create(256));
    stream.distinct_ = std::make_unique<FMSketch>(std::move(sketch));
  }
  stream.ReconcileGovernorCharge();
  stream.PublishSnapshot();
  return stream;
}

ManagedStream::ManagedStream(const StreamConfig& config,
                             FixedWindowHistogram window)
    : config_(config),
      window_(std::make_unique<FixedWindowHistogram>(std::move(window))),
      snapshot_cell_(std::make_shared<SnapshotCell<QuerySnapshot>>()),
      stats_(std::make_unique<QueryStats>()),
      publish_(std::make_unique<PublishState>()) {}

ManagedStream::ManagedStream(ManagedStream&& other) noexcept
    : config_(other.config_),
      dropped_nonfinite_(other.dropped_nonfinite_),
      degraded_builds_(other.degraded_builds_),
      wal_lsn_(other.wal_lsn_),
      charged_bytes_(std::exchange(other.charged_bytes_, 0)),
      publish_version_(other.publish_version_),
      last_degradation_(std::move(other.last_degradation_)),
      window_(std::move(other.window_)),
      lifetime_(std::move(other.lifetime_)),
      quantiles_(std::move(other.quantiles_)),
      distinct_(std::move(other.distinct_)),
      snapshot_cell_(std::move(other.snapshot_cell_)),
      stats_(std::move(other.stats_)),
      publish_(std::move(other.publish_)) {}

ManagedStream& ManagedStream::operator=(ManagedStream&& other) noexcept {
  if (this == &other) return *this;
  ReleaseGovernorCharge();
  config_ = other.config_;
  dropped_nonfinite_ = other.dropped_nonfinite_;
  degraded_builds_ = other.degraded_builds_;
  wal_lsn_ = other.wal_lsn_;
  charged_bytes_ = std::exchange(other.charged_bytes_, 0);
  publish_version_ = other.publish_version_;
  last_degradation_ = std::move(other.last_degradation_);
  window_ = std::move(other.window_);
  lifetime_ = std::move(other.lifetime_);
  quantiles_ = std::move(other.quantiles_);
  distinct_ = std::move(other.distinct_);
  snapshot_cell_ = std::move(other.snapshot_cell_);
  stats_ = std::move(other.stats_);
  publish_ = std::move(other.publish_);
  return *this;
}

ManagedStream::~ManagedStream() { ReleaseGovernorCharge(); }

void ManagedStream::AppendValue(double value) {
  if (!std::isfinite(value)) {
    ++dropped_nonfinite_;
    return;
  }
  window_->Append(value);
  publish_->window_changed = true;
  if (lifetime_ != nullptr) lifetime_->Append(value);
  if (quantiles_ != nullptr) {
    quantiles_->Insert(value);
    publish_->quantiles_changed = true;
  }
  if (distinct_ != nullptr) distinct_->AddValue(value);
}

void ManagedStream::Append(double value) {
  AppendValue(value);
  ReconcileGovernorCharge();
}

void ManagedStream::AppendBatch(std::span<const double> values) {
  for (double v : values) AppendValue(v);
  ReconcileGovernorCharge();
}

int64_t ManagedStream::CommitAppendBatch(std::span<const double> values) {
  const int64_t dropped_before = dropped_nonfinite_;
  for (double v : values) AppendValue(v);
  ReconcileGovernorCharge();
  PublishState& ps = *publish_;
  const auto now = std::chrono::steady_clock::now();
  if (!ps.dirty) {
    ps.dirty = true;
    ps.dirty_since = now;
  }
  const int64_t bound_ms = publish_staleness_ms();
  if (bound_ms <= 0 ||
      now - ps.dirty_since >= std::chrono::milliseconds(bound_ms)) {
    PublishSnapshot();
  } else {
    ps.stats.RecordSkipped();
  }
  return dropped_nonfinite_ - dropped_before;
}

bool ManagedStream::FlushIfDirty() {
  if (!publish_->dirty) return false;
  PublishSnapshot();
  return true;
}

bool ManagedStream::PublishPending() const { return publish_->dirty; }

PublishStats& ManagedStream::publish_stats() { return publish_->stats; }
const PublishStats& ManagedStream::publish_stats() const {
  return publish_->stats;
}

void ManagedStream::Refresh() {
  window_->ApproxError();   // rebuilds the interval structure when stale
  (void)window_->Extract();  // materializes (and caches) the histogram
  ReconcileGovernorCharge();
}

int64_t ManagedStream::total_points() const {
  return window_->window().total_appended();
}

int64_t ManagedStream::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(ManagedStream));
  if (window_ != nullptr) bytes += window_->MemoryBytes();
  if (lifetime_ != nullptr) bytes += lifetime_->MemoryBytes();
  if (quantiles_ != nullptr) bytes += quantiles_->MemoryBytes();
  if (distinct_ != nullptr) bytes += distinct_->MemoryBytes();
  return bytes;
}

int64_t ManagedStream::EstimateFootprintBytes(const StreamConfig& config) {
  const int64_t n = std::max<int64_t>(config.window_size, 1);
  const int64_t b = std::max<int64_t>(config.num_buckets, 1);
  // Sliding window: the value ring plus two long-double cumulative arrays;
  // the fixed window's rebuild keeps a flat copy of the two.
  int64_t bytes = n * 8 + 4 * (n + 1) * 16;
  // Fixed-window memo table and epoch stamps: (B+1) * (n+1) slots.
  bytes += (b + 1) * (n + 1) * (16 + 4);
  // Interval lists: B-1 levels of at most ln(n) / ln(1 + delta) endpoints
  // (and at most n), delta = eps / (2B) — the paper's O((1/delta) log n)
  // per level with constant 1. Measured lists (B = 16, eps = 0.1, n = 1024
  // and 8192) hold about half of it, which leaves room for vector capacity
  // slack. The lifetime histogram's lists are costed at one window's worth
  // of points; past that they grow with the log of the stream length, and
  // the stream's charge follows its actual footprint
  // (ReconcileGovernorCharge).
  const double delta = config.epsilon / (2.0 * static_cast<double>(b));
  double per_level_bound = static_cast<double>(n);
  if (delta > 0.0) {  // clamped in double: a tiny delta overflows int64_t
    per_level_bound = std::min(
        per_level_bound,
        std::ceil(std::log(static_cast<double>(n) + 1.0) / std::log1p(delta)));
  }
  const auto per_level = static_cast<int64_t>(per_level_bound);
  const int64_t entries = (b - 1) * per_level;
  // A fixed-window endpoint: p, HERROR and its two long-double prefix sums.
  bytes += entries * (8 + 8 + 2 * 16);
  // A lifetime endpoint: its two long-double prefix sums plus four double
  // scan columns (p, HERROR and the sums rounded); the per-block HERROR
  // minimum adds one double per 64 endpoints.
  if (config.keep_lifetime_histogram) bytes += entries * (2 * 16 + 4 * 8);
  // GK summary and FM sketch: small logarithmic-size synopses.
  bytes += 64 * 1024;
  return bytes;
}

void ManagedStream::ReconcileGovernorCharge() {
  const int64_t now = MemoryBytes();
  governor::AdjustCharge(now - charged_bytes_);
  charged_bytes_ = now;
}

void ManagedStream::ReleaseGovernorCharge() {
  if (charged_bytes_ != 0) {
    governor::Release(charged_bytes_);
    charged_bytes_ = 0;
  }
}

Status ManagedStream::SetBuildMode(WindowBuildMode mode, double delta) {
  if (mode == WindowBuildMode::kApprox &&
      (!std::isfinite(delta) || delta < 0.0)) {
    return Status::InvalidArgument("build delta must be finite and >= 0");
  }
  config_.build_mode = mode;
  if (mode == WindowBuildMode::kApprox) config_.build_delta = delta;
  return Status::OK();
}

namespace {

// Scratch footprint of the approximate DP: the prefix-sum arrays plus the
// contents copy dominate; the sparse endpoint queues are O((B^2/delta) log n)
// and negligible next to them.
int64_t ApproxDpScratchBytes(int64_t n) {
  return 3 * (n + 1) * static_cast<int64_t>(sizeof(long double)) + n * 8;
}

double ElapsedMillis(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

WindowBuildReport ManagedStream::BuildWindowHistogram(
    const Deadline& deadline) {
  const std::vector<double> contents = window_->window().ToVector();
  const int64_t n = static_cast<int64_t>(contents.size());

  WindowBuildReport report;
  report.mode = config_.build_mode;
  report.points = n;

  // Rung plan: the configured mode's rung first, then the approximate DP at
  // escalating standard slacks (only those strictly looser than the
  // configured one), then the maintained snapshot, which cannot fail.
  struct PlannedRung {
    BuildRung rung;
    double delta;
  };
  std::vector<PlannedRung> plan;
  if (config_.build_mode == WindowBuildMode::kExact) {
    plan.push_back({BuildRung::kExact, 0.0});
  } else {
    plan.push_back({BuildRung::kApprox, config_.build_delta});
  }
  for (double d : {0.01, 0.1, 0.5}) {
    if (config_.build_mode == WindowBuildMode::kApprox &&
        d <= config_.build_delta) {
      continue;
    }
    plan.push_back({BuildRung::kApprox, d});
  }
  plan.push_back({BuildRung::kSnapshot, config_.epsilon});

  bool completed = false;
  for (const PlannedRung& rung : plan) {
    DegradationReport::Attempt attempt;
    attempt.rung = rung.rung;
    attempt.delta = rung.delta;
    const auto start = std::chrono::steady_clock::now();
    auto finish = [&](bool ok, std::string reason) {
      attempt.elapsed_ms = ElapsedMillis(start);
      attempt.completed = ok;
      attempt.reason = std::move(reason);
      report.degradation.attempts.push_back(std::move(attempt));
    };

    if (rung.rung == BuildRung::kSnapshot) {
      // The continuously-maintained window histogram: no scratch tables, no
      // rebuild from raw points, no deadline consultation — this rung always
      // terminates, which is what makes the ladder total. Its (1+epsilon)
      // certificate is the fixed-window maintenance guarantee.
      report.histogram = window_->Extract();
      double sse = 0.0;
      for (double e : window_->BucketErrors()) sse += e;
      report.sse = sse;
      report.bound_factor = 1.0 + config_.epsilon;
      report.rung = rung.rung;
      report.delta = rung.delta;
      finish(true, "");
      completed = true;
      break;
    }

    const int64_t scratch = rung.rung == BuildRung::kExact
                                ? vopt_internal::DpScratchBytes(
                                      n, config_.num_buckets)
                                : ApproxDpScratchBytes(n);
    governor::ScopedCharge charge(scratch);
    if (!charge.ok()) {
      finish(false, "memory governor refused " + std::to_string(scratch) +
                        " bytes of DP scratch");
      continue;
    }
    ExecContext ctx(deadline);
    if (ctx.ShouldStop()) {
      finish(false, "deadline expired before start");
      continue;
    }
    if (rung.rung == BuildRung::kExact) {
      Result<OptimalHistogramResult> exact = BuildVOptimalHistogramCancellable(
          contents, config_.num_buckets, ctx);
      if (!exact.ok()) {
        finish(false, exact.status().message());
        continue;
      }
      OptimalHistogramResult r = std::move(exact).value();
      report.histogram = std::move(r.histogram);
      report.sse = r.error;
      report.bound_factor = 1.0;
    } else {
      Result<ApproxHistogramResult> approx =
          BuildApproxVOptimalHistogramCancellable(contents, config_.num_buckets,
                                                  rung.delta, ctx);
      if (!approx.ok()) {
        finish(false, approx.status().message());
        continue;
      }
      ApproxHistogramResult r = std::move(approx).value();
      report.histogram = std::move(r.histogram);
      report.sse = r.sse;
      report.bound_factor = r.bound_factor;
    }
    report.rung = rung.rung;
    report.delta = rung.delta;
    finish(true, "");
    completed = true;
    break;
  }
  STREAMHIST_CHECK(completed) << "degradation ladder fell through";

  report.degradation.degraded = report.degradation.attempts.size() > 1;
  if (report.degradation.degraded) ++degraded_builds_;
  last_degradation_ = report.degradation;
  return report;
}

std::string ManagedStream::Describe() {
  std::ostringstream os;
  os << total_points() << " points seen; window " << window_->window().size()
     << "/" << config_.window_size << ", B=" << config_.num_buckets
     << ", eps=" << config_.epsilon
     << ", window error=" << window_->ApproxError();
  if (config_.build_mode == WindowBuildMode::kApprox) {
    os << "; build=approx(delta=" << config_.build_delta << ")";
  } else {
    os << "; build=exact";
  }
  if (lifetime_ != nullptr) {
    os << "; lifetime error=" << lifetime_->ApproxError();
  }
  if (quantiles_ != nullptr && quantiles_->size() > 0) {
    os << "; p50=" << quantiles_->Quantile(0.5);
  }
  if (distinct_ != nullptr) {
    os << "; ~" << static_cast<int64_t>(distinct_->EstimateDistinct())
       << " distinct values";
  }
  os << "; " << dropped_nonfinite_ << " non-finite dropped";
  if (wal_lsn_ > 0) os << "; wal lsn=" << wal_lsn_;
  if (degraded_builds_ > 0) {
    os << "; degraded builds=" << degraded_builds_;
    if (last_degradation_.degraded) {
      os << "; last build: " << last_degradation_.ToString();
    }
  }
  return os.str();
}

void ManagedStream::PublishSnapshot() {
  const auto start = std::chrono::steady_clock::now();
  PublishState& ps = *publish_;
  auto snap = std::make_shared<QuerySnapshot>();
  snap->version = ++publish_version_;
  snap->total_points = total_points();
  snap->window_size = window_->window().size();
  snap->dropped_nonfinite = dropped_nonfinite_;

  if (!ps.window_changed && ps.last_window != nullptr) {
    snap->window = ps.last_window;  // unchanged since last publish: share
  } else if (window_->HasCurrentHistogram()) {
    // Refresh/BUILD already paid for the rebuild — adopt it eagerly.
    snap->window = std::make_shared<const WindowSection>(
        window_->Extract(), window_->BucketErrors(), window_->ApproxError());
  } else {
    // Freeze the contents; the first histogram accessor materializes. This
    // is what keeps the publish path O(window) instead of O(rebuild).
    snap->window = std::make_shared<const WindowSection>(
        window_->options(), window_->window().ToVector());
  }
  ps.last_window = snap->window;
  ps.window_changed = false;

  if (quantiles_ != nullptr) {
    if (!ps.quantiles_changed && ps.last_quantiles != nullptr) {
      snap->quantiles = ps.last_quantiles;
    } else {
      snap->quantiles = std::make_shared<const GKSummary>(*quantiles_);
    }
    ps.last_quantiles = snap->quantiles;
    ps.quantiles_changed = false;
  }

  if (distinct_ != nullptr) {
    snap->has_distinct = true;
    const int64_t mutations = distinct_->mutations();
    if (mutations != ps.fm_mutations_at_publish) {
      ps.cached_distinct = distinct_->EstimateDistinct();
      ps.fm_mutations_at_publish = mutations;
    }
    snap->distinct_estimate = ps.cached_distinct;
  }

  QuerySnapshot::DescribeSeed& seed = snap->describe_seed;
  seed.window_capacity = config_.window_size;
  seed.num_buckets = config_.num_buckets;
  seed.epsilon = config_.epsilon;
  seed.build_approx = config_.build_mode == WindowBuildMode::kApprox;
  seed.build_delta = config_.build_delta;
  if (lifetime_ != nullptr) {
    seed.has_lifetime = true;
    seed.lifetime_error = lifetime_->ApproxError();  // O(1): maintained bound
  }
  seed.wal_lsn = wal_lsn_;
  seed.degraded_builds = degraded_builds_;
  if (degraded_builds_ > 0 && last_degradation_.degraded) {
    seed.last_degradation = last_degradation_.ToString();
  }

  int64_t staleness_us = 0;
  if (ps.dirty) {
    staleness_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       start - ps.dirty_since)
                       .count();
    ps.dirty = false;
  }

  snapshot_cell_->Publish(std::move(snap));
  ReconcileGovernorCharge();
  const auto end = std::chrono::steady_clock::now();
  ps.stats.RecordPublish(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count(),
      staleness_us);
}

std::shared_ptr<const QuerySnapshot> ManagedStream::AcquireSnapshot() const {
  return snapshot_cell_->Acquire();
}

namespace {
constexpr uint32_t kStreamMagic = 0x53484D53;  // "SHMS"
// v1: config through keep_distinct + dropped + synopsis blobs.
// v2: adds build_mode (bool: approx?) + build_delta after keep_distinct.
// v3: adds degraded_builds after dropped_nonfinite.
// v4: appends a length-prefixed per-verb stats block (stream_stats.h) after
//     the synopsis blobs — strictly at the tail, so every v1-v3 field keeps
//     its byte offset.
// v5: appends the stream's applied WAL LSN (i64) after the stats block —
//     again strictly at the tail. v1-v4 snapshots restore with LSN 0,
//     which makes recovery replay the whole retained log against them
//     (idempotent-safe: see query_engine.cc replay filtering).
// v6: appends a length-prefixed publication-stats block (PublishStats,
//     stream_stats.h) after the WAL LSN — strictly at the tail. v1-v5
//     snapshots restore with zeroed publication telemetry.
constexpr uint32_t kStreamVersion = 6;
}  // namespace

std::string ManagedStream::Snapshot(int64_t wal_lsn_floor) const {
  ByteWriter payload;
  payload.PutI64(config_.window_size);
  payload.PutI64(config_.num_buckets);
  payload.PutF64(config_.epsilon);
  payload.PutBool(config_.keep_lifetime_histogram);
  payload.PutBool(config_.keep_quantiles);
  payload.PutF64(config_.quantile_epsilon);
  payload.PutBool(config_.keep_distinct);
  payload.PutBool(config_.build_mode == WindowBuildMode::kApprox);
  payload.PutF64(config_.build_delta);
  payload.PutI64(dropped_nonfinite_);
  payload.PutI64(degraded_builds_);
  payload.PutLengthPrefixed(window_->Serialize());
  if (lifetime_ != nullptr) payload.PutLengthPrefixed(lifetime_->Serialize());
  if (quantiles_ != nullptr) {
    payload.PutLengthPrefixed(quantiles_->Serialize());
  }
  if (distinct_ != nullptr) payload.PutLengthPrefixed(distinct_->Serialize());
  payload.PutLengthPrefixed(stats_->Serialize());
  payload.PutI64(std::max(wal_lsn_, wal_lsn_floor));
  payload.PutLengthPrefixed(publish_->stats.Serialize());
  return WrapFrame(kStreamMagic, kStreamVersion, payload.bytes());
}

Result<ManagedStream> ManagedStream::Restore(std::string_view bytes) {
  STREAMHIST_ASSIGN_OR_RETURN(FrameView frame,
                              UnwrapFrame(bytes, kStreamMagic, "stream"));
  // Older snapshots stay loadable per the EXPERIMENTS.md version policy;
  // fields they predate get zero / config defaults.
  if (frame.version < 1 || frame.version > kStreamVersion) {
    return Status::InvalidArgument("unsupported stream snapshot version");
  }
  ByteReader reader(frame.payload);
  StreamConfig config;
  int64_t dropped = 0;
  int64_t degraded_builds = 0;
  std::string_view window_bytes;
  if (!reader.ReadI64(&config.window_size) ||
      !reader.ReadI64(&config.num_buckets) ||
      !reader.ReadF64(&config.epsilon) ||
      !reader.ReadBool(&config.keep_lifetime_histogram) ||
      !reader.ReadBool(&config.keep_quantiles) ||
      !reader.ReadF64(&config.quantile_epsilon) ||
      !reader.ReadBool(&config.keep_distinct)) {
    return Status::InvalidArgument("truncated stream snapshot");
  }
  if (frame.version >= 2) {
    bool approx = false;
    if (!reader.ReadBool(&approx) || !reader.ReadF64(&config.build_delta)) {
      return Status::InvalidArgument("truncated stream snapshot");
    }
    config.build_mode =
        approx ? WindowBuildMode::kApprox : WindowBuildMode::kExact;
  }
  if (!reader.ReadI64(&dropped)) {
    return Status::InvalidArgument("truncated stream snapshot");
  }
  if (frame.version >= 3 && !reader.ReadI64(&degraded_builds)) {
    return Status::InvalidArgument("truncated stream snapshot");
  }
  if (!reader.ReadLengthPrefixed(&window_bytes)) {
    return Status::InvalidArgument("truncated stream snapshot");
  }
  if (dropped < 0 || degraded_builds < 0) {
    return Status::InvalidArgument("stream counters violate invariants");
  }
  // Create() re-validates the config through every synopsis factory; the
  // freshly built synopses are then replaced by the deserialized ones.
  STREAMHIST_ASSIGN_OR_RETURN(ManagedStream stream, Create(config));
  stream.dropped_nonfinite_ = dropped;
  stream.degraded_builds_ = degraded_builds;

  STREAMHIST_ASSIGN_OR_RETURN(FixedWindowHistogram window,
                              FixedWindowHistogram::Deserialize(window_bytes));
  if (window.options().window_size != config.window_size ||
      window.options().num_buckets != config.num_buckets) {
    return Status::InvalidArgument(
        "window synopsis disagrees with stream config");
  }
  *stream.window_ = std::move(window);

  if (config.keep_lifetime_histogram) {
    std::string_view sub;
    if (!reader.ReadLengthPrefixed(&sub)) {
      return Status::InvalidArgument("truncated lifetime histogram snapshot");
    }
    STREAMHIST_ASSIGN_OR_RETURN(AgglomerativeHistogram lifetime,
                                AgglomerativeHistogram::Deserialize(sub));
    *stream.lifetime_ = std::move(lifetime);
  }
  if (config.keep_quantiles) {
    std::string_view sub;
    if (!reader.ReadLengthPrefixed(&sub)) {
      return Status::InvalidArgument("truncated quantile snapshot");
    }
    STREAMHIST_ASSIGN_OR_RETURN(GKSummary quantiles,
                                GKSummary::Deserialize(sub));
    *stream.quantiles_ = std::move(quantiles);
  }
  if (config.keep_distinct) {
    std::string_view sub;
    if (!reader.ReadLengthPrefixed(&sub)) {
      return Status::InvalidArgument("truncated distinct-sketch snapshot");
    }
    STREAMHIST_ASSIGN_OR_RETURN(FMSketch distinct, FMSketch::Deserialize(sub));
    *stream.distinct_ = std::move(distinct);
  }
  if (frame.version >= 4) {
    std::string_view sub;
    if (!reader.ReadLengthPrefixed(&sub)) {
      return Status::InvalidArgument("truncated stats snapshot");
    }
    if (Status s = stream.stats_->Deserialize(sub); !s.ok()) return s;
  }
  if (frame.version >= 5) {
    int64_t wal_lsn = 0;
    if (!reader.ReadI64(&wal_lsn)) {
      return Status::InvalidArgument("truncated stream snapshot");
    }
    if (wal_lsn < 0) {
      return Status::InvalidArgument("stream counters violate invariants");
    }
    stream.wal_lsn_ = wal_lsn;
  }
  if (frame.version >= 6) {
    std::string_view sub;
    if (!reader.ReadLengthPrefixed(&sub)) {
      return Status::InvalidArgument("truncated publish-stats snapshot");
    }
    if (Status s = stream.publish_->stats.Deserialize(sub); !s.ok()) return s;
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after stream snapshot");
  }
  stream.ReconcileGovernorCharge();
  // The synopses just changed under the snapshot Create() published (and
  // Create's publish cleared the change flags) — re-mark every section
  // changed and republish so readers see the restored state, not the empty
  // one.
  stream.publish_->window_changed = true;
  stream.publish_->quantiles_changed = true;
  stream.publish_->fm_mutations_at_publish = -1;
  stream.PublishSnapshot();
  return stream;
}

}  // namespace streamhist
