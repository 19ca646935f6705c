#include "util/metrics.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace compact {

// --- histogram -------------------------------------------------------------

metric_histogram::metric_histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  check(!bounds_.empty(), "metric_histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    check(bounds_[i - 1] < bounds_[i],
          "metric_histogram: bounds must be strictly increasing");
}

void metric_histogram::observe(double value) {
  // First bucket index whose bound >= value; everything above the last
  // bound lands in the overflow bucket.
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const mutex_lock lock(mutex_);
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

std::uint64_t metric_histogram::count() const {
  const mutex_lock lock(mutex_);
  return count_;
}

double metric_histogram::sum() const {
  const mutex_lock lock(mutex_);
  return sum_;
}

std::uint64_t metric_histogram::bucket_count(std::size_t i) const {
  check(i < buckets_.size(), "metric_histogram: bucket index out of range");
  const mutex_lock lock(mutex_);
  return buckets_[i];
}

double metric_histogram::quantile(double q) const {
  check(q >= 0.0 && q <= 1.0, "metric_histogram: quantile must be in [0, 1]");
  const mutex_lock lock(mutex_);
  if (count_ == 0) return 0.0;
  // Rank of the target observation (1-based), then walk the buckets. The
  // comparisons carry a tolerance proportional to the total count: q *
  // count_ computed in floating point can land a hair above an exact
  // cumulative boundary, and without the tolerance a rank sitting on a
  // bucket's top edge would interpolate into the NEXT non-empty bucket —
  // a whole-bucket jump (e.g. p99 reported as 20 instead of 10 when the
  // middle bucket is empty). Ranks on an edge return the bound exactly.
  const double rank = q * static_cast<double>(count_);
  const double eps = 1e-9 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[i];
    const double cumulative = static_cast<double>(seen);
    if (cumulative < rank - eps) continue;
    if (i == bounds_.size()) return bounds_.back();  // overflow clamps
    if (rank >= cumulative - eps) return bounds_[i];  // exactly on the edge
    const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
    const double upper = bounds_[i];
    const double fraction =
        (rank - before) / static_cast<double>(buckets_[i]);
    return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
  }
  return bounds_.back();
}

void metric_histogram::reset() {
  const mutex_lock lock(mutex_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

// --- series ----------------------------------------------------------------

void metric_series::append(double seconds, double value) {
  const mutex_lock lock(mutex_);
  // Bounded retention: once the buffer fills, keep every other stored point
  // and double the accept stride, so a service-mode process holds at most
  // max_points() points whose spacing coarsens deterministically (the same
  // append sequence always yields the same retained set).
  if (skip_ + 1 < stride_) {
    ++skip_;
    return;
  }
  skip_ = 0;
  points_.emplace_back(seconds, value);
  if (points_.size() >= max_points()) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < points_.size(); i += 2) points_[kept++] = points_[i];
    points_.resize(kept);
    stride_ *= 2;
  }
}

std::vector<std::pair<double, double>> metric_series::points() const {
  const mutex_lock lock(mutex_);
  return points_;
}

std::size_t metric_series::size() const {
  const mutex_lock lock(mutex_);
  return points_.size();
}

void metric_series::reset() {
  const mutex_lock lock(mutex_);
  points_.clear();
  stride_ = 1;
  skip_ = 0;
}

// --- registry --------------------------------------------------------------

namespace {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

struct metrics_registry::entry {
  const char* kind = "";
  std::unique_ptr<metric_counter> counter;
  std::unique_ptr<metric_gauge> gauge;
  std::unique_ptr<metric_histogram> histogram;
  std::unique_ptr<metric_series> series;
};

metrics_registry::entry& metrics_registry::find_or_create(
    std::string_view name, const char* kind) {
  if (const auto it = index_.find(name); it != index_.end()) {
    entry& existing = *it->second;
    // The message is built only on the failing path.
    if (std::string_view(existing.kind) != kind)
      check(false, "metrics_registry: '" + std::string(name) +
                       "' already registered as a " + existing.kind +
                       ", not a " + kind);
    return existing;
  }
  // Leak-on-purpose lifetime: handles must survive registry resets and
  // process teardown ordering, so entries are never destroyed.
  auto* fresh = new entry;
  fresh->kind = kind;
  entries_.emplace_back(std::string(name), fresh);
  index_.emplace(entries_.back().first, fresh);
  return *fresh;
}

metric_counter& metrics_registry::counter(std::string_view name) {
  const mutex_lock lock(mutex_);
  entry& e = find_or_create(name, "counter");
  if (!e.counter) e.counter = std::make_unique<metric_counter>();
  return *e.counter;
}

metric_gauge& metrics_registry::gauge(std::string_view name) {
  const mutex_lock lock(mutex_);
  entry& e = find_or_create(name, "gauge");
  if (!e.gauge) e.gauge = std::make_unique<metric_gauge>();
  return *e.gauge;
}

metric_histogram& metrics_registry::histogram(
    std::string_view name, const std::vector<double>& bounds) {
  const mutex_lock lock(mutex_);
  entry& e = find_or_create(name, "histogram");
  if (!e.histogram) e.histogram = std::make_unique<metric_histogram>(bounds);
  return *e.histogram;
}

metric_series& metrics_registry::series(std::string_view name) {
  const mutex_lock lock(mutex_);
  entry& e = find_or_create(name, "series");
  if (!e.series) e.series = std::make_unique<metric_series>();
  return *e.series;
}

std::vector<std::pair<std::string, std::string>> metrics_registry::names()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  {
    const mutex_lock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& [name, e] : entries_) out.emplace_back(name, e->kind);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void metrics_registry::write_json(std::ostream& os) const {
  // Copy the entry list, then serialize without the registry lock held (the
  // metric objects carry their own synchronization).
  std::vector<std::pair<std::string, entry*>> entries;
  {
    const mutex_lock lock(mutex_);
    entries = entries_;
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  os << "{\n";
  bool first = true;
  for (const auto& [name, e] : entries) {
    if (!first) os << ",\n";
    first = false;
    os << "  \"" << json_escape(name) << "\": ";
    if (e->counter) {
      os << e->counter->value();
    } else if (e->gauge) {
      os << json_number(e->gauge->value());
    } else if (e->histogram) {
      const metric_histogram& h = *e->histogram;
      os << "{\"type\": \"histogram\", \"count\": " << h.count()
         << ", \"sum\": " << json_number(h.sum()) << ", \"buckets\": [";
      for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i > 0) os << ", ";
        os << "{\"le\": "
           << (i < h.bounds().size() ? json_number(h.bounds()[i])
                                     : std::string("null"))
           << ", \"count\": " << h.bucket_count(i) << "}";
      }
      os << "], \"p50\": " << json_number(h.quantile(0.5))
         << ", \"p90\": " << json_number(h.quantile(0.9))
         << ", \"p99\": " << json_number(h.quantile(0.99)) << "}";
    } else {
      os << "{\"type\": \"series\", \"points\": [";
      const auto points = e->series->points();
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0) os << ", ";
        os << "[" << json_number(points[i].first) << ", "
           << json_number(points[i].second) << "]";
      }
      os << "]}";
    }
  }
  os << "\n}\n";
}

void metrics_registry::reset() {
  std::vector<std::pair<std::string, entry*>> entries;
  {
    const mutex_lock lock(mutex_);
    entries = entries_;
  }
  for (const auto& [name, e] : entries) {
    (void)name;
    if (e->counter) e->counter->reset();
    if (e->gauge) e->gauge->reset();
    if (e->histogram) e->histogram->reset();
    if (e->series) e->series->reset();
  }
}

metrics_registry& global_metrics() {
  static metrics_registry* registry = new metrics_registry;
  return *registry;
}

}  // namespace compact
