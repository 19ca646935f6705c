// Process-wide metrics registry: counters, gauges, fixed-bucket histograms
// and (seconds, value) time series, registered by name and dumpable as JSON.
//
// The registry exists so the hot engines (bdd::manager, the branch-and-bound
// MIP, the labeling cache, the thread pool) can publish what happens inside
// them without threading a sink through every call chain. Publication is
// gated on a global enabled flag (one relaxed atomic load when off), and
// metrics only observe — designs are bit-identical with metrics on or off.
//
// Thread-safety: every metric object is internally synchronized and safe to
// update from pool workers; handles returned by the registry stay valid for
// the process lifetime (metrics are never deleted, only reset to zero).
//
// Cost: looking up an existing metric hashes its name and allocates nothing,
// but it still takes the registry mutex. Hot publishers resolve each handle
// once (a function-local static, or a pointer held by the publishing object)
// and update it directly afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace compact {

/// Monotonically increasing event count.
class metric_counter {
 public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class metric_gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// bounds[i-1] < v <= bounds[i]; an implicit overflow bucket catches
/// v > bounds.back(). Quantiles are extracted by linear interpolation
/// inside the containing bucket (the standard Prometheus estimate), so
/// they are approximations whose error is bounded by the bucket width.
class metric_histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit metric_histogram(std::vector<double> bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  /// Observations in bucket `i` (i == bounds().size() is the overflow
  /// bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }

  /// Approximate q-quantile (q in [0, 1]) of the observations. Returns 0
  /// when empty. Values in the overflow bucket clamp to bounds().back().
  [[nodiscard]] double quantile(double q) const;

  void reset();

 private:
  std::vector<double> bounds_;
  mutable annotated_mutex mutex_;
  // bounds_.size() + 1 buckets (overflow last).
  std::vector<std::uint64_t> buckets_ COMPACT_GUARDED_BY(mutex_);
  std::uint64_t count_ COMPACT_GUARDED_BY(mutex_) = 0;
  double sum_ COMPACT_GUARDED_BY(mutex_) = 0.0;
};

/// Append-only (seconds, value) series for convergence-style metrics (e.g.
/// the MIP's gap over time). Retention is bounded: at most max_points()
/// points are kept, and on overflow the series deterministically halves its
/// resolution (drops every other stored point and doubles the accept
/// stride), so long-running processes never grow a series without limit
/// while the retained points still span the whole timeline.
class metric_series {
 public:
  /// Hard cap on stored points; reaching it triggers downsampling.
  [[nodiscard]] static constexpr std::size_t max_points() { return 4096; }

  void append(double seconds, double value);
  [[nodiscard]] std::vector<std::pair<double, double>> points() const;
  [[nodiscard]] std::size_t size() const;
  /// Current accept stride: 1 until the first downsample, then 2, 4, ...
  /// Only every stride()-th append is stored.
  [[nodiscard]] std::size_t stride() const {
    const mutex_lock lock(mutex_);
    return stride_;
  }
  void reset();

 private:
  mutable annotated_mutex mutex_;
  std::vector<std::pair<double, double>> points_ COMPACT_GUARDED_BY(mutex_);
  std::size_t stride_ COMPACT_GUARDED_BY(mutex_) = 1;
  std::size_t skip_ COMPACT_GUARDED_BY(mutex_) = 0;
};

/// Globally enable/disable metric publication from the instrumented hot
/// paths. Off by default so library code stays untouched inside benchmarks.
void set_metrics_enabled(bool enabled);
[[nodiscard]] bool metrics_enabled();

class metrics_registry {
 public:
  /// Get-or-create by name. Handles remain valid for the process lifetime.
  /// Names are conventionally dotted paths: "bdd.ite_cache_hits",
  /// "milp.bnb.nodes_explored", "thread_pool.queue_depth". Throws
  /// compact::error when the name is already registered as another kind.
  [[nodiscard]] metric_counter& counter(std::string_view name);
  [[nodiscard]] metric_gauge& gauge(std::string_view name);
  /// `bounds` is copied on first creation only; later callers get the
  /// existing histogram whatever its bounds.
  [[nodiscard]] metric_histogram& histogram(std::string_view name,
                                            const std::vector<double>& bounds);
  [[nodiscard]] metric_series& series(std::string_view name);

  /// Registered names in sorted order, as (name, kind) pairs with kind in
  /// {"counter", "gauge", "histogram", "series"}.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> names() const;

  /// Dump every metric as one JSON object keyed by metric name. Counters
  /// and gauges map to numbers; histograms map to {count, sum, buckets,
  /// p50, p90, p99}; series map to {points: [[s, v], ...]}.
  void write_json(std::ostream& os) const;

  /// Zero every registered metric (registrations themselves persist).
  void reset();

 private:
  struct entry;
  /// Hashes a name as either std::string or std::string_view, so lookups
  /// by view never build a key string.
  struct name_hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  entry& find_or_create(std::string_view name, const char* kind)
      COMPACT_REQUIRES(mutex_);

  mutable annotated_mutex mutex_;
  // Insertion order; entries leak by design (process-lifetime handles).
  std::vector<std::pair<std::string, entry*>> entries_
      COMPACT_GUARDED_BY(mutex_);
  // The same entries by name, for lookups.
  std::unordered_map<std::string, entry*, name_hash, std::equal_to<>> index_
      COMPACT_GUARDED_BY(mutex_);
};

/// The process-wide registry used by all built-in instrumentation.
[[nodiscard]] metrics_registry& global_metrics();

}  // namespace compact
