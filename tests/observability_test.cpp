// Metrics registry, span tracer and Chrome trace export tests, plus the
// key invariant of the whole subsystem: designs are bit-identical with
// metrics and tracing on or off, at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compact.hpp"
#include "frontend/benchgen.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "xbar/serialize.hpp"

namespace {
// Calls to the global operator new on the calling thread while a test has
// armed the count (see allocation_count below); other threads and other
// tests are not counted.
thread_local bool g_count_allocations = false;
thread_local std::size_t g_allocations = 0;
}  // namespace

// This test binary's global allocation functions: malloc and free, plus the
// count above. Kept out of line so the compiler pairs each new with its
// delete rather than the malloc and free inside them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace compact {
namespace {

/// Counts the calling thread's operator new calls while alive.
class allocation_count {
 public:
  allocation_count() {
    g_allocations = 0;
    g_count_allocations = true;
  }
  ~allocation_count() { g_count_allocations = false; }
  allocation_count(const allocation_count&) = delete;
  allocation_count& operator=(const allocation_count&) = delete;
  [[nodiscard]] std::size_t seen() const { return g_allocations; }
};

// Restores the global enabled flags and clears accumulated state so these
// tests cannot leak observability state into unrelated tests.
struct observability_sandbox {
  ~observability_sandbox() {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    global_metrics().reset();
    trace_reset();
  }
};

// --------------------------------------------------------------------------
// Histogram buckets and quantiles.

TEST(MetricHistogramTest, BucketBoundariesAreInclusiveUpper) {
  metric_histogram h({1.0, 2.0, 4.0});
  // Bucket i counts bounds[i-1] < v <= bounds[i].
  h.observe(0.5);  // bucket 0 (v <= 1)
  h.observe(1.0);  // bucket 0 (boundary is inclusive)
  h.observe(1.5);  // bucket 1
  h.observe(2.0);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(4.1);  // overflow
  h.observe(100);  // overflow
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // overflow bucket
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 + 100);
}

TEST(MetricHistogramTest, QuantilesInterpolateAndClampOverflow) {
  metric_histogram h({10.0, 20.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty histogram
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // bucket (10, 20]
  // Median sits exactly at the first bucket's upper bound.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-9);
  // Quantiles are monotone in q and stay within the covered range.
  EXPECT_LE(h.quantile(0.25), h.quantile(0.75));
  EXPECT_GE(h.quantile(0.25), 0.0);
  EXPECT_LE(h.quantile(0.99), 20.0);
  // Observations past the last bound clamp to bounds().back().
  for (int i = 0; i < 100; ++i) h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.9), 0.0);
}

TEST(MetricHistogramTest, QuantileIsExactAtBucketBoundaries) {
  metric_histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // bucket (10, 20]
  for (int i = 0; i < 20; ++i) h.observe(30.0);  // bucket (20, 40]
  // Ranks landing exactly on a bucket's cumulative edge return that bucket's
  // upper bound instead of interpolating into the next bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);  // rank 10 = bucket 0's edge
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);   // rank 20 = bucket 1's edge
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);   // rank 40 = the covered top
  // Interior ranks still interpolate linearly within their bucket.
  EXPECT_NEAR(h.quantile(0.125), 5.0, 1e-9);  // halfway through bucket 0
  EXPECT_NEAR(h.quantile(0.75), 30.0, 1e-9);  // halfway through bucket 2
}

TEST(MetricHistogramTest, SingleObservationOnBoundaryStaysInItsBucket) {
  metric_histogram h({10.0});
  h.observe(10.0);  // on the bound: inclusive-upper, so bucket 0
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 0u);  // not the overflow bucket
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  EXPECT_GE(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 10.0);
}

// --------------------------------------------------------------------------
// Counters, gauges, series, and the registry dump.

TEST(MetricsRegistryTest, CountersAreSharedByNameAndThreadSafe) {
  observability_sandbox sandbox;
  metric_counter& c = global_metrics().counter("test.shared_counter");
  c.reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < 1000; ++i)
        global_metrics().counter("test.shared_counter").increment();
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), 4000u);
}

TEST(MetricsRegistryTest, WriteJsonRoundTripsThroughOwnParser) {
  observability_sandbox sandbox;
  global_metrics().reset();
  global_metrics().counter("test.rt.counter").add(42);
  global_metrics().gauge("test.rt.gauge").set(2.5);
  metric_histogram& h =
      global_metrics().histogram("test.rt.hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  global_metrics().series("test.rt.series").append(0.1, 7.0);

  std::ostringstream os;
  global_metrics().write_json(os);
  const json::value_ptr doc = json::parse(os.str());
  EXPECT_EQ(doc->at("test.rt.counter").as_number(), 42.0);
  EXPECT_EQ(doc->at("test.rt.gauge").as_number(), 2.5);
  const json::value& hist = doc->at("test.rt.hist");
  EXPECT_EQ(hist.at("count").as_number(), 2.0);
  EXPECT_EQ(hist.at("sum").as_number(), 5.5);
  const json::value& series = doc->at("test.rt.series");
  const auto& points = series.at("points").as_array();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0]->as_array()[1]->as_number(), 7.0);

  // names() reports every registration with its kind, sorted.
  bool saw_counter = false, saw_hist = false;
  for (const auto& [name, kind] : global_metrics().names()) {
    if (name == "test.rt.counter") saw_counter = kind == "counter";
    if (name == "test.rt.hist") saw_hist = kind == "histogram";
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

TEST(MetricsRegistryTest, LookingUpAnExistingMetricAllocatesNothing) {
  observability_sandbox sandbox;
  metrics_registry& registry = global_metrics();
  // Names past the small-string buffer, so a key string built per lookup
  // would allocate.
  const std::vector<double> bounds{1.0, 10.0};
  metric_counter& counter = registry.counter("test.lookup.a_counter_name");
  metric_gauge& gauge = registry.gauge("test.lookup.a_gauge_name");
  metric_histogram& histogram =
      registry.histogram("test.lookup.a_histogram_name", bounds);

  metric_counter* counter_again = nullptr;
  metric_gauge* gauge_again = nullptr;
  metric_histogram* histogram_again = nullptr;
  std::size_t allocations = 0;
  {
    const allocation_count count;
    counter_again = &registry.counter("test.lookup.a_counter_name");
    gauge_again = &registry.gauge("test.lookup.a_gauge_name");
    histogram_again =
        &registry.histogram("test.lookup.a_histogram_name", bounds);
    allocations = count.seen();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(counter_again, &counter);
  EXPECT_EQ(gauge_again, &gauge);
  EXPECT_EQ(histogram_again, &histogram);
}

TEST(MetricsRegistryTest, RegisteringANameUnderASecondKindThrows) {
  observability_sandbox sandbox;
  (void)global_metrics().counter("test.kind_clash");
  try {
    (void)global_metrics().gauge("test.kind_clash");
    FAIL() << "a gauge registered over a counter";
  } catch (const error& e) {
    EXPECT_STREQ(e.what(),
                 "internal check failed: metrics_registry: 'test.kind_clash' "
                 "already registered as a counter, not a gauge");
  }
  // The clash registers nothing: the name keeps its first kind.
  for (const auto& [name, kind] : global_metrics().names()) {
    if (name == "test.kind_clash") {
      EXPECT_EQ(kind, "counter");
    }
  }
}

TEST(MetricsRegistryTest, SeriesRetentionDownsamplesDeterministically) {
  observability_sandbox sandbox;
  metric_series& s = global_metrics().series("test.retention");
  s.reset();
  EXPECT_EQ(s.stride(), 1u);
  const std::size_t cap = metric_series::max_points();

  // Filling to the cap triggers the first halving: every other point is
  // kept and the accept stride doubles, so retention is bounded and the
  // same append sequence always retains the same set.
  for (std::size_t i = 0; i < cap; ++i)
    s.append(static_cast<double>(i), static_cast<double>(i));
  EXPECT_EQ(s.size(), cap / 2);
  EXPECT_EQ(s.stride(), 2u);

  // A second cap's worth of appends (half accepted at stride 2) fills the
  // buffer again and doubles the stride once more.
  for (std::size_t i = cap; i < 2 * cap; ++i)
    s.append(static_cast<double>(i), static_cast<double>(i));
  EXPECT_EQ(s.stride(), 4u);
  EXPECT_LE(s.size(), cap);

  // The retained points are an ordered subsequence of what was appended.
  const std::vector<std::pair<double, double>> points = s.points();
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points.front().first, 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].first, points[i].second);  // value tracked seconds
    if (i > 0) {
      EXPECT_LT(points[i - 1].first, points[i].first);
    }
  }

  s.reset();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.stride(), 1u);
}

// --------------------------------------------------------------------------
// Tracer and Chrome export.

TEST(TraceTest, ChromeExportIsValidAndCarriesSpanFields) {
  observability_sandbox sandbox;
  trace_reset();
  set_trace_enabled(true);
  {
    const trace_span outer("outer", "test");
    const trace_span inner("inner", "test");
  }
  std::thread([] { const trace_span worker("on_worker", "test"); }).join();
  set_trace_enabled(false);
  EXPECT_EQ(trace_span_count(), 3u);

  std::ostringstream os;
  write_chrome_trace(os);
  const json::value_ptr doc = json::parse(os.str());
  const auto& events = doc->at("traceEvents").as_array();
  std::size_t complete = 0, metadata = 0;
  bool saw_other_tid = false;
  for (const json::value_ptr& e : events) {
    const std::string ph = e->at("ph").as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e->at("ts").as_number(), 0.0);
      EXPECT_GE(e->at("dur").as_number(), 0.0);
      if (e->at("tid").as_number() != 0.0) saw_other_tid = true;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 3u);
  EXPECT_GE(metadata, 2u);  // one thread_name record per seen thread
  EXPECT_TRUE(saw_other_tid);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  observability_sandbox sandbox;
  trace_reset();
  set_trace_enabled(false);
  { const trace_span span("ignored", "test"); }
  EXPECT_EQ(trace_span_count(), 0u);
}

// --------------------------------------------------------------------------
// The subsystem's core contract: observers never change the result.

TEST(ObservabilityTest, DesignsAreByteIdenticalWithObserversOnOrOff) {
  observability_sandbox sandbox;
  const frontend::network net = frontend::make_decoder(4);

  const auto run = [&net](int threads) {
    core::synthesis_options options;
    options.method = core::labeling_method::minimal_semiperimeter;
    options.parallel.threads = threads;
    const core::synthesis_result r =
        core::synthesize_separate_robdds(net, options);
    std::ostringstream os;
    xbar::write_design(r.design, os);
    return os.str();
  };

  for (const int threads : {1, 2, 8}) {
    set_metrics_enabled(false);
    set_trace_enabled(false);
    const std::string off = run(threads);

    set_metrics_enabled(true);
    set_trace_enabled(true);
    global_metrics().reset();
    trace_reset();
    const std::string on = run(threads);

    EXPECT_EQ(off, on) << "design changed with observers on, threads="
                       << threads;
    // The instrumented run actually observed something.
    EXPECT_GT(global_metrics().counter("bdd.ite_calls").value(), 0u);
    EXPECT_GT(trace_span_count(), 0u);
  }
}

}  // namespace
}  // namespace compact
