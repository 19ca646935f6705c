// Pass pipeline, labeler registry, labeling cache and telemetry tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/compact.hpp"
#include "core/label_cache.hpp"
#include "core/labelers.hpp"
#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/telemetry.hpp"
#include "xbar/serialize.hpp"

namespace compact::core {
namespace {

std::string serialized(const xbar::crossbar& design) {
  std::ostringstream os;
  xbar::write_design(design, os);
  return os.str();
}

synthesis_options oct_method() {
  synthesis_options options;
  options.method = labeling_method::minimal_semiperimeter;
  return options;
}

synthesis_options quick_mip() {
  synthesis_options options;
  options.method = labeling_method::weighted_mip;
  options.time_limit_seconds = 6.0;
  return options;
}

bdd_graph comparator_graph(bdd::manager& m) {
  const frontend::network net = frontend::make_comparator(3);
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  return build_bdd_graph(m, built.roots, built.names);
}

// --------------------------------------------------------------------------
// Registry.

TEST(LabelerRegistryTest, BuiltinsAreRegistered) {
  const std::vector<std::string> names = registered_labeler_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "oct"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "mip"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "staircase"), names.end());
  EXPECT_EQ(find_labeler("oct").name(), "oct");
  EXPECT_EQ(find_labeler("mip").name(), "mip");
  EXPECT_EQ(find_labeler("staircase").name(), "staircase");
}

TEST(LabelerRegistryTest, UnknownNameThrowsListingRegistered) {
  try {
    (void)find_labeler("no-such-labeler");
    FAIL() << "expected compact::error";
  } catch (const error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-labeler"), std::string::npos) << message;
    EXPECT_NE(message.find("oct"), std::string::npos) << message;
  }
}

TEST(LabelerRegistryTest, MethodEnumMapsToRegistryNames) {
  EXPECT_EQ(resolve_labeler_name(oct_method()), "oct");
  EXPECT_EQ(resolve_labeler_name(quick_mip()), "mip");
  synthesis_options explicit_name = quick_mip();
  explicit_name.labeler = "oct";
  EXPECT_EQ(resolve_labeler_name(explicit_name), "oct");
}

/// Delegates to the built-in OCT labeler but counts invocations, proving
/// the pipeline dispatches through the registry rather than hard-coding
/// the built-ins.
class recording_labeler final : public labeler {
 public:
  static std::atomic<int> calls;

  [[nodiscard]] std::string name() const override {
    return "pipeline-test-recording";
  }
  [[nodiscard]] std::string cache_salt(
      const labeler_request& request) const override {
    return find_labeler("oct").cache_salt(request);
  }
  [[nodiscard]] labeler_result label(
      const bdd_graph& graph, const labeler_request& request) const override {
    ++calls;
    return find_labeler("oct").label(graph, request);
  }
};
std::atomic<int> recording_labeler::calls{0};

TEST(LabelerRegistryTest, PipelineDispatchesToCustomLabeler) {
  register_labeler(std::make_unique<recording_labeler>());
  recording_labeler::calls = 0;

  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));

  synthesis_options options = oct_method();
  const synthesis_result reference = synthesize(m, {f}, {"f"}, options);
  options.labeler = "pipeline-test-recording";
  const synthesis_result custom = synthesize(m, {f}, {"f"}, options);

  EXPECT_EQ(recording_labeler::calls.load(), 1);
  EXPECT_EQ(serialized(custom.design), serialized(reference.design));
}

// --------------------------------------------------------------------------
// Cache key + cache semantics.

TEST(LabelCacheTest, KeySeparatesGraphLabelerAndOptions) {
  bdd::manager m(6);
  const bdd_graph g = comparator_graph(m);

  const label_cache_key base = make_label_cache_key(g, "oct", "salt-a");
  EXPECT_EQ(base.digest, make_label_cache_key(g, "oct", "salt-a").digest);
  EXPECT_EQ(base.canonical,
            make_label_cache_key(g, "oct", "salt-a").canonical);
  EXPECT_NE(base.canonical,
            make_label_cache_key(g, "oct", "salt-b").canonical);
  EXPECT_NE(base.canonical,
            make_label_cache_key(g, "mip", "salt-a").canonical);

  bdd::manager other(3);
  const bdd::node_handle f = other.apply_and(other.var(0), other.var(1));
  const bdd_graph small = build_bdd_graph(other, {f}, {"f"});
  EXPECT_NE(base.canonical,
            make_label_cache_key(small, "oct", "salt-a").canonical);
}

TEST(LabelCacheTest, FindMissStoreHitCounters) {
  bdd::manager m(6);
  const bdd_graph g = comparator_graph(m);
  const label_cache_key key = make_label_cache_key(g, "oct", "s");

  labeling_cache cache;
  EXPECT_FALSE(cache.find(key).has_value());

  cached_labeling entry;
  entry.l = label_minimal_semiperimeter(g).l;
  entry.optimal = true;
  cache.store(key, entry);

  const std::optional<cached_labeling> hit = cache.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->optimal);
  EXPECT_EQ(hit->l.label_of, entry.l.label_of);

  const labeling_cache::counters c = cache.stats();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.entries, 1u);

  // First store wins; a racing (identical, by determinism) store is a no-op.
  cached_labeling other = entry;
  other.optimal = false;
  cache.store(key, other);
  EXPECT_TRUE(cache.find(key)->optimal);
  EXPECT_EQ(cache.stats().entries, 1u);

  cache.clear();
  const labeling_cache::counters cleared = cache.stats();
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_EQ(cleared.entries, 0u);
}

TEST(LabelCacheTest, SecondSynthesisHitsTheCache) {
  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));

  labeling_cache cache;
  synthesis_options options = oct_method();
  options.cache = &cache;

  const synthesis_result first = synthesize(m, {f}, {"f"}, options);
  EXPECT_EQ(first.stats.cache_hits, 0u);
  EXPECT_EQ(first.stats.cache_misses, 1u);

  const synthesis_result second = synthesize(m, {f}, {"f"}, options);
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(serialized(second.design), serialized(first.design));
}

// --------------------------------------------------------------------------
// Determinism: cache on/off and thread counts must not change the design.

TEST(LabelCacheTest, SeparateRobddsBitIdenticalAcrossThreadsAndCache) {
  // A decoder is the worst case the cache targets: every output is a
  // distinct function but many share one graph structure. The run-local
  // cache must hit, and the design must not depend on the thread count.
  const frontend::network net = frontend::make_decoder(4);

  std::string reference;
  for (const int threads : {1, 2, 8}) {
    synthesis_options options = oct_method();
    options.parallel.threads = threads;
    const synthesis_result r = synthesize_separate_robdds(net, options);
    const std::string design = serialized(r.design);
    if (reference.empty()) reference = design;
    EXPECT_EQ(design, reference) << "threads=" << threads;
    EXPECT_GT(r.stats.cache_hits, 0u) << "threads=" << threads;
  }
}

TEST(LabelCacheTest, MipSynthesisBitIdenticalCacheOnVsOff) {
  bdd::manager m(6);
  const frontend::network net = frontend::make_comparator(3);
  const frontend::sbdd built = frontend::build_sbdd(net, m);

  labeling_cache cache;
  synthesis_options with_cache = quick_mip();
  with_cache.cache = &cache;
  const synthesis_result cached =
      synthesize(m, built.roots, built.names, with_cache);
  const synthesis_result uncached =
      synthesize(m, built.roots, built.names, quick_mip());
  EXPECT_EQ(serialized(cached.design), serialized(uncached.design));
}

// --------------------------------------------------------------------------
// Telemetry.

TEST(PipelineTelemetryTest, EmitsOneEventPerStageWithTimings) {
  bdd::manager m(3);
  const bdd::node_handle f =
      m.apply_or(m.apply_and(m.var(0), m.var(1)), m.var(2));

  memory_sink sink;
  synthesis_options options = oct_method();
  options.telemetry = &sink;
  const synthesis_result r = synthesize(m, {f}, {"f"}, options);

  EXPECT_EQ(sink.count("build_graph"), 1u);
  EXPECT_EQ(sink.count("label"), 1u);
  EXPECT_EQ(sink.count("map"), 1u);
  EXPECT_EQ(sink.events().size(), 3u);

  for (const telemetry_event& event : sink.events())
    EXPECT_GE(event.seconds, 0.0) << event.stage;
  for (const char* stage : {"build_graph", "label", "map"})
    EXPECT_GT(r.stats.stage_time(stage), 0.0) << stage;

  const telemetry_event label_event =
      sink.events()[1];  // build_graph, label, map order
  EXPECT_EQ(label_event.stage, "label");
  EXPECT_EQ(label_event.attribute_or("labeler"), "oct");
  EXPECT_EQ(label_event.metric_or("semiperimeter", -1.0),
            static_cast<double>(r.stats.semiperimeter));
}

TEST(PipelineTelemetryTest, MipTraceArrivesAsEvents) {
  bdd::manager m(6);
  const frontend::network net = frontend::make_comparator(3);
  const frontend::sbdd built = frontend::build_sbdd(net, m);

  memory_sink sink;
  synthesis_options options = quick_mip();
  options.telemetry = &sink;
  const synthesis_result r =
      synthesize(m, built.roots, built.names, options);

  // Every recorded convergence milestone is mirrored as a "mip_trace" event.
  EXPECT_FALSE(r.stats.trace.empty());
  EXPECT_EQ(sink.count("mip_trace"), r.stats.trace.size());
}

TEST(PipelineTelemetryTest, SeparateRobddsReportsCacheHitsInCompose) {
  const frontend::network net = frontend::make_decoder(4);
  memory_sink sink;
  synthesis_options options = oct_method();
  options.telemetry = &sink;
  options.parallel.threads = 2;
  const synthesis_result r = synthesize_separate_robdds(net, options);

  ASSERT_EQ(sink.count("compose"), 1u);
  telemetry_event compose;
  for (const telemetry_event& event : sink.events())
    if (event.stage == "compose") compose = event;
  EXPECT_GE(compose.metric_or("cache_hits", 0.0), 1.0);
  EXPECT_EQ(compose.metric_or("blocks", 0.0), 16.0);
  EXPECT_GE(r.stats.cache_hits, 1u);
}

TEST(PipelineTelemetryTest, JsonLinesSinkWritesOneParseableObjectPerEvent) {
  std::ostringstream os;
  json_lines_sink sink(os);

  telemetry_event event;
  event.stage = "label";
  event.seconds = 0.25;
  event.metric("semiperimeter", 7.0);
  event.metric("gap", std::numeric_limits<double>::infinity());
  event.attribute("cache", "hit\"quoted\"");
  event.stamp();  // pre-stamped, so the sink emits our timestamp verbatim
  sink.emit(event);

  const std::string line = os.str();
  EXPECT_EQ(line, "{\"stage\":\"label\",\"seconds\":0.25,\"ts_us\":" +
                      std::to_string(event.timestamp_us) + ",\"tid\":" +
                      std::to_string(event.thread_id) +
                      ",\"semiperimeter\":7,"
                      "\"gap\":null,\"cache\":\"hit\\\"quoted\\\"\"}\n");
  EXPECT_EQ(line, to_json_line(event) + "\n");
}

TEST(PipelineTelemetryTest, JsonLinesSinkStampsUnstampedEvents) {
  std::ostringstream os;
  json_lines_sink sink(os);

  telemetry_event event;
  event.stage = "map";
  sink.emit(event);

  EXPECT_NE(os.str().find("\"ts_us\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"tid\":"), std::string::npos);
  // The caller's copy is untouched; only the emitted line is stamped.
  EXPECT_EQ(event.timestamp_us, -1);
}

TEST(PipelineTest, CanonicalPipelineStages) {
  EXPECT_EQ(make_synthesis_pipeline().pass_names(),
            (std::vector<std::string>{"build_graph", "label", "map"}));
  EXPECT_EQ(make_label_map_pipeline().pass_names(),
            (std::vector<std::string>{"label", "map"}));
}

}  // namespace
}  // namespace compact::core
