// Mark-and-sweep semantics of the bdd::manager engine: the sweep reclaims
// exactly the unreachable slots, protected roots ride through collections
// untouched, handle recycling is deterministic, cross-manager transfer works
// into a post-GC destination, and — the contract that makes stage-boundary
// GC safe inside the pipeline — synthesized designs are byte-identical with
// collection on or off at any thread count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "bdd/transfer.hpp"
#include "core/compact.hpp"
#include "core/compose.hpp"
#include "core/pipeline.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"
#include "util/metrics.hpp"
#include "xbar/serialize.hpp"

namespace compact::bdd {
namespace {

/// All 2^n assignments of f, as a truth-table bit string.
std::string truth_table(const manager& m, node_handle f, int n) {
  std::string table;
  std::vector<bool> a(static_cast<std::size_t>(n), false);
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i)] = (mask >> i) & 1u;
    table.push_back(m.evaluate(f, a) ? '1' : '0');
  }
  return table;
}

TEST(BddGcTest, SweepShrinksNodeTableSize) {
  manager m(8);
  const node_handle keep = m.apply_and(m.var(0), m.var(1));
  // Pile up garbage: intermediate ite results no root reaches afterwards.
  node_handle junk = m.constant(false);
  for (int v = 0; v < 8; ++v) junk = m.apply_xor(junk, m.var(v));
  const std::size_t before = m.node_table_size();

  const manager::gc_result r = m.collect_garbage({keep});
  EXPECT_GT(r.reclaimed, 0u);
  EXPECT_LT(m.node_table_size(), before);
  EXPECT_EQ(m.node_table_size(), r.live);
  // live = 2 terminals + the two decision nodes of x0 & x1.
  EXPECT_EQ(r.live, 4u);
  EXPECT_EQ(m.stats().gc_runs, 1u);
  EXPECT_EQ(m.stats().gc_reclaimed, r.reclaimed);

  // Collecting again over the same roots finds nothing left to reclaim;
  // dropping the root, or making a node, gives the next sweep work again.
  EXPECT_EQ(m.collect_garbage({keep}).reclaimed, 0u);
  EXPECT_EQ(m.stats().gc_runs, 2u);
  EXPECT_EQ(m.collect_garbage().reclaimed, 2u);
  (void)m.apply_or(m.var(2), m.var(3));  // x2, x3 and their disjunction
  EXPECT_EQ(m.collect_garbage().reclaimed, 3u);
  EXPECT_EQ(m.node_table_size(), 2u);
}

TEST(BddGcTest, HandleRecyclingIsLowestFirstAndDeterministic) {
  manager m(10);
  std::vector<node_handle> vars;
  for (int v = 0; v < 5; ++v) vars.push_back(m.var(v));
  // Fresh managers allocate densely: handles 2..6.
  for (int v = 0; v < 5; ++v)
    EXPECT_EQ(vars[static_cast<std::size_t>(v)],
              static_cast<node_handle>(v + 2));

  const manager::gc_result r = m.collect_garbage({vars[0]});
  EXPECT_EQ(r.reclaimed, 4u);  // handles 3..6 swept
  // Recycling hands out the lowest freed slot first, so rebuilding the same
  // functions in the same order reproduces the same handles.
  EXPECT_EQ(m.var(1), static_cast<node_handle>(3));
  EXPECT_EQ(m.var(2), static_cast<node_handle>(4));
  EXPECT_EQ(m.node_capacity(), 7u);  // no new slots were allocated
}

TEST(BddGcTest, ProtectedRootsSurviveCollections) {
  manager m(6);
  node_handle f = m.var(0);
  for (int v = 1; v < 6; ++v) f = m.apply_xor(f, m.var(v));
  const std::string expected = truth_table(m, f, 6);
  m.protect(f);

  // Nothing passed as an extra root: only the protection keeps f alive.
  (void)m.collect_garbage();
  EXPECT_EQ(truth_table(m, f, 6), expected);

  // Interleave new work and more collections; f must be untouched.
  for (int round = 0; round < 3; ++round) {
    node_handle junk = m.apply_or(m.var(0), m.var(round + 1));
    junk = m.apply_and(junk, m.var(5));
    (void)m.collect_garbage();
    EXPECT_EQ(truth_table(m, f, 6), expected);
  }

  // Protection is counted: protect twice = unprotect twice.
  m.protect(f);
  m.unprotect(f);
  (void)m.collect_garbage();
  EXPECT_EQ(truth_table(m, f, 6), expected);

  m.unprotect(f);
  (void)m.collect_garbage();
  EXPECT_THROW((void)m.evaluate(f, std::vector<bool>(6, false)), error);
  EXPECT_THROW((void)m.at(f), error);
  EXPECT_THROW((void)m.collect_garbage({f}), error);  // dangling GC root
}

TEST(BddGcTest, RootsEvaluateIdenticallyAcrossCollectionsWithNewNodes) {
  manager m(8);
  std::vector<node_handle> roots;
  std::vector<std::string> tables;
  for (int o = 0; o < 3; ++o) {
    node_handle f = m.var(o);
    for (int v = o + 1; v < 8; v += 2) f = m.apply_xor(f, m.var(v));
    roots.push_back(f);
    tables.push_back(truth_table(m, f, 8));
  }
  for (int round = 0; round < 4; ++round) {
    (void)m.collect_garbage(roots);
    // New allocations reuse swept slots; canonicity must still hold, i.e.
    // rebuilding a live function finds the existing node, never a recycled
    // slot with the same shape.
    node_handle rebuilt = m.var(0);
    for (int v = 1; v < 8; v += 2) rebuilt = m.apply_xor(rebuilt, m.var(v));
    EXPECT_EQ(rebuilt, roots[0]);
    for (std::size_t o = 0; o < roots.size(); ++o)
      EXPECT_EQ(truth_table(m, roots[o], 8), tables[o]);
  }
}

TEST(BddGcTest, TransferIntoPostGcDestinationRoundTrips) {
  manager src(6);
  node_handle f = src.var(0);
  for (int v = 1; v < 6; ++v)
    f = v % 2 ? src.apply_or(f, src.var(v)) : src.apply_xor(f, src.var(v));
  const std::string expected = truth_table(src, f, 6);

  // Destination with swept slots pending reuse: build garbage, collect.
  manager dst(6);
  node_handle junk = dst.constant(false);
  for (int v = 0; v < 6; ++v) junk = dst.apply_xor(junk, dst.var(v));
  (void)dst.collect_garbage();
  ASSERT_EQ(dst.node_table_size(), 2u);  // terminals only

  const node_handle g = transfer(src, f, dst);
  EXPECT_EQ(truth_table(dst, g, 6), expected);

  // Round-trip back into a collected source: canonicity maps the copy onto
  // the original handle.
  (void)src.collect_garbage({f});
  EXPECT_EQ(transfer(dst, g, src), f);

  // And a sweep in the destination keeping only the copy preserves it.
  (void)dst.collect_garbage({g});
  EXPECT_EQ(truth_table(dst, g, 6), expected);
}

TEST(BddGcTest, IteAfterCollectionNeverResurrectsStaleCacheEntries) {
  manager m(8);
  // Populate the computed table, sweep everything, then recompute: any ite
  // cache entry naming a swept handle must have been scrubbed, or the
  // recomputation would return a dangling result.
  node_handle f = m.var(0);
  for (int v = 1; v < 8; ++v) f = m.apply_xor(f, m.var(v));
  const std::string expected = truth_table(m, f, 8);
  (void)m.collect_garbage();  // sweep all of it

  node_handle g = m.var(0);
  for (int v = 1; v < 8; ++v) g = m.apply_xor(g, m.var(v));
  EXPECT_EQ(truth_table(m, g, 8), expected);
  std::vector<bool> a(8, false);
  EXPECT_FALSE(m.evaluate(g, a));
  a[3] = true;
  EXPECT_TRUE(m.evaluate(g, a));
}

// --------------------------------------------------------------------------
// Metrics: the recursion-depth histogram observes per-interval watermarks.

struct metrics_sandbox {
  ~metrics_sandbox() {
    set_metrics_enabled(false);
    global_metrics().reset();
  }
};

TEST(BddGcTest, PublishMetricsObservesDepthWatermarkOncePerInterval) {
  metrics_sandbox sandbox;
  set_metrics_enabled(true);
  global_metrics().reset();

  manager m(12);
  node_handle f = m.var(0);
  for (int v = 1; v < 12; ++v) f = m.apply_xor(f, m.var(v));
  m.publish_metrics();
  metric_histogram& depth = global_metrics().histogram(
      "bdd.max_ite_depth", {4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  const std::uint64_t after_first = depth.count();
  EXPECT_EQ(after_first, 1u);

  // Regression: the old engine re-observed the cumulative lifetime max at
  // every stage boundary, counting one deep chain once per stage. With no
  // ite() traffic between publishes the histogram must not grow.
  m.publish_metrics();
  m.publish_metrics();
  EXPECT_EQ(depth.count(), after_first);

  // New traffic opens a new interval: exactly one more observation.
  node_handle g = m.apply_and(f, m.var(3));
  (void)g;
  m.publish_metrics();
  EXPECT_EQ(depth.count(), after_first + 1);

  // GC counters reach the registry as deltas.
  (void)m.collect_garbage({f});
  m.publish_metrics();
  EXPECT_EQ(global_metrics().counter("bdd.gc_runs").value(), 1u);
  EXPECT_GT(global_metrics().counter("bdd.gc_reclaimed").value(), 0u);
}

// --------------------------------------------------------------------------
// Pipeline contract: stage-boundary GC never changes the design.

TEST(BddGcTest, StageBoundaryGcKeepsDesignsByteIdentical) {
  const frontend::network net = frontend::make_comparator(4);
  core::synthesis_options options;
  options.labeler = "oct";
  core::synthesis_options partitioned = options;
  partitioned.partition = true;
  partitioned.max_rows = 8;
  partitioned.max_columns = 8;
  core::synthesis_options separate = options;
  separate.separate_robdds = true;
  const auto text = [](const core::synthesis_result& r) {
    std::ostringstream os;
    if (r.partitioned)
      xbar::write_partitioned_design(*r.partitioned, os);
    else
      xbar::write_design(r.design, os);
    return os.str();
  };

  // References from caller-owned managers, which the flow never collects:
  // the shared BDD on one array and split across several, and one ROBDD
  // per output composed along the diagonal.
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const std::string sbdd_reference =
      text(core::synthesize(m, built.roots, built.names, options));
  const core::synthesis_result split =
      core::synthesize(m, built.roots, built.names, partitioned);
  ASSERT_GE(split.stats.arrays, 2);
  const std::string partition_reference = text(split);
  std::vector<core::synthesis_result> parts;
  for (std::size_t o = 0; o < net.outputs().size(); ++o) {
    bdd::manager part(net.input_count());
    const std::vector<node_handle> roots{
        frontend::build_output(net, part, static_cast<int>(o))};
    parts.push_back(
        core::synthesize(part, roots, {net.outputs()[o].name}, options));
  }
  std::vector<const xbar::crossbar*> blocks;
  for (const core::synthesis_result& part : parts)
    blocks.push_back(&part.design);
  std::ostringstream composed;
  xbar::write_design(core::compose_diagonal(blocks), composed);
  const std::string robdd_reference = composed.str();

  // The network overload owns its managers and sweeps at every stage
  // boundary; the designs must not change.
  for (const int threads : {1, 2, 8}) {
    options.parallel.threads = threads;
    partitioned.parallel.threads = threads;
    separate.parallel.threads = threads;
    EXPECT_EQ(text(core::synthesize(net, options)), sbdd_reference)
        << "SBDD design changed under GC, threads=" << threads;
    EXPECT_EQ(text(core::synthesize(net, partitioned)), partition_reference)
        << "partitioned design changed under GC, threads=" << threads;
    EXPECT_EQ(text(core::synthesize(net, separate)), robdd_reference)
        << "separate-ROBDD design changed under GC, threads=" << threads;
  }
}

TEST(BddGcTest, SynthesizeGcLeavesRootHandlesValid) {
  const frontend::network net = frontend::make_ripple_adder(4);
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  std::vector<std::string> tables;
  for (const node_handle root : built.roots)
    tables.push_back(truth_table(m, root, net.input_count()));
  const std::size_t before = m.node_table_size();

  // A context whose gc_manager is set cedes the manager to the run.
  core::synthesis_context ctx;
  ctx.manager = &m;
  ctx.gc_manager = &m;
  ctx.roots = &built.roots;
  ctx.names = &built.names;
  ctx.options.labeler = "oct";
  core::synthesize(ctx);
  EXPECT_GT(ctx.stats.semiperimeter, 0);

  // The build's intermediate carries were swept; the roots still compute
  // exactly what they did before the pipeline ran.
  EXPECT_LT(m.node_table_size(), before);
  for (std::size_t o = 0; o < built.roots.size(); ++o)
    EXPECT_EQ(truth_table(m, built.roots[o], net.input_count()), tables[o]);
  EXPECT_GT(m.stats().gc_runs, 0u);
}

}  // namespace
}  // namespace compact::bdd
